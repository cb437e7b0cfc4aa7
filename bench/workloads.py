"""The benchmark's four workloads: fixed lists of operations, each paired
with the checker that validates its output.

Heavy operations are fixed.  The seed picks only point-query parameters, from
ranges narrow enough that an operation's cost hardly depends on the pick, so
runs with different seeds measure the same amount of work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks

DEFAULT_SEED = 1

SUITES = tuple(checks.SUITE_CHECKS)

# The one widened verify grid: past every suite's default in at least one of
# n and r, and every check still passes on it.  The oracle suite is never
# widened: its n + r <= 12 guard makes a wider grid repeat the default work.
WIDE_GRID = ("--nmax", "14", "--rmax", "9")
# verify-all widens these; roots, cigler and recurrences are widened in
# poly-algebra, which keeps verify-all's round near 6 s.  As many of its
# operations cost less than the ~100 ms integral/ogf/definitions/carlitz group
# as cost more, so the median operation falls inside that group.
WIDENED_IN_VERIFY_ALL = ("definitions", "carlitz", "ogf", "transforms", "dobinski", "maxindex", "integral")

# Touches every layer once, so that each per-layer metric is a measured,
# nonzero value on every workload.
SMOKE = ("verify", "--suite", "all", "--nmax", "2", "--rmax", "2")


@dataclass(frozen=True)
class Op:
    """One operation: a CLI argv, or a library call (module, function, args)
    whose result ``render`` turns into text."""

    name: str
    check: Callable[[int, str], str | None]
    argv: tuple[str, ...] | None = None
    call: tuple[str, str, tuple] | None = None
    render: Callable[[object], str] | None = None
    known_fault: str | None = None


def _cli(*argv: str, check, known_fault=None) -> Op:
    return Op(" ".join(argv), check, argv=tuple(argv), known_fault=known_fault)


def _verify(suite: str, *grid: str) -> Op:
    return _cli("verify", "--suite", suite, *grid, check=checks.verify_checker(suite))


def _smoke() -> Op:
    return _cli(*SMOKE, check=checks.verify_checker("all"))


def verify_all(rng: random.Random) -> list[Op]:
    ops = [_verify(s) for s in SUITES]
    ops += [_verify(s, *WIDE_GRID) for s in WIDENED_IN_VERIFY_ALL]
    return ops


def _table(n_max: int, r_max: int, fmt: str) -> Op:
    return _cli(
        "table", "--nmax", str(n_max), "--rmax", str(r_max), "--format", fmt,
        check=checks.table_checker(n_max, r_max, fmt),
    )


def _bell(n: int, r: int, mode: str, x: Fraction | None = None) -> Op:
    extra = {"number": (), "poly": ("--poly",), "x": ("--x", str(x))}[mode]
    return _cli("bell", "-n", str(n), "-r", str(r), *extra, check=checks.bell_checker(n, r, mode, x))


def _stirling(kind: int, n: int, k: int, r: int) -> Op:
    return _cli(
        f"stirling{kind}", "-n", str(n), "-k", str(k), "-r", str(r),
        check=checks.stirling_checker(kind, n, k, r),
    )


def exact_tables(rng: random.Random) -> list[Op]:
    x = Fraction(rng.randint(1, 9), rng.randint(2, 9))
    ops = [
        _table(200, 40, "json"),
        _table(160, 32, "csv"),
        _bell(300, 5, "number"),
        _bell(250, 3, "poly"),
        _bell(280, 4, "x", x),
        _cli("hankel", "-r", "3", "--nmax", "35", check=checks.hankel_checker(3, 35)),
        _cli("maxindex", "-n", "200", "-r", "5", check=checks.maxindex_checker(200, 5)),
        _smoke(),
    ]
    # Point queries set op_p50_ms: there are enough of them that the median
    # operation sits inside their cluster rather than at its edge.  Cost grows
    # with (n - k)(k - r), which these ranges keep within about 15% of its middle.
    for kind in (2, 1) * 15:
        r = rng.randint(0, 6)
        k = r + rng.randint(35, 40)
        n = rng.randint(145, 155)
        ops.append(_stirling(kind, n, k, r))
    return ops


def _roots(n: int, r: int) -> Op:
    return _cli("roots", "-n", str(n), "-r", str(r), check=checks.roots_checker(n, r))


def _cigler(n: int, r: int) -> Op:
    return Op(
        f"cigler_d({n}, 1, {r})",
        checks.cigler_checker(n, r),
        call=("transforms", "cigler_d", (n, 1, r)),
        render=lambda pair: json.dumps(
            {"computed": list(pair[0].coeffs), "expected": list(pair[1].coeffs)}
        ),
    )


def poly_algebra(rng: random.Random) -> list[Op]:
    ops = [
        _roots(30, 2),
        _roots(26, 0),
        _roots(24, 5),
        _cigler(7, 3),
        _verify("roots", *WIDE_GRID),
        _verify("cigler", *WIDE_GRID),
        _verify("recurrences", *WIDE_GRID),
        _smoke(),
    ]
    # cigler_d goes through the library: the CLI's cigler suite clamps n <= 6.
    ops += [_cigler(n, rng.randint(0, 6)) for n in (3, 4, 5, 6)]
    # Point queries set op_p50_ms.  A root count's cost hardly depends on r, so
    # a cluster of equal-n queries puts the median operation inside it.
    ops += [_roots(18, r) for r in rng.sample(range(16), 12)]
    return ops


def _integral(n: int, r: int, known_fault: str | None = None) -> Op:
    return _cli(
        "integral", "-n", str(n), "-r", str(r), "--tol", "1e-08",
        check=checks.integral_checker(n, r, 1e-08), known_fault=known_fault,
    )


def _dobinski(n: int, r: int, x: Fraction) -> Op:
    return _cli(
        "dobinski", "-n", str(n), "-r", str(r), "--x", str(x), "--tol", "1e-09",
        check=checks.dobinski_checker(n, r, x, 1e-09),
    )


INTEGRAL_FAULT = "cesaro_integral returns an err that does not enclose B_{n,r}"


def numeric(rng: random.Random) -> list[Op]:
    ops = [
        _verify("dobinski", *WIDE_GRID),
        _verify("integral", *WIDE_GRID),
        _verify("ogf", *WIDE_GRID),
        _verify("kummer", *WIDE_GRID),
        _smoke(),
        _integral(34, 6, INTEGRAL_FAULT),
        _integral(40, 6, INTEGRAL_FAULT),
        _integral(20, 3),
        _integral(28, 1),
        _integral(24, 4),
        _integral(16, 8),
    ]
    for _ in range(6):
        x = Fraction(rng.randint(1, 12), rng.randint(1, 3))
        ops.append(_dobinski(rng.randint(90, 110), rng.randint(0, 6), x))
    return ops


WORKLOADS = {
    "verify-all": verify_all,
    "exact-tables": exact_tables,
    "poly-algebra": poly_algebra,
    "numeric": numeric,
}


def build(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
