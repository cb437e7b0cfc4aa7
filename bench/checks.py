"""Reference values and output checkers for the benchmark.

Nothing here imports rbell.  Each checker recomputes what an operation should
print from this module's own arithmetic, or tests a property the paper proves,
and returns None when the output is right or a one-line reason when it is not.
The reference routes are deliberately different from the library's: Bell
numbers come from the Bell triangle, r-Stirling numbers of the second kind from
the alternating sum, those of the first kind from expanding a rising product.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

# ---------------------------------------------------------------------------
# reference arithmetic


def bell_numbers(n_max: int) -> list[int]:
    """B_0..B_{n_max} from the Bell triangle."""
    row = [1]
    bells = [1]
    for _ in range(n_max):
        new = [row[-1]]
        for v in row:
            new.append(new[-1] + v)
        row = new
        bells.append(row[0])
    return bells


def rbell_numbers(n_max: int, r: int, bells: list[int]) -> list[int]:
    """B_{n,r} for n = 0..n_max as sum_k C(n, k) r^(n-k) B_k."""
    powers = [r**e for e in range(n_max + 1)]
    return [
        sum(math.comb(n, k) * powers[n - k] * bells[k] for k in range(n + 1))
        for n in range(n_max + 1)
    ]


def rbell_number(n: int, r: int) -> int:
    return rbell_numbers(n, r, bell_numbers(n))[n]


def stirling2_shifted(n: int, k: int, r: int) -> int:
    """{n+r, k+r}_r = (1/k!) sum_j (-1)^(k-j) C(k, j) (j+r)^n."""
    total = sum((-1) ** (k - j) * math.comb(k, j) * (j + r) ** n for j in range(k + 1))
    quot, rem = divmod(total, math.factorial(k))
    if rem:
        raise ArithmeticError(f"alternating sum at ({n}, {k}, {r}) not divisible by k!")
    return quot


def stirling2(n: int, k: int, r: int) -> int:
    """{n, k}_r in unshifted indices."""
    if k < r or n < r:
        return 0
    return stirling2_shifted(n - r, k - r, r)


def stirling1(n: int, k: int, r: int) -> int:
    """[n, k]_r: the coefficient of x^(k-r) in (x+r)(x+r+1)...(x+n-1)."""
    if n < r or k < r or k > n:
        return 0
    coeffs = [1]
    for i in range(r, n):
        coeffs = [a * i + b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs[k - r]


def rbell_poly(n: int, r: int) -> list[int]:
    """Coefficients of B_{n,r}(x), lowest degree first, by the alternating sum."""
    return [stirling2_shifted(n, k, r) for k in range(n + 1)]


def evaluate(coeffs: list[int], x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def cigler_closed_form(n: int, r: int) -> list[int]:
    """d(n, 1) = x^C(n,2) prod_{j<n} j! . sum_j C(n, j) x^j (r)_{n-j}."""
    prefactor = math.prod(math.factorial(j) for j in range(n))
    rising = [math.prod(range(r, r + m)) for m in range(n + 1)]
    series = [math.comb(n, j) * rising[n - j] for j in range(n + 1)]
    return [0] * (n * (n - 1) // 2) + [prefactor * c for c in series]


def hankel_products(n_max: int) -> list[int]:
    """Term n of the Hankel transform of any r-Bell row: prod_{i<=n} i!."""
    out, acc = [], 1
    for i in range(n_max + 1):
        acc *= math.factorial(i)
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# checkers: each returns None or a reason


def _record(stdout: str, op: str, params: dict):
    """Parse a one-line CLI record and compare its op and params."""
    lines = stdout.splitlines()
    if len(lines) != 1:
        raise ValueError(f"expected one output line, got {len(lines)}")
    record = json.loads(lines[0])
    if list(record) != ["op", "params", "value"]:
        raise ValueError(f"record keys {list(record)}")
    if record["op"] != op or record["params"] != params:
        raise ValueError(f"record header {record['op']} {record['params']}")
    return record["value"]


def _guard(check):
    """Turn a parse error or a non-zero exit into a failure reason."""

    def checker(code, stdout):
        if code != 0:
            return f"exit code {code}"
        try:
            return check(stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unparseable output: {exc}"

    return checker


def table_checker(n_max: int, r_max: int, fmt: str):
    bells = bell_numbers(n_max)
    expected = [[str(v) for v in rbell_numbers(n_max, r, bells)] for r in range(r_max + 1)]

    def check(stdout):
        if fmt == "json":
            rows = _record(stdout, "table", {"nmax": n_max, "rmax": r_max})
        else:
            lines = stdout.splitlines()
            header = "r/n," + ",".join(str(n) for n in range(n_max + 1))
            if lines[0] != header:
                return "csv header differs"
            rows = []
            for r, line in enumerate(lines[1:]):
                cells = line.split(",")
                if cells[0] != str(r):
                    return f"csv row label {cells[0]} at row {r}"
                rows.append(cells[1:])
        if len(rows) != r_max + 1:
            return f"{len(rows)} rows, expected {r_max + 1}"
        for r, (got, want) in enumerate(zip(rows, expected)):
            if got != want:
                n = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), len(got))
                return f"B_(n={n}, r={r}) differs from the Bell-triangle value"
        return None

    return _guard(check)


def bell_checker(n: int, r: int, mode: str, x: Fraction | None = None):
    """mode is "number", "poly" or "x"."""
    params = {"n": n, "r": r}
    if mode == "number":
        want = str(rbell_number(n, r))
    elif mode == "poly":
        want = rbell_poly(n, r)
    else:
        params["x"] = str(x)
        want = str(evaluate(rbell_poly(n, r), x))

    def check(stdout):
        got = _record(stdout, "bell", params)
        return None if got == want else f"B_({n},{r}) {mode} differs from the reference"

    return _guard(check)


def stirling_checker(kind: int, n: int, k: int, r: int):
    want = str(stirling2(n, k, r) if kind == 2 else stirling1(n, k, r))

    def check(stdout):
        got = _record(stdout, f"stirling{kind}", {"n": n, "k": k, "r": r})
        return None if got == want else f"stirling{kind}({n},{k},{r}) differs"

    return _guard(check)


def hankel_checker(r: int, n_max: int):
    want = [str(v) for v in hankel_products(n_max)]

    def check(stdout):
        got = _record(stdout, "hankel", {"r": r, "nmax": n_max})
        if got == want:
            return None
        return "Hankel transform term differs from prod i!"

    return _guard(check)


def maxindex_checker(n: int, r: int):
    row = {k: stirling2(n + r, k, r) for k in range(r, n + r + 1)}
    best = max(row.values())
    maximizers = [k for k, v in row.items() if v == best]
    bells = bell_numbers(n + 1)
    rb = rbell_numbers(n + 1, r, bells)
    ratio = Fraction(rb[n + 1], rb[n]) - (r + 1)
    want = {
        "maximizers": maximizers,
        "ratio_estimate": str(ratio),
        "bound_holds": any(abs(k - r - ratio) < 1 for k in maximizers),
    }

    def check(stdout):
        got = _record(stdout, "maxindex", {"n": n, "r": r})
        return None if got == want else f"maxindex report {got} vs {want}"

    return _guard(check)


def roots_checker(n: int, r: int):
    """B_{n,r}(x) has n distinct negative roots for r >= 1, and the root 0
    plus n-1 distinct negative roots for r = 0."""
    want = {"degree": n, "distinct_neg_roots": n if r else n - 1, "root_at_zero": r == 0}

    def check(stdout):
        got = _record(stdout, "roots", {"n": n, "r": r})
        return None if got == want else f"root structure {got}, expected {want}"

    return _guard(check)


def cigler_checker(n: int, r: int):
    want = cigler_closed_form(n, r)

    def check(stdout):
        got = json.loads(stdout)
        if got["computed"] != want:
            return f"d({n},1) at r={r} differs from the closed form"
        if got["expected"] != want:
            return f"library closed form d({n},1) at r={r} differs"
        return None

    return _guard(check)


def approx_problem(value: float, err: float, exact: Fraction, tol: float | None) -> str | None:
    """An ApproxReal must enclose the exact value; where tol is given, its err
    must also be at most tol * max(1, exact)."""
    if not (math.isfinite(value) and math.isfinite(err) and err >= 0):
        return f"value {value!r} err {err!r} not finite and nonnegative"
    if abs(Fraction(value) - exact) > Fraction(err):
        rel = float(abs(Fraction(value) - exact) / max(Fraction(1), abs(exact)))
        return f"err {err!r} does not enclose the exact value (relative error {rel:.3g})"
    if tol is not None and Fraction(err) > Fraction(tol) * max(Fraction(1), exact):
        return f"err {err!r} above tol * max(1, exact)"
    return None


def dobinski_checker(n: int, r: int, x: Fraction, tol: float):
    exact = evaluate(rbell_poly(n, r), x)

    def check(stdout):
        got = _record(stdout, "dobinski", {"n": n, "r": r, "x": str(x), "tol": tol})
        return approx_problem(got["value"], got["err"], exact, tol)

    return _guard(check)


def integral_checker(n: int, r: int, tol: float):
    exact = Fraction(rbell_number(n, r))

    def check(stdout):
        got = _record(stdout, "integral", {"n": n, "r": r, "tol": tol})
        if got["nodes_used"] < 1:
            return f"nodes_used {got['nodes_used']}"
        return approx_problem(got["value"], got["err"], exact, None)

    return _guard(check)


# number of checks each verify suite reports
SUITE_CHECKS = {
    "definitions": 8,
    "recurrences": 6,
    "carlitz": 3,
    "transforms": 5,
    "cigler": 1,
    "dobinski": 1,
    "integral": 3,
    "ogf": 2,
    "kummer": 1,
    "roots": 1,
    "maxindex": 1,
    "oracle": 2,
}

_SUMMARY_RE = re.compile(r"^(\d+) passed, (\d+) known-errata, (\d+) failed$")


def erratum_line() -> str:
    """The cross-r erratum line, with B_{2,2} and the printed form's value at
    (n=2, r=2, x=1), B_{2,1} - B_{1,1}, computed here."""
    b22 = rbell_number(2, 2)
    printed = rbell_number(2, 1) - rbell_number(1, 1)
    return (
        f"cross-r-printed-form: KNOWN-ERRATUM (the commonly printed simplified "
        f"recurrence gives {printed} at (n=2, r=2, x=1) where the table value is "
        f"{b22}; the corrected division form agrees everywhere)"
    )


def verify_checker(suite: str):
    """Exit 0, every check PASS except the cross-r erratum, and a summary that
    matches the lines."""
    suites = list(SUITE_CHECKS) if suite == "all" else [suite]
    n_checks = sum(SUITE_CHECKS[s] for s in suites)
    errata = [erratum_line()] if "recurrences" in suites else []

    def check(stdout):
        lines = stdout.splitlines()
        if len(lines) != n_checks + 1:
            return f"{len(lines) - 1} check lines, expected {n_checks}"
        seen_errata = []
        for line in lines[:-1]:
            if line.endswith(": PASS"):
                continue
            if line in errata:
                seen_errata.append(line)
                continue
            return f"unexpected line: {line[:120]}"
        if seen_errata != errata:
            return "the cross-r KNOWN-ERRATUM line is missing"
        m = _SUMMARY_RE.match(lines[-1])
        want = (n_checks - len(errata), len(errata), 0)
        if not m or tuple(int(g) for g in m.groups()) != want:
            return f"summary {lines[-1]!r}"
        return None

    return _guard(check)
