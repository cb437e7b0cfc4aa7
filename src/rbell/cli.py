"""Command-line front end: compute values, print the number table, run
verification suites, and report approximations with their error bounds.

Scalar results are emitted as one-line JSON records with keys in the order
op, params, value.  Exact integers are serialized as decimal strings and
rationals as "p/q" so that big values never pass through floats; the only
floats printed are approximation values paired with their error bounds.
Exit codes: 0 success, 1 verification or consistency failure, 2 usage or
domain error.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from fractions import Fraction

from .analytic import cesaro_integral, dobinski_eval, max_index, real_rootedness_report
from .bell import rbell_number, rbell_poly, rbell_table
from .errors import ConvergenceError, DomainError, InconsistencyError
from .oracle import enumerate_restricted_partitions
from .stirling import stirling1r, stirling2r
from .transforms import hankel_transform_rbell
from .verify import SUITES, run_suite

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def _rational(text: str) -> Fraction:
    if not _RATIONAL_RE.match(text):
        raise argparse.ArgumentTypeError(
            f"expected an integer or P/Q rational, got {text!r}"
        )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


def _natural(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a natural number, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a natural number, got {text!r}")
    return value


def _emit(op: str, params: dict, value) -> None:
    print(json.dumps({"op": op, "params": params, "value": value}, separators=(",", ":")))


# ---------------------------------------------------------------------------
# handlers


def _cmd_table(args) -> int:
    rows = rbell_table(args.nmax, args.rmax)
    if args.format == "json":
        _emit(
            "table",
            {"nmax": args.nmax, "rmax": args.rmax},
            [[str(v) for v in row] for row in rows],
        )
        return 0
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["r/n"] + [str(n) for n in range(args.nmax + 1)])
        for r, row in enumerate(rows):
            writer.writerow([str(r)] + [str(v) for v in row])
        return 0
    cells = [["r\\n"] + [str(n) for n in range(args.nmax + 1)]]
    for r, row in enumerate(rows):
        cells.append([str(r)] + [str(v) for v in row])
    widths = [max(len(line[i]) for line in cells) for i in range(len(cells[0]))]
    for line in cells:
        print("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))
    return 0


def _cmd_bell(args) -> int:
    params = {"n": args.n, "r": args.r}
    if args.poly:
        value = list(rbell_poly(args.n, args.r).poly.coeffs)
    elif args.x is not None:
        params["x"] = str(args.x)
        value = str(rbell_poly(args.n, args.r).poly(args.x))
    else:
        value = str(rbell_number(args.n, args.r))
    _emit("bell", params, value)
    return 0


def _cmd_stirling(args) -> int:
    # stirling1r or stirling2r, read from the module globals at call time
    number = globals()[f"{args.command}r"](args.n, args.k, args.r)
    _emit(args.command, {"n": args.n, "k": args.k, "r": args.r}, str(number))
    return 0


def _cmd_hankel(args) -> int:
    values = hankel_transform_rbell(args.r, args.nmax)
    _emit("hankel", {"r": args.r, "nmax": args.nmax}, [str(v) for v in values])
    return 0


def _cmd_dobinski(args) -> int:
    approx = dobinski_eval(args.n, args.r, args.x, args.tol)
    _emit(
        "dobinski",
        {"n": args.n, "r": args.r, "x": str(args.x), "tol": args.tol},
        {"value": approx.value, "err": approx.err},
    )
    return 0


def _cmd_integral(args) -> int:
    quad = cesaro_integral(args.n, args.r, args.tol)
    _emit(
        "integral",
        {"n": args.n, "r": args.r, "tol": args.tol},
        {
            "value": quad.value.value,
            "err": quad.value.err,
            "nodes_used": quad.nodes_used,
        },
    )
    return 0


def _cmd_roots(args) -> int:
    report = real_rootedness_report(args.n, args.r)
    _emit(
        "roots",
        {"n": args.n, "r": args.r},
        {
            "degree": report.degree,
            "distinct_neg_roots": report.distinct_neg_roots,
            "root_at_zero": report.root_at_zero,
        },
    )
    return 0


def _cmd_maxindex(args) -> int:
    report = max_index(args.n, args.r)
    _emit(
        "maxindex",
        {"n": args.n, "r": args.r},
        {
            "maximizers": list(report.maximizers),
            "ratio_estimate": str(report.ratio_estimate),
            "bound_holds": report.bound_holds,
        },
    )
    return 0


def _cmd_oracle(args) -> int:
    counts = enumerate_restricted_partitions(args.n, args.r)
    _emit(
        "oracle",
        {"n": args.n, "r": args.r},
        {
            "total": str(counts.total),
            "by_blocks": {str(k): str(v) for k, v in sorted(counts.by_blocks.items())},
        },
    )
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite, args.nmax, args.rmax)
    failed = 0
    errata = 0
    for check in results:
        line = f"{check.name}: {check.status}"
        if check.detail:
            line += f" ({check.detail})"
        print(line)
        if check.status == "FAIL":
            failed += 1
        elif check.status == "KNOWN-ERRATUM":
            errata += 1
    passed = len(results) - failed - errata
    print(f"{passed} passed, {errata} known-errata, {failed} failed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbell",
        description="Exact r-Stirling and r-Bell computations with verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="print the r-Bell number table")
    p.add_argument("--nmax", type=_natural, default=6)
    p.add_argument("--rmax", type=_natural, default=6)
    p.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("bell", help="r-Bell number, polynomial, or evaluation")
    p.add_argument("-n", type=_natural, required=True)
    p.add_argument("-r", type=_natural, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--x", type=_rational, help="evaluate the polynomial at P/Q")
    group.add_argument("--poly", action="store_true", help="print coefficients low-to-high")
    p.set_defaults(handler=_cmd_bell)

    for command, kind in (("stirling2", "second"), ("stirling1", "first")):
        p = sub.add_parser(command, help=f"r-Stirling number of the {kind} kind")
        p.add_argument("-n", type=_natural, required=True)
        p.add_argument("-k", type=_natural, required=True)
        p.add_argument("-r", type=_natural, required=True)
        p.set_defaults(handler=_cmd_stirling)

    p = sub.add_parser("hankel", help="Hankel transform of the r-Bell sequence")
    p.add_argument("-r", type=_natural, required=True)
    p.add_argument("--nmax", type=_natural, required=True)
    p.set_defaults(handler=_cmd_hankel)

    p = sub.add_parser("dobinski", help="Dobinski-series evaluation with error bound")
    p.add_argument("-n", type=_natural, required=True)
    p.add_argument("-r", type=_natural, required=True)
    p.add_argument("--x", type=_rational, default=Fraction(1))
    p.add_argument("--tol", type=float, required=True)
    p.set_defaults(handler=_cmd_dobinski)

    p = sub.add_parser("integral", help="integral representation of B_{n,r}")
    p.add_argument("-n", type=_natural, required=True)
    p.add_argument("-r", type=_natural, required=True)
    p.add_argument("--tol", type=float, required=True)
    p.set_defaults(handler=_cmd_integral)

    p = sub.add_parser("roots", help="Sturm-certified root structure of B_{n,r}(x)")
    p.add_argument("-n", type=_natural, required=True)
    p.add_argument("-r", type=_natural, required=True)
    p.set_defaults(handler=_cmd_roots)

    p = sub.add_parser("maxindex", help="maximizing index of the r-Stirling row")
    p.add_argument("-n", type=_natural, required=True)
    p.add_argument("-r", type=_natural, required=True)
    p.set_defaults(handler=_cmd_maxindex)

    p = sub.add_parser("oracle", help="brute-force partition enumeration")
    p.add_argument("-n", type=_natural, required=True)
    p.add_argument("-r", type=_natural, required=True)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=tuple(SUITES) + ("all",), required=True)
    p.add_argument("--nmax", type=_natural, default=None)
    p.add_argument("--rmax", type=_natural, default=None)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InconsistencyError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
