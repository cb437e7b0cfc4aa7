"""Command-line front end: compute values, print the number table, run
verification suites, and report approximations with their error bounds.

One table, COMMANDS, declares every subcommand once: its name, its help, its
arguments and the function that computes its value.  A record command prints
one JSON line with keys in the order op, params, value, where params are the
command's numeric arguments that are set.  Exact integers are serialized as
decimal strings and rationals as "p/q" so that big values never pass through
floats; the only floats printed are tolerances and approximation values
paired with their error bounds.  ``table`` and ``verify`` print their own
text; ``table --format json`` writes a record with the same head, one table
row at a time.

``main`` builds the parser of the command that argv[0] names and no other;
any other argv (help, none, an unknown command, a leading option) gets the
parser of every command.  No parser is cached across calls: a cache would
move the cost out of a call that is timed after a first parse rather than
remove it.  Value functions read library functions from this module's
globals when they run, so a wrapper installed there sees every call.

Exit codes: 0 success, 1 verification or consistency failure, or stdout
closed before the output was written (as by ``| head``), 2 usage or domain
error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from .analytic import cesaro_integral, dobinski_eval, max_index, real_rootedness_report
from .bell import rbell_number, rbell_poly, rbell_table_rows
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
        # argv is parsed under the digit limit of int(str) (Python 3.10.7 on)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        digits = text.strip().lstrip("+").replace("_", "")
        if limit and len(digits) > limit and digits.isdecimal():
            raise argparse.ArgumentTypeError(
                f"expected a natural number of at most {limit} digits, got {len(digits)} digits"
            ) from None
        raise argparse.ArgumentTypeError(f"expected a natural number, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a natural number, got {text!r}")
    return value


# a record's params: the arguments of these names that are set, in this order
_PARAMS = ("n", "k", "r", "x", "tol", "nmax", "rmax")


def _head(args) -> str:
    """A record's text up to its value: the op, then the params that are set."""
    params = {}
    for name in _PARAMS:
        given = getattr(args, name, None)
        if given is not None:
            params[name] = str(given) if isinstance(given, Fraction) else given
    record = json.dumps({"op": args.command, "params": params}, separators=(",", ":"))
    return record[:-1] + ',"value":'


def _emit(args, value) -> int:
    print(_head(args) + json.dumps(value, separators=(",", ":")) + "}")
    return 0


# ---------------------------------------------------------------------------
# commands


def _table(args) -> int:
    # json and csv write each row as the walk makes it, so the table is never
    # held whole; every cell is a decimal string, which JSON needs no escape for
    rows = rbell_table_rows(args.nmax, args.rmax)
    write = sys.stdout.write
    if args.format == "json":
        write(_head(args) + "[")
        for r, row in enumerate(rows):
            write(("," if r else "") + '["' + '","'.join(map(str, row)) + '"]')
        write("]}\n")
        return 0
    header = [str(n) for n in range(args.nmax + 1)]
    if args.format == "csv":
        write(",".join(["r/n"] + header) + "\n")
        for r, row in enumerate(rows):
            write(f"{r}," + ",".join(map(str, row)) + "\n")
        return 0
    # aligned text needs every cell before the first line, for the column widths
    cells = [["r\\n"] + header] + [[str(r), *map(str, row)] for r, row in enumerate(rows)]
    widths = [max(map(len, column)) for column in zip(*cells)]
    for line in cells:
        print("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))
    return 0


def _verify(args) -> int:
    results = run_suite(args.suite, args.nmax, args.rmax)
    for check in results:
        print(f"{check.name}: {check.status}" + (f" ({check.detail})" if check.detail else ""))
    failed = sum(check.status == "FAIL" for check in results)
    errata = sum(check.status == "KNOWN-ERRATUM" for check in results)
    print(f"{len(results) - failed - errata} passed, {errata} known-errata, {failed} failed")
    return 1 if failed else 0


def _bell(args):
    if args.poly:
        return list(rbell_poly(args.n, args.r).coeffs)
    if args.x is not None:
        return str(rbell_poly(args.n, args.r)(args.x))
    return str(rbell_number(args.n, args.r))


def _dobinski(args) -> dict:
    approx = dobinski_eval(args.n, args.r, args.x, args.tol)
    return {"value": approx.value, "err": approx.err}


def _integral(args) -> dict:
    quad = cesaro_integral(args.n, args.r, args.tol)
    return {"value": quad.value.value, "err": quad.value.err, "nodes_used": quad.nodes_used}


def _maxindex(args) -> dict:
    report = max_index(args.n, args.r)
    return {
        "maximizers": list(report.maximizers),
        "ratio_estimate": str(report.ratio_estimate),
        "bound_holds": report.bound_holds,
    }


def _oracle(args) -> dict:
    counts = enumerate_restricted_partitions(args.n, args.r)
    return {
        "total": str(counts.total),
        "by_blocks": {str(k): str(v) for k, v in sorted(counts.by_blocks.items())},
    }


class Command(NamedTuple):
    """One subcommand.  Each argument is a (flag, add_argument options)
    pair, or a list of them that form a mutually exclusive group."""

    name: str
    help: str
    arguments: tuple
    value: Callable | None = None  # args -> the value of the command's one record
    run: Callable | None = None  # args -> exit code, for a command printing its own text


_NATURAL = {"type": _natural, "required": True}
_N, _K, _R = ("-n", _NATURAL), ("-k", _NATURAL), ("-r", _NATURAL)
_TOL = ("--tol", {"type": float, "required": True})

COMMANDS = (
    Command("table", "print the r-Bell number table", (
        ("--nmax", {"type": _natural, "default": 6}),
        ("--rmax", {"type": _natural, "default": 6}),
        ("--format", {"choices": ("plain", "csv", "json"), "default": "plain"}),
    ), run=_table),
    Command("bell", "r-Bell number, polynomial, or evaluation", (_N, _R, [
        ("--x", {"type": _rational, "help": (
            "evaluate the polynomial at P/Q; write a negative fraction as --x=-P/Q")}),
        ("--poly", {"action": "store_true", "help": "print coefficients low-to-high"}),
    ]), _bell),
    Command("stirling2", "r-Stirling number of the second kind", (_N, _K, _R),
            lambda args: str(stirling2r(args.n, args.k, args.r))),
    Command("stirling1", "r-Stirling number of the first kind", (_N, _K, _R),
            lambda args: str(stirling1r(args.n, args.k, args.r))),
    Command("hankel", "Hankel transform of the r-Bell sequence", (_R, ("--nmax", _NATURAL)),
            lambda args: [str(v) for v in hankel_transform_rbell(args.r, args.nmax)]),
    Command("dobinski", "Dobinski-series evaluation with error bound",
            (_N, _R, ("--x", {"type": _rational, "default": Fraction(1)}), _TOL), _dobinski),
    Command("integral", "integral representation of B_{n,r}", (_N, _R, _TOL), _integral),
    Command("roots", "Sturm-certified root structure of B_{n,r}(x)", (_N, _R),
            lambda args: real_rootedness_report(args.n, args.r)._asdict()),
    Command("maxindex", "maximizing index of the r-Stirling row", (_N, _R), _maxindex),
    Command("oracle", "brute-force partition enumeration", (_N, _R), _oracle),
    Command("verify", "run a verification suite", (
        ("--suite", {"choices": tuple(SUITES) + ("all",), "required": True}),
        ("--nmax", {"type": _natural, "default": None}),
        ("--rmax", {"type": _natural, "default": None}),
    ), run=_verify),
)


# ---------------------------------------------------------------------------
# parser and entry point


def _add_arguments(parser, arguments) -> None:
    for argument in arguments:
        if isinstance(argument, list):
            _add_arguments(parser.add_mutually_exclusive_group(), argument)
        else:
            flag, options = argument
            parser.add_argument(flag, **options)


def build_parser(commands=COMMANDS) -> argparse.ArgumentParser:
    """The parser of the given commands, by default all of them."""
    parser = argparse.ArgumentParser(
        prog="rbell",
        description="Exact r-Stirling and r-Bell computations with verification suites.",
    )
    # The usage line an error prints names every command, also when only some
    # are built.  The full parser leaves the metavar unset, because an unknown
    # command's error names the argument by its metavar when there is one.
    every = "{" + ",".join(command.name for command in COMMANDS) + "}"
    metavar = None if len(commands) == len(COMMANDS) else every
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for command in commands:
        p = sub.add_parser(command.name, help=command.help)
        _add_arguments(p, command.arguments)
        p.set_defaults(spec=command)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    named = [command for command in COMMANDS if argv[:1] == [command.name]]
    try:
        args = build_parser(named or COMMANDS).parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    command = args.spec
    # Exact values may pass the 4,300 digits that str(int) allows by default
    # (Python 3.10.7 on); the limit is lifted while the command runs only,
    # so argv is parsed under it.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        if limit:
            sys.set_int_max_str_digits(0)
        code = command.run(args) if command.run else _emit(args, command.value(args))
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader is gone; what is still buffered goes to the null device
        # so the interpreter's final flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InconsistencyError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
