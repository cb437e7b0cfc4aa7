"""Tests for the command-line interface, driven in-process through main()."""

import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

import rbell.cli
from rbell.algebra import ApproxReal
from rbell.analytic import RootednessReport
from rbell.bell import rbell_table
from rbell.cli import COMMANDS, _natural, _rational, build_parser, main
from rbell.stirling import stirling2r, stirling2r_explicit
from rbell.verify import SUITES

GOLDEN = pathlib.Path(__file__).parent / "golden" / "table_6_6.json"
VERIFY_GOLDEN = pathlib.Path(__file__).parent / "golden" / "verify_all.txt"
VERIFY_SMALL_GOLDEN = pathlib.Path(__file__).parent / "golden" / "verify_all_n3_r2.txt"
# every suite but oracle, in registry order, at --nmax 14 --rmax 9
VERIFY_WIDE_GOLDEN = pathlib.Path(__file__).parent / "golden" / "verify_suites_n14_r9.txt"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bell_number_record(capsys):
    code, out, err = run(capsys, "bell", "-n", "2", "-r", "2")
    assert code == 0
    assert out == '{"op":"bell","params":{"n":2,"r":2},"value":"10"}\n'
    assert err == ""


def test_bell_poly_record(capsys):
    code, out, _ = run(capsys, "bell", "-n", "2", "-r", "2", "--poly")
    assert code == 0
    assert out == '{"op":"bell","params":{"n":2,"r":2},"value":[4,5,1]}\n'


def test_bell_eval_record(capsys):
    code, out, _ = run(capsys, "bell", "-n", "2", "-r", "2", "--x", "1/2")
    assert code == 0
    record = json.loads(out)
    assert record["params"]["x"] == "1/2"
    assert record["value"] == "27/4"


def test_bell_eval_negative_rational(capsys):
    code, out, _ = run(capsys, "bell", "-n", "3", "-r", "1", "--x", "-1")
    assert code == 0
    assert json.loads(out)["value"] == "-1"


def test_bell_eval_negative_fraction_needs_the_equals_form(capsys):
    # argparse reads a separate -1/2 as an option, and its help says so
    code, out, _ = run(capsys, "bell", "-n", "3", "-r", "1", "--x=-1/2")
    assert code == 0
    assert out == '{"op":"bell","params":{"n":3,"r":1,"x":"-1/2"},"value":"-9/8"}\n'
    code, out, err = run(capsys, "bell", "-n", "3", "-r", "1", "--x", "-1/2")
    assert (code, out) == (2, "")
    assert "argument --x: expected one argument" in err
    code, out, _ = run(capsys, "bell", "--help")
    assert code == 0
    assert "--x=-P/Q" in out


def test_poly_and_x_are_exclusive(capsys):
    code, _, err = run(capsys, "bell", "-n", "2", "-r", "2", "--poly", "--x", "1")
    assert code == 2
    assert "not allowed" in err


def test_stirling_records(capsys):
    code, out, _ = run(capsys, "stirling2", "-n", "4", "-k", "2", "-r", "2")
    assert code == 0
    assert out == '{"op":"stirling2","params":{"n":4,"k":2,"r":2},"value":"4"}\n'
    code, out, _ = run(capsys, "stirling1", "-n", "3", "-k", "2", "-r", "2")
    assert code == 0
    assert json.loads(out)["value"] == "2"


def test_hankel_record(capsys):
    code, out, _ = run(capsys, "hankel", "-r", "2", "--nmax", "2")
    assert code == 0
    assert json.loads(out)["value"] == ["1", "1", "2"]


# (nmax, rmax) grids at which each table format is checked against the
# whole table: empty rows and columns, the golden 7 x 7, and a wide table
TABLE_GRIDS = [(0, 0), (0, 7), (7, 0), (6, 6), (200, 40)]


def _table_cells(nmax, rmax):
    return [[str(v) for v in row] for row in rbell_table(nmax, rmax)]


def test_table_plain(capsys):
    code, out, _ = run(capsys, "table", "--nmax", "2", "--rmax", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["r\\n", "0", "1", "2"]
    assert lines[1].split() == ["0", "1", "1", "2"]
    assert lines[2].split() == ["1", "1", "2", "5"]
    for nmax, rmax in TABLE_GRIDS:
        code, out, _ = run(capsys, "table", "--nmax", str(nmax), "--rmax", str(rmax))
        assert code == 0
        rows = [line.split() for line in out.splitlines()]
        assert rows[0] == ["r\\n"] + [str(n) for n in range(nmax + 1)]
        assert rows[1:] == [[str(r)] + row for r, row in enumerate(_table_cells(nmax, rmax))]


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--nmax", "2", "--rmax", "1", "--format", "csv")
    assert code == 0
    assert out == "r/n,0,1,2\n0,1,1,2\n1,1,2,5\n"
    for nmax, rmax in TABLE_GRIDS:
        argv = ("table", "--nmax", str(nmax), "--rmax", str(rmax), "--format", "csv")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        lines = [",".join(["r/n"] + [str(n) for n in range(nmax + 1)])]
        lines += [",".join([str(r)] + row) for r, row in enumerate(_table_cells(nmax, rmax))]
        assert out == "\n".join(lines) + "\n", (nmax, rmax)


def test_table_json_matches_golden_bytes(capsys):
    code, out, _ = run(capsys, "table", "--nmax", "6", "--rmax", "6", "--format", "json")
    assert code == 0
    assert out.encode() == GOLDEN.read_bytes()
    # the streamed record is the one json.dumps makes of the whole table
    for nmax, rmax in TABLE_GRIDS:
        argv = ("table", "--nmax", str(nmax), "--rmax", str(rmax), "--format", "json")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        params = {"nmax": nmax, "rmax": rmax}
        record = {"op": "table", "params": params, "value": _table_cells(nmax, rmax)}
        assert out == json.dumps(record, separators=(",", ":")) + "\n", (nmax, rmax)


class _CharCount:
    """A stdout that keeps only the number of characters written to it."""

    chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_streamed_table_holds_one_row_at_a_time(monkeypatch, fmt):
    # the table's text is about 40 times its longest row; a command that
    # writes each row as it is made holds a few rows' worth at most
    longest = max(len(",".join(row)) for row in _table_cells(200, 40))
    sink = _CharCount()
    monkeypatch.setattr(sys, "stdout", sink)
    # a first call makes the one-time imports (argparse's locale) untraced
    assert main(["table", "--nmax", "0", "--rmax", "0", "--format", fmt]) == 0
    tracemalloc.start()
    try:
        code = main(["table", "--nmax", "200", "--rmax", "40", "--format", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.chars > 35 * longest
    assert peak < 8 * longest


def test_verify_all_matches_golden_bytes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all")
    assert code == 0
    assert out.encode() == VERIFY_GOLDEN.read_bytes()


def test_verify_small_grid_matches_golden_bytes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--nmax", "3", "--rmax", "2")
    assert code == 0
    assert out.encode() == VERIFY_SMALL_GOLDEN.read_bytes()


def test_verify_wide_grid_matches_golden_bytes(capsys):
    suites = [s for s in SUITES if s != "oracle"]
    out = ""
    for suite in suites:
        code, text, _ = run(capsys, "verify", "--suite", suite, "--nmax", "14", "--rmax", "9")
        assert code == 0, suite
        out += text
    assert out.encode() == VERIFY_WIDE_GOLDEN.read_bytes()


def test_table_plain_is_deterministic(capsys):
    _, first, _ = run(capsys, "table")
    _, second, _ = run(capsys, "table")
    assert first == second
    assert "163967" in first


def test_dobinski_record(capsys):
    code, out, _ = run(capsys, "dobinski", "-n", "2", "-r", "2", "--tol", "1e-9")
    assert code == 0
    record = json.loads(out)
    assert record["params"] == {"n": 2, "r": 2, "x": "1", "tol": 1e-9}
    assert abs(record["value"]["value"] - 10) <= 1e-7
    assert 0 <= record["value"]["err"] <= 1e-7


def test_integral_record(capsys):
    code, out, _ = run(capsys, "integral", "-n", "2", "-r", "2", "--tol", "1e-8")
    assert code == 0
    record = json.loads(out)
    assert abs(record["value"]["value"] - 10) <= 1e-6
    assert record["value"]["nodes_used"] >= 16


def test_roots_record(capsys):
    code, out, _ = run(capsys, "roots", "-n", "3", "-r", "1")
    assert code == 0
    assert json.loads(out)["value"] == {
        "degree": 3,
        "distinct_neg_roots": 3,
        "root_at_zero": False,
    }


def test_maxindex_record(capsys):
    code, out, _ = run(capsys, "maxindex", "-n", "6", "-r", "0")
    assert code == 0
    assert json.loads(out)["value"] == {
        "maximizers": [3],
        "ratio_estimate": "674/203",
        "bound_holds": True,
    }


def test_oracle_record(capsys):
    code, out, _ = run(capsys, "oracle", "-n", "2", "-r", "2")
    assert code == 0
    assert json.loads(out)["value"] == {
        "total": "10",
        "by_blocks": {"2": "4", "3": "5", "4": "1"},
    }


def test_oracle_guard_admits_its_limit(capsys):
    # n + r = 13 is the largest enumeration the guard allows
    code, out, err = run(capsys, "oracle", "-n", "13", "-r", "0")
    assert code == 0
    assert err == ""
    value = json.loads(out)["value"]
    assert value["total"] == "27644437"
    assert value["by_blocks"] == {str(k): str(stirling2r(13, k, 0)) for k in range(1, 14)}


def test_json_key_order(capsys):
    for argv in (
        ["bell", "-n", "1", "-r", "1"],
        ["stirling2", "-n", "2", "-k", "2", "-r", "1"],
        ["maxindex", "-n", "2", "-r", "1"],
    ):
        _, out, _ = run(capsys, *argv)
        assert out.startswith('{"op":"')
        assert out.index('"op"') < out.index('"params"') < out.index('"value"')


def test_verify_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "maxindex", "--nmax", "10", "--rmax", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(": PASS" in line for line in lines[:-1])
    assert lines[-1].endswith("passed, 0 known-errata, 0 failed")


def test_verify_reports_known_erratum(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "recurrences", "--nmax", "6", "--rmax", "4")
    assert code == 0
    assert "cross-r-printed-form: KNOWN-ERRATUM" in out
    assert "0 failed" in out.strip().splitlines()[-1]


def test_verify_all_suites(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--nmax", "6", "--rmax", "3")
    assert code == 0
    summary = out.strip().splitlines()[-1]
    assert "0 failed" in summary
    assert "1 known-errata" in summary


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "bell", "-n", "2")[0] == 2  # missing -r
    assert run(capsys, "bell", "-n", "2", "-r", "1", "--x", "1/0")[0] == 2
    assert run(capsys, "bell", "-n", "2", "-r", "1", "--x", "2.5")[0] == 2
    assert run(capsys, "bell", "-n", "-2", "-r", "1")[0] == 2
    assert run(capsys, "verify", "--suite", "nonsense")[0] == 2
    assert run(capsys, "wat")[0] == 2
    assert run(capsys)[0] == 2


def test_domain_errors_exit_2(capsys):
    code, _, err = run(capsys, "oracle", "-n", "10", "-r", "9")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "integral", "-n", "0", "-r", "2", "--tol", "1e-8")
    assert code == 2
    assert "error:" in err


def test_dobinski_overflow_exits_2(capsys):
    code, out, err = run(capsys, "dobinski", "-n", "200", "-r", "3", "--x", "5", "--tol", "1e-12")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "float range" in err
    assert "Traceback" not in err


# Argv past a documented limit: each must end in a typed error, not a traceback.
LIMIT_ARGVS = [
    # x = 1e305: the sum's second term alone is past the float range
    ["dobinski", "-n", "1", "-r", "0", "--tol", "1e-9", "--x", "1" + "0" * 305],
    # the integrand's modulus e^{e + r} is past the float range
    ["integral", "-n", "1", "-r", "800", "--tol", "1e-8"],
    # B_250 is about 1e366
    ["integral", "-n", "250", "-r", "0", "--tol", "1e-8"],
    # no float result resolves a relative tolerance below 2^-50
    ["integral", "-n", "2", "-r", "2", "--tol", "1e-300"],
]


@pytest.mark.parametrize("argv", LIMIT_ARGVS, ids=lambda argv: " ".join(argv)[:40])
def test_limits_exit_2_without_a_traceback(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


# Grids that once ended early: sin-moment's float n! past n = 170, and the
# ogf samples z = 1/50 and 1/100 once they are poles of the generating function.
@pytest.mark.parametrize("suite, nmax, checks", [("integral", 171, 3), ("ogf", 50, 2)])
def test_verify_past_float_factorials_and_sample_poles(capsys, suite, nmax, checks):
    code, out, err = run(capsys, "verify", "--suite", suite, "--nmax", str(nmax), "--rmax", "0")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == checks + 1
    assert all(line.endswith(": PASS") for line in lines[:-1])
    assert lines[-1] == f"{checks} passed, 0 known-errata, 0 failed"


def test_integral_encloses_r_plus_one_at_n_1(capsys):
    # B_{1,r} = r + 1; from r = 25 the forms' rounding once tripped the in-route check
    for r in range(31):
        code, out, _ = run(capsys, "integral", "-n", "1", "-r", str(r), "--tol", "1e-8")
        assert code == 0, r
        value = json.loads(out)["value"]
        assert ApproxReal(value["value"], value["err"]).encloses(r + 1), r


def test_large_indices_need_no_recursion(capsys):
    # these exceeded the recursion limit when rows were filled recursively;
    # each value is checked against a route that builds no r-Stirling row
    code, out, _ = run(capsys, "bell", "-n", "500", "-r", "1")
    assert code == 0
    assert json.loads(out)["value"] == str(rbell_table(501, 0)[0][501])  # B_{n,1} = B_{n+1}

    code, out, _ = run(capsys, "stirling2", "-n", "1200", "-k", "3", "-r", "1")
    assert code == 0
    assert json.loads(out)["value"] == str(stirling2r_explicit(1199, 2, 1))

    # [n, 3]_1 = [n, 3] = (n-1)!/2 (H_{n-1}^2 - H_{n-1}^(2)), harmonic numbers
    code, out, _ = run(capsys, "stirling1", "-n", "1200", "-k", "3", "-r", "1")
    assert code == 0
    h1 = sum(Fraction(1, i) for i in range(1, 1200))
    h2 = sum(Fraction(1, i * i) for i in range(1, 1200))
    expected = math.factorial(1199) * (h1 * h1 - h2) / 2
    assert expected.denominator == 1
    assert json.loads(out)["value"] == str(expected.numerator)


def test_values_past_the_str_digit_limit_print_in_full(capsys):
    # S(14300, 2) = 2^14299 - 1 has 4,305 digits, past the 4,300 that str(int)
    # allows by default; main lifts that limit only while the command runs
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    code, out, err = run(capsys, "stirling2", "-n", "14300", "-k", "2", "-r", "0")
    assert (code, err) == (0, "")
    value = json.loads(out)["value"]
    got = 0
    for i in range(0, len(value), 1000):  # chunks that int() reads under the limit
        chunk = value[i : i + 1000]
        got = got * 10 ** len(chunk) + int(chunk)
    assert len(value) == 4305 and got == 2**14299 - 1
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


def test_natural_past_the_str_digit_limit_names_the_limit(capsys):
    # argv is parsed under the limit, so a 4,401-digit -n is refused by name
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python has no int(str) digit limit")
    n = "1" + "0" * 4400
    code, out, err = run(capsys, "stirling2", "-n", n, "-k", "2", "-r", "0")
    assert (code, out) == (2, "")
    assert err.endswith(
        f"argument -n: expected a natural number of at most {limit} digits, got 4401 digits\n"
    )
    assert "Traceback" not in err


def test_startup_imports_no_dataclasses():
    # dataclasses pulls in inspect, ast and dis, about 20 ms of every start
    src = pathlib.Path(rbell.cli.__file__).parent.parent
    probe = "import sys, rbell.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout
    assert out == "[]\n"


def test_closed_stdout_exits_1_without_a_traceback():
    # the reader takes the first line (the JSON record is one line, so its
    # first 64 bytes) and closes the pipe, as `| head -1` does; the rest of a
    # 41 x 301 table would not fit in the pipe's buffer
    src = pathlib.Path(rbell.cli.__file__).parent.parent
    argv = [sys.executable, "-m", "rbell", "table", "--nmax", "300", "--rmax", "40"]
    for fmt, first in [("plain", b"r\\n"), ("csv", b"r/n,0,1,"), ("json", b'{"op":"table"')]:
        with subprocess.Popen(
            argv + ["--format", fmt], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)},
        ) as proc:
            head = proc.stdout.read(64) if fmt == "json" else proc.stdout.readline()
            assert head.startswith(first), fmt
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait()
        assert (code, err) == (1, b""), fmt


def test_module_entry_point():
    import rbell.__main__  # noqa: F401  (import must not run main when not __main__)


# Each argv ends in a help or usage exit.  main builds only the parser of the
# command argv[0] names, so it must print what the full parser prints.
PARSER_EXITS = [
    [], ["-h"], ["--help"], ["wat"], ["-x", "bell"],
    ["bell", "-n", "2", "-r", "2", "--poly", "--x", "1"],
    ["table", "--nmax"], ["table", "--format", "xml"], ["table", "extra"],
    ["bell", "-n", "2"], ["bell", "-n", "x", "-r", "1"],
    ["bell", "-n", "2", "-r", "2", "--bogus"],
    ["stirling2", "-n", "4", "-k", "2"], ["stirling2", "-n", "4", "-k", "q", "-r", "2"],
    ["stirling2", "-n", "4", "-k", "2", "-r", "2", "extra"],
    ["stirling1", "-n", "4", "-r", "2"], ["stirling1", "-n", "4", "-k", "-1", "-r", "2"],
    ["stirling1", "-n", "4", "-k", "2", "-r", "2", "--k", "3"],
    ["hankel", "-r", "2"], ["hankel", "-r", "2", "--nmax", "1.5"],
    ["hankel", "-r", "2", "--nmax", "2", "-n", "3"],
    ["dobinski", "-n", "2", "-r", "2"],
    ["dobinski", "-n", "2", "-r", "2", "--x", "1/0", "--tol", "1"],
    ["dobinski", "-n", "2", "-r", "2", "--tol", "1e-9", "zz"],
    ["integral", "-n", "2", "--tol", "1e-8"], ["integral", "-n", "2", "-r", "2", "--tol", "x"],
    ["integral", "-n", "2", "-r", "2", "--tol", "1e-8", "--x", "1"],
    ["roots", "-r", "1"], ["roots", "-n", "a", "-r", "1"],
    ["roots", "-n", "3", "-r", "1", "-k", "1"],
    ["maxindex", "-n", "3"], ["maxindex", "-n", "3", "-r", "-1"],
    ["maxindex", "-n", "3", "-r", "1", "x"],
    ["oracle", "-r", "1"], ["oracle", "-n", "3", "-r", "z"],
    ["oracle", "-n", "3", "-r", "1", "--poly"],
    ["verify"], ["verify", "--suite", "nonsense"], ["verify", "--suite", "all", "--wide"],
] + [[command.name, "--help"] for command in COMMANDS]


@pytest.mark.parametrize("argv", PARSER_EXITS, ids=" ".join)
def test_main_parses_like_the_full_parser(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    expected = (exit_info.value.code, *capsys.readouterr())
    assert run(capsys, *argv) == expected


def test_parser_exits_cover_every_command():
    names = {argv[0] for argv in PARSER_EXITS if argv}
    assert {command.name for command in COMMANDS} <= names


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    # the console script calls main() with no arguments
    monkeypatch.setattr("sys.argv", ["rbell", "stirling2", "-n", "4", "-k", "2", "-r", "2"])
    code = main()
    assert code == 0
    record = '{"op":"stirling2","params":{"n":4,"k":2,"r":2},"value":"4"}\n'
    assert capsys.readouterr().out == record


def test_commands_call_library_functions_through_module_globals(capsys, monkeypatch):
    # a wrapper installed in rbell.cli's globals must see every library call
    monkeypatch.setattr(rbell.cli, "stirling2r", lambda n, k, r: 1000 * n + 100 * k + r)
    code, out, _ = run(capsys, "stirling2", "-n", "4", "-k", "2", "-r", "2")
    assert code == 0
    assert json.loads(out)["value"] == "4202"
    report = RootednessReport(9, 8, True)
    monkeypatch.setattr(rbell.cli, "real_rootedness_report", lambda n, r: report)
    code, out, _ = run(capsys, "roots", "-n", "3", "-r", "1")
    assert code == 0
    assert out == (
        '{"op":"roots","params":{"n":3,"r":1},'
        '"value":{"degree":9,"distinct_neg_roots":8,"root_at_zero":true}}\n'
    )


# Fuzzed argv: token bounds keep every run small (n <= 12, r <= 6); the oracle
# command stays at n + r <= 10, and so does verify, whose grid is always given
# because its default grid costs about a second.
FUZZ_BOUNDS = {"-n": 12, "-k": 14, "-r": 6, "--nmax": 12, "--rmax": 6}
SMALL_BOUNDS = {"-n": 6, "-r": 4, "--nmax": 6, "--rmax": 4}
# none abbreviates a real option or asks for help
JUNK = ("extra", "--bogus", "-z", "--", "7")


def _flat(arguments):
    for argument in arguments:
        yield from argument if isinstance(argument, list) else [argument]


def _argv_strategy(st):
    def tokens(options, bound):
        """The valid and the invalid tokens for an option's value."""
        kind = options.get("type")
        if kind is _natural:
            return st.integers(0, bound).map(str), ["-1", "1.5", "x", ""]
        if kind is _rational:
            pq = st.tuples(st.integers(-9, 9), st.integers(1, 9)).map("{0[0]}/{0[1]}".format)
            return pq | st.integers(-9, 9).map(str), ["1/0", "2.5", "x"]
        if kind is float:
            return st.sampled_from(["1e-6", "1e-3", "0.5"]), ["0", "-1", "nan", "inf", "x"]
        return st.sampled_from(options["choices"]), ["nonsense"]

    @st.composite
    def argvs(draw):
        command = draw(st.sampled_from(COMMANDS))
        small = command.name in ("oracle", "verify")
        argv = [command.name]
        for flag, options in _flat(command.arguments):
            given = small and flag in ("--nmax", "--rmax")
            if not given and draw(st.integers(0, 9)) >= (9 if options.get("required") else 5):
                continue
            argv.append(flag)
            if options.get("action") != "store_true":
                bound = (SMALL_BOUNDS if small else FUZZ_BOUNDS).get(flag)
                valid, invalid = tokens(options, bound)
                # about one value in eight is invalid
                bad = draw(st.integers(0, 7)) == 7
                argv.append(draw(st.sampled_from(invalid) if bad else valid))
        if draw(st.integers(0, 9)) == 9:
            argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(JUNK)))
        return argv

    return argvs()


def test_fuzzed_argv_exits_cleanly(capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    records = {command.name for command in COMMANDS if command.value is not None}

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(_argv_strategy(st))
    def check(argv):
        code, out, _ = run(capsys, *argv)  # an exception out of main fails the test
        assert code in (0, 1, 2)
        if code == 0 and argv[0] in records:
            assert out.count("\n") == 1
            record = json.loads(out)
            assert list(record) == ["op", "params", "value"]
            assert record["op"] == argv[0]

    check()
