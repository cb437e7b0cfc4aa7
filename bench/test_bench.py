"""Tests of the benchmark's own checkers and aggregation.

    python3 -m pytest -q bench

Each checker is shown a real rbell output, which it must accept, and a
deliberately corrupted copy, which it must reject.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def cli(*argv: str) -> tuple[int, str]:
    from rbell.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def change_one_digit(text: str, index: int) -> str:
    """Replace the index-th digit of text with a different digit."""
    positions = [i for i, ch in enumerate(text) if ch.isdigit()]
    i = positions[index]
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1 :]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_table_checker_rejects_one_changed_digit(fmt):
    check = checks.table_checker(30, 6, fmt)
    code, out = cli("table", "--nmax", "30", "--rmax", "6", "--format", fmt)
    assert check(code, out) is None
    # a digit deep inside the last row, well past the headers
    corrupted = change_one_digit(out, -3)
    assert corrupted != out
    assert "differs" in check(code, corrupted)


def test_point_query_checkers_reject_one_changed_digit():
    cases = [
        (checks.bell_checker(40, 3, "number"), ("bell", "-n", "40", "-r", "3")),
        (checks.bell_checker(12, 2, "poly"), ("bell", "-n", "12", "-r", "2", "--poly")),
        (
            checks.bell_checker(10, 4, "x", Fraction(3, 7)),
            ("bell", "-n", "10", "-r", "4", "--x", "3/7"),
        ),
        (checks.stirling_checker(2, 30, 9, 2), ("stirling2", "-n", "30", "-k", "9", "-r", "2")),
        (checks.stirling_checker(1, 30, 9, 2), ("stirling1", "-n", "30", "-k", "9", "-r", "2")),
        (checks.hankel_checker(2, 8), ("hankel", "-r", "2", "--nmax", "8")),
    ]
    for check, argv in cases:
        code, out = cli(*argv)
        assert check(code, out) is None, argv
        assert check(code, change_one_digit(out, -2)) is not None, argv


def test_approx_checkers_reject_an_err_below_the_true_error():
    code, out = cli("dobinski", "-n", "20", "-r", "2", "--x", "3/2", "--tol", "1e-09")
    check = checks.dobinski_checker(20, 2, Fraction(3, 2), 1e-09)
    assert check(code, out) is None
    record = json.loads(out)
    exact = checks.evaluate(checks.rbell_poly(20, 2), Fraction(3, 2))
    true_error = abs(Fraction(record["value"]["value"]) - exact)
    assert true_error > 0
    record["value"]["err"] = float(true_error / 2)
    assert "does not enclose" in check(code, json.dumps(record))


def test_integral_checker_rejects_a_shrunk_err_and_accepts_a_good_one():
    code, out = cli("integral", "-n", "12", "-r", "3", "--tol", "1e-08")
    check = checks.integral_checker(12, 3, 1e-08)
    assert check(code, out) is None
    record = json.loads(out)
    true_error = abs(Fraction(record["value"]["value"]) - checks.rbell_number(12, 3))
    record["value"]["err"] = float(true_error / 2)
    assert "does not enclose" in check(code, json.dumps(record))


def test_integral_checker_flags_the_known_bad_enclosure():
    code, out = cli("integral", "-n", "40", "-r", "6", "--tol", "1e-08")
    assert "does not enclose" in checks.integral_checker(40, 6, 1e-08)(code, out)


def test_roots_checker_rejects_a_wrong_root_count():
    for r in (0, 3):
        code, out = cli("roots", "-n", "9", "-r", str(r))
        check = checks.roots_checker(9, r)
        assert check(code, out) is None
        record = json.loads(out)
        record["value"]["distinct_neg_roots"] -= 1
        assert "root structure" in check(code, json.dumps(record))


def test_maxindex_and_cigler_checkers():
    code, out = cli("maxindex", "-n", "40", "-r", "3")
    check = checks.maxindex_checker(40, 3)
    assert check(code, out) is None
    record = json.loads(out)
    record["value"]["maximizers"] = [k + 1 for k in record["value"]["maximizers"]]
    assert check(code, json.dumps(record)) is not None

    from rbell.transforms import cigler_d

    computed, expected = cigler_d(4, 1, 2)
    good = {"computed": list(computed.coeffs), "expected": list(expected.coeffs)}
    check = checks.cigler_checker(4, 2)
    assert check(0, json.dumps(good)) is None
    good["computed"][-1] += 1
    assert "closed form" in check(0, json.dumps(good))


def test_verify_checker_accepts_the_erratum_and_rejects_a_fail():
    code, out = cli("verify", "--suite", "recurrences")
    check = checks.verify_checker("recurrences")
    assert check(code, out) is None
    assert "where the table value is 10;" in checks.erratum_line()
    failing = out.replace("monic-shape: PASS", "monic-shape: FAIL (n=1, r=0)")
    assert "unexpected line" in check(code, failing)
    no_erratum = out.replace("KNOWN-ERRATUM", "PASS")
    assert check(code, no_erratum) is not None
    assert check(1, out) == "exit code 1"


def test_upper_quartile_of_rounds_on_fixed_samples():
    # rounds x operations; round 2 is a slow sample, rounds 4 and 5 fall in a
    # fast spell of the host
    samples = [
        [1.0, 10.0, 0.50],
        [2.0, 20.0, 1.50],
        [1.1, 11.0, 0.70],
        [0.6, 6.0, 0.30],
        [0.7, 7.0, 0.35],
    ]
    # the 4th of 5 sorted values: neither the slow sample nor the fast spell
    assert run.per_operation(samples) == [1.1, 11.0, 0.70]
    assert run.per_operation(samples, statistics.median) == [1.0, 10.0, 0.50]
    # with four rounds it interpolates a quarter of the way to the largest
    assert run.per_operation(samples[:4]) == pytest.approx([1.325, 13.25, 0.90])
    assert run.upper_quartile([0.25]) == 0.25
    rss = [[15.0, 40.0, 16.0]] * 5
    metrics = run.end_to_end(samples, rss, [0.2, 0.1, 0.3])
    assert metrics["work_s"] == pytest.approx(12.8)
    assert metrics["op_p50_ms"] == pytest.approx(1100.0)
    assert metrics["peak_rss_mb"] == 40.0
    assert metrics["setup_s"] == 0.2


def test_benchmark_json_lists_every_metric_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layers = run.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers


def test_workloads_repeat_for_a_seed():
    for name in workloads.WORKLOADS:
        ops_a = [op.name for op in workloads.build(name, 7)]
        ops_b = [op.name for op in workloads.build(name, 7)]
        assert ops_a == ops_b
    assert sum(op.known_fault is not None for op in workloads.build("numeric", 3)) == 2
