"""Acceptance gate: one test per shipping criterion, with pinned tolerances
and runtime budgets.  Each test prints a single summary line."""

import math
import time
from fractions import Fraction

from rbell.algebra import IntPolynomial
from rbell.analytic import (
    _float_forms,
    cesaro_integral,
    dobinski_eval,
    egf_coeffs,
    kummer_residual,
    max_index,
    ogf_coefficient_pair,
    real_rootedness_report,
    sin_moment,
)
from rbell.bell import (
    carlitz_compositions,
    carlitz_inversions,
    cross_r_printed,
    cross_r_steps,
    rbell_number,
    rbell_poly,
    rbell_polys_from_bell,
    rbell_polys_rec,
    whitehead_steps,
)
from rbell.cli import main
from rbell.oracle import enumerate_restricted_partitions
from rbell.stirling import stirling2r
from rbell.transforms import cigler_d, hankel_transform_rbell
from rbell.verify import run_suite


def _report(label: str, started: float) -> None:
    print(f"{label}: PASS ({time.perf_counter() - started:.2f}s)")


def test_criterion_01_table_reproduction(capsys, reference_table):
    started = time.perf_counter()
    assert main(["table", "--nmax", "6", "--rmax", "6"]) == 0
    out = capsys.readouterr().out
    rows = [[int(cell) for cell in line.split()[1:]] for line in out.splitlines()[1:]]
    assert rows == reference_table
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 01 table-reproduction: PASS ({elapsed:.2f}s)")


def test_criterion_02_polynomial_table():
    started = time.perf_counter()
    for r in range(0, 7):
        closed = {
            0: [1],
            1: [r, 1],
            2: [r * r, 2 * r + 1, 1],
            3: [r**3, 3 * r * r + 3 * r + 1, 3 * r + 3, 1],
            4: [r**4, 4 * r**3 + 6 * r * r + 4 * r + 1, 6 * r * r + 12 * r + 7, 4 * r + 6, 1],
        }
        for n, want in closed.items():
            assert rbell_poly(n, r) == IntPolynomial(want), (n, r)
    _report("criterion 02 polynomial-table", started)


def test_criterion_03_route_agreement():
    started = time.perf_counter()
    for r in range(0, 9):
        direct = [rbell_poly(n, r) for n in range(13)]
        assert rbell_polys_rec(12, r) == direct, r
        assert rbell_polys_from_bell(12, r) == direct, r
        if r >= 1:
            assert cross_r_steps(12, r) == direct, r
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"criterion 03 route-agreement: PASS ({elapsed:.2f}s)")


def test_criterion_04_oracle_equivalence():
    started = time.perf_counter()
    spot = enumerate_restricted_partitions(2, 2)
    assert spot.by_blocks == {2: 4, 3: 5, 4: 1}
    assert spot.total == 10
    for r in range(0, 13):
        for n in range(0, 13 - r):
            counts = enumerate_restricted_partitions(n, r)
            assert counts.total == rbell_number(n, r), (n, r)
            for k in range(n + 1):
                assert counts.by_blocks.get(k + r, 0) == stirling2r(n + r, k + r, r), (n, r, k)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"criterion 04 oracle-equivalence: PASS ({elapsed:.2f}s)")


def test_criterion_05_carlitz_and_step_identities():
    started = time.perf_counter()
    for r in range(0, 7):
        for n in range(0, 13):
            compositions = carlitz_compositions(n, 12 - n, r)
            inversions = carlitz_inversions(n, 12 - n, r)
            for m in range(0, 13 - n):
                assert compositions[m] == rbell_number(n + m, r), (n, m, r)
                assert inversions[m] == rbell_number(n, r + m), (n, m, r)
                roundtrip = sum(
                    stirling2r(m + r, j + r, r) * inversions[j] for j in range(m + 1)
                )
                assert roundtrip == rbell_number(n + m, r), (n, m, r)
        steps = whitehead_steps(12, r)
        for n in range(0, 13):
            assert steps[n] == rbell_number(n + 1, r), (n, r)
    _report("criterion 05 carlitz-identities", started)


def test_criterion_06_hankel_transform():
    started = time.perf_counter()
    expected = [1, 1, 2, 12, 288, 34560]
    for r in range(0, 7):
        assert hankel_transform_rbell(r, 5) == expected, r
    _report("criterion 06 hankel-transform", started)


def test_criterion_07_cigler_determinants():
    started = time.perf_counter()
    for r in range(0, 5):
        for n in range(1, 6):
            for k in (0, 1):
                computed, expected = cigler_d(n, k, r)
                assert computed == expected, (n, k, r)
    _report("criterion 07 cigler-determinants", started)


def test_criterion_08_dobinski():
    started = time.perf_counter()
    ten = dobinski_eval(2, 2, 1, 1e-9)
    assert ten.encloses(10)
    for r in range(0, 7):
        for n in range(0, 16):
            for x in (Fraction(1, 2), Fraction(1), Fraction(2)):
                exact = rbell_poly(n, r)(x)
                approx = dobinski_eval(n, r, x, 1e-9)
                assert approx.encloses(exact), (n, r, x)
                assert Fraction(approx.err) <= Fraction(1, 10**9) * max(1, exact), (n, r, x)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"criterion 08 dobinski: PASS ({elapsed:.2f}s)")


def test_criterion_09_integral_representation():
    started = time.perf_counter()
    for r in range(0, 9):
        for n in range(1, 61):
            exact = rbell_number(n, r)
            quad = cesaro_integral(n, r, 1e-8)
            assert quad.value.encloses(exact), (n, r)
            assert quad.value.err <= 1e-8 * max(1, abs(quad.value.value)), (n, r)
    thetas = [i * math.pi / 53 for i in range(54)]
    for r in range(0, 5):
        for n in range(1, 9):
            for theta in thetas:
                cf, rf, _ = _float_forms(math.cos(theta), math.sin(theta), 1, r)
                sn = math.sin(n * theta)
                assert abs(cf * sn - rf * sn) <= 1e-12, (n, r, theta)
    for j in range(0, 7):
        for n in range(1, 7):
            got = sin_moment(j, n, 1e-9)
            target = (math.pi / 2) * j**n / math.factorial(n)
            assert abs(got.value - target) <= 1e-8, (j, n)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"criterion 09 integral-representation: PASS ({elapsed:.2f}s)")


def test_criterion_10_ogf_and_kummer():
    started = time.perf_counter()
    for m in range(0, 11):
        for r in range(0, 7):
            for z in (Fraction(1, 100), Fraction(1, 50), Fraction(1, 2 * (m + r + 1))):
                lhs, rhs = ogf_coefficient_pair(m, r, z)
                assert lhs == rhs, (m, r, z)
    tol = 1e-10
    for a in (Fraction(1, 2), Fraction(1), Fraction(2)):
        for b in (Fraction(3, 2), Fraction(2), Fraction(3)):
            for x in (Fraction(-2), Fraction(-1, 2), Fraction(1, 2), Fraction(2)):
                residual = kummer_residual(a, b, x, tol)
                assert residual.value <= residual.err + tol, (a, b, x)
    _report("criterion 10 ogf-and-kummer", started)


def test_criterion_11_egf_coefficients():
    started = time.perf_counter()
    for r in range(0, 7):
        for x in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3)):
            coeffs = egf_coeffs(12, r, x)
            for n, c in enumerate(coeffs):
                assert math.factorial(n) * c == rbell_poly(n, r)(x), (n, r, x)
    _report("criterion 11 egf-coefficients", started)


def test_criterion_12_real_rootedness():
    started = time.perf_counter()
    for n in range(1, 16):
        for r in range(1, 9):
            assert real_rootedness_report(n, r) == (n, n, False), (n, r)
        assert real_rootedness_report(n, 0) == (n, n - 1, True), n
    _report("criterion 12 real-rootedness", started)


def test_criterion_13_maximizing_index_bound():
    started = time.perf_counter()
    for n in range(1, 31):
        for r in range(0, 11):
            report = max_index(n, r)
            assert report.bound_holds, (n, r, report)
    _report("criterion 13 maximizing-index", started)


def test_criterion_14_erratum_is_reported():
    started = time.perf_counter()
    printed = cross_r_printed(2, 2)
    actual = rbell_poly(2, 2)
    assert printed(1) == 3
    assert actual(1) == 10
    assert printed != actual
    assert cross_r_steps(2, 2)[-1] == actual
    results = run_suite("recurrences", nmax=4, rmax=3)
    statuses = {check.name: check.status for check in results}
    assert statuses["cross-r-printed-form"] == "KNOWN-ERRATUM"
    assert statuses["route-agreement"] == "PASS"
    _report("criterion 14 erratum-report", started)
