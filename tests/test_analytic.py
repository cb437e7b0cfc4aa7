"""Tests for the numeric-side routines: series, quadrature, roots, max index."""

import math
import time
from fractions import Fraction

import pytest

from rbell import analytic
from rbell.analytic import (
    cesaro_integral,
    cesaro_integrand_forms,
    dobinski_eval,
    dobinski_series_sum,
    egf_coeffs,
    hypergeom_1f1,
    kummer_residual,
    max_index,
    ogf_coefficient_pair,
    real_rootedness_report,
    sin_moment,
)
from rbell.bell import rbell_number, rbell_poly
from rbell.errors import DomainError


def test_dobinski_examples():
    a = dobinski_eval(2, 2, 1, 1e-9)
    assert a.encloses(10)
    assert a.err <= 1e-8
    half = dobinski_eval(2, 2, Fraction(1, 2), 1e-9)
    assert half.encloses(Fraction(27, 4))
    for r in range(4):
        one = dobinski_eval(0, r, 1, 1e-9)
        assert one.encloses(1)


def test_dobinski_validation():
    with pytest.raises(DomainError):
        dobinski_eval(2, 2, 0, 1e-9)
    with pytest.raises(DomainError):
        dobinski_eval(2, 2, -1, 1e-9)
    with pytest.raises(DomainError):
        dobinski_eval(2, 2, 1, 0.0)
    with pytest.raises(DomainError):
        dobinski_eval(2, 2, 1, -1e-9)
    with pytest.raises(DomainError):
        dobinski_eval(2, 2, 1, math.inf)


def test_dobinski_series_sum_bare():
    # sum_k (k+2)^2 / k! = 10 e, so the bare sum must track 10 e
    raw = dobinski_series_sum(2, 2, 1, 1e-10)
    assert abs(raw.value - 10 * math.e) <= raw.err + 1e-10
    assert raw.err <= 1e-9 * 10


def test_dobinski_grid_error_contract():
    for r in range(0, 5):
        for n in range(0, 10):
            for x in (Fraction(1, 2), 1, 2):
                exact = rbell_poly(n, r).poly(x)
                got = dobinski_eval(n, r, x, 1e-9)
                assert got.encloses(exact)
                assert Fraction(got.err) <= Fraction(1, 10**9) * max(1, exact)


def test_dobinski_float_range():
    # the sum for n = 218 is about 1.7e307: near the float limit but inside it
    near = dobinski_series_sum(218, 0, 1, 1e-9)
    assert near.value > 1e307
    # predicted from the largest term, before any summation
    with pytest.raises(DomainError, match="float range: its term"):
        dobinski_series_sum(200, 3, 5, 1e-12)
    # every term fits but the sum does not: predicted from the terms near the largest
    with pytest.raises(DomainError, match="float range"):
        dobinski_series_sum(219, 0, 1, 1e-9)


def test_dobinski_overflow_predicted_before_summing():
    # every term x^k/k! fits, the sum e^710 does not; summing takes seconds
    started = time.perf_counter()
    with pytest.raises(DomainError, match="float range: its terms near"):
        dobinski_series_sum(0, 0, 710, 1e-9)
    assert time.perf_counter() - started < 0.5


def test_dobinski_long_exact_sum_is_fast_and_encloses():
    mpmath = pytest.importorskip("mpmath")
    # 3856 terms of x^k/k! summing to e^709, just inside the float range
    started = time.perf_counter()
    got = dobinski_series_sum(0, 0, 709, 1e-9)
    assert time.perf_counter() - started < 1.0
    with mpmath.workdps(60):
        exact = mpmath.exp(709)
        assert abs(mpmath.mpf(got.value) - exact) <= mpmath.mpf(got.err)
        assert mpmath.mpf(got.err) <= mpmath.mpf(1e-9) * exact


def test_dobinski_conversion_backstop(monkeypatch):
    # without the prediction, the final float conversion still raises DomainError
    monkeypatch.setattr(analytic, "_check_series_fits_float", lambda *args: None)
    with pytest.raises(DomainError, match="float range"):
        dobinski_series_sum(219, 0, 1, 1e-9)


def test_egf_coeffs():
    cs = egf_coeffs(3, 2, 1)
    assert [math.factorial(k) * c for k, c in enumerate(cs)] == [1, 3, 10, 37]
    assert egf_coeffs(2, 0, 0) == [Fraction(1), Fraction(0), Fraction(0)]
    for r in range(5):
        assert egf_coeffs(2, r, 0) == [Fraction(1), Fraction(r), Fraction(r * r, 2)]


def test_egf_matches_polynomials():
    for r in range(0, 7):
        for x in (0, Fraction(1, 2), 1, 3):
            cs = egf_coeffs(12, r, x)
            for n, c in enumerate(cs):
                assert math.factorial(n) * c == rbell_poly(n, r).poly(x)


def test_ogf_examples():
    lhs, rhs = ogf_coefficient_pair(0, 2, Fraction(1, 10))
    assert lhs == rhs == Fraction(5, 4)
    lhs, rhs = ogf_coefficient_pair(1, 0, Fraction(1, 3))
    assert lhs == rhs == Fraction(1, 2)


def test_ogf_closed_forms_agree():
    for m in range(0, 11):
        for r in range(0, 7):
            for z in (Fraction(1, 100), Fraction(1, 50), Fraction(1, 2 * (m + r + 1))):
                lhs, rhs = ogf_coefficient_pair(m, r, z)
                assert lhs == rhs


def test_ogf_rejects_poles_and_zero():
    with pytest.raises(DomainError):
        ogf_coefficient_pair(1, 2, 0)
    with pytest.raises(DomainError):
        ogf_coefficient_pair(1, 2, Fraction(1, 3))
    with pytest.raises(DomainError):
        ogf_coefficient_pair(4, 1, Fraction(1, 2))


def test_ogf_lhs_generates_stirling_column():
    # z^m / prod_{j=r..m+r}(1 - jz) is the OGF of n -> {n+r, m+r}_r; compare
    # Taylor coefficients extracted by exact finite differences of the
    # rational function against the recurrence values
    from rbell.stirling import stirling2r

    m, r = 2, 2
    # series of 1/(1-jz) products via explicit convolution up to order 6
    order = 6
    series = [Fraction(0)] * (order + 1)
    series[m] = Fraction(1)
    for j in range(r, m + r + 1):
        # multiply by 1/(1 - jz): prefix sums with ratio j
        out = [Fraction(0)] * (order + 1)
        for i in range(order + 1):
            out[i] = series[i] + (j * out[i - 1] if i else 0)
        series = out
    for n in range(order + 1):
        assert series[n] == stirling2r(n + r, m + r, r)


def test_hypergeom_examples():
    one = hypergeom_1f1(Fraction(1, 2), Fraction(3, 2), 0, 1e-12)
    assert one.value == 1.0 and one.err == 0.0
    e_val = hypergeom_1f1(1, 1, 1, 1e-13)
    assert abs(e_val.value - math.e) <= e_val.err + 1e-13
    em1 = hypergeom_1f1(1, 2, 1, 1e-13)
    assert abs(em1.value - (math.e - 1)) <= em1.err + 1e-13
    neg = hypergeom_1f1(1, 1, -1, 1e-13)
    assert abs(neg.value - math.exp(-1)) <= neg.err + 1e-13


def test_hypergeom_validation():
    with pytest.raises(DomainError):
        hypergeom_1f1(1, 0, 1, 1e-9)
    with pytest.raises(DomainError):
        hypergeom_1f1(1, -3, 1, 1e-9)
    with pytest.raises(DomainError):
        hypergeom_1f1(1, 2, 1, 0.0)
    # negative non-integer b is fine
    ok = hypergeom_1f1(1, Fraction(-1, 2), Fraction(1, 4), 1e-9)
    assert math.isfinite(ok.value)


def test_hypergeom_past_float_range_is_a_domain_error():
    # 1F1(1; 1; x) = e^x, past the float range from x = 710 on
    with pytest.raises(DomainError, match="float range"):
        hypergeom_1f1(1, 1, 710, 1e-9)


def test_kummer_residual():
    z = kummer_residual(1, 2, 0, 1e-10)
    assert z.value == 0.0
    for a, b, x in [(1, 2, 1), (Fraction(1, 2), Fraction(3, 2), 1), (2, 3, -2)]:
        res = kummer_residual(a, b, x, 1e-10)
        assert res.value <= res.err + 1e-10


def test_cesaro_integral_examples():
    got = cesaro_integral(2, 2, 1e-8)
    assert abs(got.value.value - 10) <= 1e-7
    assert got.nodes_used % 16 == 0 and (got.nodes_used // 16).bit_count() == 1
    one = cesaro_integral(1, 0, 1e-8)
    assert abs(one.value.value - 1) <= 1e-7
    big = cesaro_integral(6, 6, 1e-6)
    assert abs(big.value.value - 163967) <= 1e-6 * 163967 * 2


def test_cesaro_integral_needs_positive_n():
    with pytest.raises(DomainError):
        cesaro_integral(0, 2, 1e-8)
    with pytest.raises(DomainError):
        cesaro_integral(2, 2, -1.0)


def test_cesaro_integrand_forms_agree():
    thetas = [i * math.pi / 37 for i in range(38)]
    for n in range(1, 9):
        for r in range(0, 5):
            for theta in thetas:
                cf, rf = cesaro_integrand_forms(theta, n, r)
                assert abs(cf - rf) <= 1e-12


def test_sin_moment():
    zero = sin_moment(0, 3, 1e-10)
    assert abs(zero.value) <= zero.err + 1e-10
    half_pi = sin_moment(1, 1, 1e-10)
    assert abs(half_pi.value - math.pi / 2) <= half_pi.err + 1e-10
    for j in range(0, 7):
        for n in range(1, 7):
            got = sin_moment(j, n, 1e-9)
            expected = math.pi / 2 * j**n / math.factorial(n)
            assert abs(got.value - expected) <= 1e-8
    with pytest.raises(DomainError):
        sin_moment(2, 0, 1e-9)


def test_rootedness_examples():
    assert real_rootedness_report(2, 2) == (2, 2, False)
    assert real_rootedness_report(1, 0) == (1, 0, True)
    assert real_rootedness_report(3, 1) == (3, 3, False)
    with pytest.raises(DomainError):
        real_rootedness_report(0, 2)


def test_rootedness_structure():
    for n in range(1, 9):
        for r in range(0, 5):
            report = real_rootedness_report(n, r)
            assert report.degree == n
            if r >= 1:
                assert report == (n, n, False)
            else:
                assert report == (n, n - 1, True)


def test_rootedness_at_degree_40():
    assert real_rootedness_report(40, 0) == (40, 39, True)
    for r in range(1, 4):
        assert real_rootedness_report(40, r) == (40, 40, False)


def test_max_index_examples():
    rep = max_index(6, 0)
    assert rep.maximizers == (3,)
    assert rep.ratio_estimate == Fraction(674, 203)
    assert rep.bound_holds
    rep = max_index(1, 1)
    assert rep.maximizers == (1, 2)
    assert rep.ratio_estimate == Fraction(1, 2)
    assert rep.bound_holds
    rep = max_index(1, 0)
    assert rep.maximizers == (1,)
    assert rep.ratio_estimate == 1
    assert rep.bound_holds
    with pytest.raises(DomainError):
        max_index(0, 3)


def test_max_index_maximizers_consecutive():
    for n in range(1, 16):
        for r in range(0, 6):
            ks = max_index(n, r).maximizers
            assert len(ks) in (1, 2)
            assert all(b - a == 1 for a, b in zip(ks, ks[1:]))
            assert all(r <= k <= n + r for k in ks)


def test_max_index_tracks_ratio():
    # the unique coefficient maximizer sits within 1 of B_{n+1,r}/B_{n,r}-(r+1)
    for n in range(1, 21):
        for r in range(0, 7):
            rep = max_index(n, r)
            assert rep.bound_holds
            shifted = [k - r for k in rep.maximizers]
            assert any(abs(k - rep.ratio_estimate) < 1 for k in shifted)
