"""Tests for the numeric-side routines: series, quadrature, roots, max index."""

import itertools
import math
import random
import sys
import time
from fractions import Fraction

import pytest

from rbell import analytic
from rbell.algebra import ApproxReal
from rbell.analytic import (
    cesaro_integral,
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
from rbell.bell import rbell_number, rbell_poly, rbell_table
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
                exact = rbell_poly(n, r)(x)
                got = dobinski_eval(n, r, x, 1e-9)
                assert got.encloses(exact)
                assert Fraction(got.err) <= Fraction(1, 10**9) * max(1, exact)


def test_dobinski_float_range():
    # the sum for n = 218 is about 1.7e307: near the float limit but inside it
    near = dobinski_series_sum(218, 0, 1, 1e-9)
    assert near.value > 1e307
    # the largest term alone is past the float range
    with pytest.raises(DomainError, match="exceeds the float range$"):
        dobinski_series_sum(200, 3, 5, 1e-12)
    # every term fits but the sum does not
    with pytest.raises(DomainError, match="exceeds the float range$"):
        dobinski_series_sum(219, 0, 1, 1e-9)


def test_dobinski_overflow_raised_while_summing():
    # every term x^k/k! fits, the sum e^710 does not; the partial sum passes
    # 2^1024 a few terms past the largest one, long before k_min = 2e * 710
    started = time.perf_counter()
    with pytest.raises(DomainError, match="exceeds the float range$"):
        dobinski_series_sum(0, 0, 710, 1e-9)
    assert time.perf_counter() - started < 0.5


def test_dobinski_at_huge_x_is_a_domain_error():
    # k_min = 2e * 1e305 terms would never be summed; the second term alone
    # is past the float range
    with pytest.raises(DomainError, match="exceeds the float range$"):
        dobinski_series_sum(1, 0, 10**305, 1e-9)


# e^x at 2^1023.6 to 2^1023.99
NEAR_FLOAT_MAX = {
    Fraction(1419, 2): "value=1.3549863193146328e+308, err=1.950359478583155e+290",
    Fraction(7097, 10): "value=1.6549840276801892e+308, err=5.801701909104757e+291",
    Fraction(70977, 100): "value=1.7749839095320576e+308, err=8.786175849726692e+291",
}


def test_series_just_below_the_float_maximum_return():
    # the partial sums come within a bit of 2^1024 without passing it, so the
    # overflow check must not fire
    for x, fields in NEAR_FLOAT_MAX.items():
        assert repr(dobinski_series_sum(0, 0, x, 1e-9)) == f"ApproxReal({fields})", x
        assert repr(hypergeom_1f1(1, 1, x, 1e-9)) == f"ApproxReal({fields})", x


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
    # without the partial-sum check, the final float conversion still raises DomainError
    monkeypatch.setattr(analytic, "_check_partial_sum", lambda *args: None)
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
                assert math.factorial(n) * c == rbell_poly(n, r)(x)


def test_egf_coeffs_of_exp_z():
    # x = 0, r = 1: the generating function is e^z
    assert egf_coeffs(3, 1, 0) == [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 6)]


def test_egf_coeffs_are_fractions():
    # x = 0, r = 0 makes every sum of the recurrence zero; it stays a Fraction
    for n_max, r, x in ((0, 0, 0), (6, 0, 0), (4, 2, 0), (6, 1, Fraction(-2, 3)), (3, 0, 2)):
        cs = egf_coeffs(n_max, r, x)
        assert len(cs) == n_max + 1
        assert all(type(c) is Fraction for c in cs)


def test_egf_matches_polynomials_at_negative_x():
    for r in range(0, 7):
        for x in (-1, Fraction(-1, 2), Fraction(-7, 3)):
            for n, c in enumerate(egf_coeffs(12, r, x)):
                assert math.factorial(n) * c == rbell_poly(n, r)(x)


def test_egf_coeffs_match_the_fraction_recurrence():
    # the recurrence n g_n = sum_k k f_k g_{n-k} on Fractions, as it ran before
    # it was carried on integer numerators
    def reference(n_max, r, x):
        xq = Fraction(x)
        kf = [Fraction(0), xq + r] + [xq / math.factorial(k - 1) for k in range(2, n_max + 1)]
        g = [Fraction(1)]
        for n in range(1, n_max + 1):
            g.append(Fraction(sum(kf[k] * g[n - k] for k in range(1, n + 1)), n))
        return g

    for r in range(17):
        for x in (0, Fraction(1, 2), 3, -1, Fraction(-7, 3), Fraction(5, 11)):
            got = egf_coeffs(30, r, x)
            assert got == reference(30, r, x), (r, x)
            assert all(type(c) is Fraction for c in got)


def test_egf_coeffs_multiplicative():
    # e^{f+g} = e^f e^g: the truncated product of two coefficient lists is the
    # list for the summed parameters
    rng = random.Random(7)
    for _ in range(25):
        order = rng.randrange(0, 11)
        x1, x2 = (Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2))
        r1, r2 = rng.randrange(0, 4), rng.randrange(0, 4)
        f, g = egf_coeffs(order, r1, x1), egf_coeffs(order, r2, x2)
        product = [sum(f[i] * g[n - i] for i in range(n + 1)) for n in range(order + 1)]
        assert product == egf_coeffs(order, r1 + r2, x1 + x2)


def test_egf_validation():
    with pytest.raises(DomainError):
        egf_coeffs(-1, 0, 1)
    with pytest.raises(DomainError):
        egf_coeffs(3, -1, 1)


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


def test_ogf_pair_matches_the_fraction_forms():
    # both sides as they were computed before integer numerators: Fraction
    # products for the left side and for the Pochhammer symbol on the right
    def reference(m, r, z):
        denom = Fraction(1)
        for j in range(r, m + r + 1):
            denom *= 1 - j * z
        poch = Fraction(1)
        for i in range(m):
            poch *= (r * z + z - 1) / z + i
        return z**m / denom, Fraction(-1, 1) / (r * z - 1) * Fraction((-1) ** m) / poch

    for m in range(31):
        for r in range(17):
            for z in (Fraction(1, 100), Fraction(1, 2 * (m + r + 1)), Fraction(-2, 3)):
                got = ogf_coefficient_pair(m, r, z)
                assert got == reference(m, r, z), (m, r, z)
                assert all(type(side) is Fraction for side in got)


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


def _hyp1f1_terminating(a: int, b: Fraction, x: Fraction) -> Fraction:
    # a a nonpositive integer: the series is a polynomial of degree -a in x
    total, term = Fraction(0), Fraction(1)
    for k in range(-a + 1):
        total += term
        term = term * (a + k) * x / ((b + k) * (k + 1))
    return total


def test_hypergeom_encloses_mpmath():
    mpmath = pytest.importorskip("mpmath")
    alphas = (-4, -1, 0, Fraction(-5, 2), Fraction(1, 3), 1, Fraction(7, 2))
    betas = (Fraction(-7, 2), Fraction(-1, 3), Fraction(1, 2), 1, Fraction(5, 2), 4)
    xs = (-200, -40, Fraction(-7, 2), -1, 0, Fraction(1, 3), 3, 40, 200)

    def mp(q):
        q = Fraction(q)
        return mpmath.mpf(q.numerator) / q.denominator

    with mpmath.workdps(80):
        for a, b, x in itertools.product(alphas, betas, xs):
            if Fraction(a).denominator == 1 and a <= 0:
                # mpmath's hyp1f1 cannot converge to an exact zero of the polynomial
                exact = mp(_hyp1f1_terminating(a, Fraction(b), Fraction(x)))
            else:
                exact = mpmath.hyp1f1(mp(a), mp(b), mp(x))
            for tol in (1e-6, 1e-12):
                got = hypergeom_1f1(a, b, x, tol)
                assert abs(mpmath.mpf(got.value) - exact) <= mpmath.mpf(got.err), (a, b, x, tol)


def test_hypergeom_long_exact_sum_is_fast_and_encloses():
    mpmath = pytest.importorskip("mpmath")
    # 1F1(1; 1; 700) = e^700, summed over more than 2800 terms
    started = time.perf_counter()
    got = hypergeom_1f1(1, 1, 700, 1e-9)
    assert time.perf_counter() - started < 0.5
    with mpmath.workdps(60):
        assert abs(mpmath.mpf(got.value) - mpmath.exp(700)) <= mpmath.mpf(got.err)


def test_hypergeom_stops_where_the_term_ratio_settles():
    mpmath = pytest.importorskip("mpmath")
    # the ratio 5000 / (10^6 + k) is below 1/2 from the first term on, so the
    # sum may stop after five terms, not 4|x| = 20,000
    started = time.perf_counter()
    got = hypergeom_1f1(1, 10**6, 5000, 1e-9)
    assert time.perf_counter() - started < 0.5
    with mpmath.workdps(60):
        exact = mpmath.hyp1f1(1, 10**6, 5000)
        assert abs(mpmath.mpf(got.value) - exact) <= mpmath.mpf(got.err)


def test_hypergeom_past_float_range_fails_fast():
    started = time.perf_counter()
    with pytest.raises(DomainError, match="float range"):
        hypergeom_1f1(1, 1, 710, 1e-9)
    assert time.perf_counter() - started < 0.5


def test_hypergeom_overflow_raised_while_summing():
    # a, b, x > 0: every term is positive, so the sum stops once a partial
    # sum passes 2^1024; summing until the terms fall below tol would take
    # seconds
    started = time.perf_counter()
    message = r"^1F1\(1; 1; 5000\) exceeds the float range$"
    with pytest.raises(DomainError, match=message):
        hypergeom_1f1(1, 1, 5000, 1e-9)
    assert time.perf_counter() - started < 0.1
    with pytest.raises(DomainError, match="exceeds the float range$"):
        hypergeom_1f1(Fraction(1, 3), Fraction(5, 2), 760, 1e-9)


@pytest.mark.parametrize(
    "a, x",
    [
        # the second term alone is past the float range
        (1, 10**306),
        # the terms grow by about a x / k = 1e10 / k, so the partial sums
        # pass 2^1024 within a few dozen terms
        (10**400, Fraction(1, 10**390)),
    ],
    ids=["x=1e306", "a=1e400"],
)
def test_hypergeom_with_huge_arguments_fails_fast(a, x):
    # the overflow check must fire long before the term ratio settles below
    # 1/2, past k = 2e306 and k = 1.4e5 here
    started = time.perf_counter()
    with pytest.raises(DomainError, match="exceeds the float range$"):
        hypergeom_1f1(a, 1, x, 1e-9)
    assert time.perf_counter() - started < 1.0


def test_hypergeom_with_huge_a_and_tiny_x_stops_at_once():
    # the terms shrink from the first on, by about a x / k^2 = 1e-400 / k^2,
    # so the sum may stop from k = 1 on, not only past |a - b| - b = 1e400
    started = time.perf_counter()
    result = hypergeom_1f1(10**400, 1, Fraction(1, 10**800), 1e-9)
    assert time.perf_counter() - started < 1.0
    assert result.encloses(1)


def test_hypergeom_bounds_x_where_no_partial_sum_check_acts():
    # unless a, b and x are all positive nothing cuts the sum short, and at
    # x = -5000 its terms fall below tol only past about e|x| = 13,600
    started = time.perf_counter()
    for a, b, x in [(1, 1, -5000), (Fraction(-1, 2), 1, 1001), (1, Fraction(-1, 2), 1001)]:
        with pytest.raises(DomainError, match=r"needs \|x\| <= 1000 unless a, b and x are all positive$"):
            hypergeom_1f1(a, b, x, 1e-9)
    assert time.perf_counter() - started < 0.1
    assert hypergeom_1f1(1, 1, -1000, 1e-9).encloses(0)  # e^-1000, below the smallest float


def test_hypergeom_conversion_backstop_when_not_predicted():
    # with a < 0 the partial-sum check is skipped; a sum past the float range
    # still fails at the final conversion
    with pytest.raises(DomainError, match=r"^1F1\(-1/2; 1; 760\) exceeds the float range$"):
        hypergeom_1f1(Fraction(-1, 2), 1, 760, 1e-9)


# 1F1(a; b; x) at every point with a, b, x > 0 that the kummer suite's grid
# evaluates, as computed before the overflow prediction was added
KUMMER_GRID_VALUES = {
    ("1/2", "3/2", "1/2"): "value=1.1949576618968596, err=2.5630025694293493e-11",
    ("1/2", "3/2", "2"): "value=2.3644538927934518, err=2.1057514692634463e-11",
    ("1/2", "2", "1/2"): "value=1.142406442846464, err=8.621349654169185e-12",
    ("1/2", "2", "2"): "value=1.9052621465512714, err=5.561736553204377e-12",
    ("1/2", "3", "1/2"): "value=1.091847582828628, err=3.630025788091933e-11",
    ("1/2", "3", "2"): "value=1.5161750470219888, err=5.730314093960545e-12",
    ("1", "3/2", "1/2"): "value=1.4106861346391544, err=6.324494788469853e-12",
    ("1", "3/2", "2"): "value=4.419719620450193, err=1.6759318214573843e-11",
    ("1", "2", "1/2"): "value=1.2974425413747313, err=4.892996455836781e-11",
    ("1", "2", "2"): "value=3.1945280494424595, err=4.094497075829591e-11",
    ("1", "3", "1/2"): "value=1.1897701655967852, err=8.155087761921048e-12",
    ("1", "3", "2"): "value=2.1945280494424595, err=4.094497075829591e-11",
    ("3/2", "2", "1/2"): "value=1.465927198562155, err=7.886535707888912e-12",
    ("3/2", "2", "2"): "value=4.977785591684577, err=2.1060015287654612e-11",
    ("2", "3/2", "1/2"): "value=1.9106861346407356, err=3.288708122208188e-12",
    ("2", "3/2", "2"): "value=11.549299051129672, err=3.4377928781988816e-11",
    ("2", "2", "1/2"): "value=1.6487212706873657, err=2.446502793343442e-11",
    ("2", "2", "2"): "value=7.389056098925864, err=8.620063277049715e-12",
    ("2", "3", "1/2"): "value=1.40511491719753, err=3.7639151843704256e-12",
    ("2", "3", "2"): "value=4.194528049460777, err=8.189188738800083e-12",
    ("5/2", "3", "1/2"): "value=1.5232085904626704, err=1.0111021935090383e-11",
    ("5/2", "3", "2"): "value=5.612872973865845, err=2.737772589449596e-11",
}


def test_hypergeom_values_unchanged_where_predicted():
    assert repr(hypergeom_1f1(1, 1, 709, 1e-9)) == (
        "ApproxReal(value=8.218407461554972e+307, err=1.955965507696277e+291)"
    )
    for (a, b, x), fields in KUMMER_GRID_VALUES.items():
        got = hypergeom_1f1(Fraction(a), Fraction(b), Fraction(x), 1e-10)
        assert repr(got) == f"ApproxReal({fields})", (a, b, x)


def test_kummer_residual():
    z = kummer_residual(1, 2, 0, 1e-10)
    assert z.value == 0.0
    for a, b, x in [(1, 2, 1), (Fraction(1, 2), Fraction(3, 2), 1), (2, 3, -2)]:
        res = kummer_residual(a, b, x, 1e-10)
        assert res.value <= res.err + 1e-10
    # 1F1 takes |x| <= 1000, but e^{-x} leaves the float range past x = -709
    assert kummer_residual(1, 1, -709, 1e-9) == (9.939017205294214e297, 2.7121333656325714e298)
    for x in (-710, -745, -1000):
        with pytest.raises(DomainError, match=f"at x = {x} exceeds the float range"):
            kummer_residual(1, 1, x, 1e-9)


# ---------------------------------------------------------------------------
# float conversion and error bounds in integers: bit for bit the Fraction
# formulas they replace


def _fraction_float_upper(q: Fraction) -> float:
    f = float(q)
    if Fraction(f) < q:
        f = math.nextafter(f, math.inf)
    return f


def _fraction_to_float(num, den, tail, what):
    total = Fraction(num, den)
    try:
        value = float(total)
        return ApproxReal(
            value, _fraction_float_upper(Fraction(tail, den) + abs(Fraction(value) - total))
        )
    except OverflowError:
        raise DomainError(f"{what} exceeds the float range") from None


def _fraction_times_exp_neg(s, x):
    xf = float(x)
    w = math.exp(-xf)
    value = s.value * w
    d = (Fraction(abs(xf)) + 4) * Fraction(23, 10**17)
    err = Fraction(w) * (Fraction(s.err) * (1 + d) + Fraction(abs(s.value)) * d)
    err += Fraction(math.ulp(value))
    return value, (err.numerator, err.denominator)


def _fraction_kummer_residual(a, b, x, tol):
    left = hypergeom_1f1(a, b, x, tol)
    right = hypergeom_1f1(Fraction(b) - Fraction(a), b, -Fraction(x), tol)
    lhs_value, lhs_err = _fraction_times_exp_neg(left, Fraction(x))
    value = abs(lhs_value - right.value)
    bound = Fraction(*lhs_err) + Fraction(right.err)
    bound += Fraction(math.ulp(max(value, abs(lhs_value))))
    return ApproxReal(value, _fraction_float_upper(bound))


def _outcome(call, *args):
    """(value, err) as hex strings, or the DomainError text."""
    try:
        got = call(*args)
    except DomainError as exc:
        return str(exc)
    return got.value.hex(), got.err.hex()


def _numeric_outcomes(kummer) -> list:
    rng = random.Random(21)
    xs = [Fraction(1, 3), Fraction(1, 2), 1, 2, Fraction(5, 2), Fraction(37, 4), Fraction(1, 1000)]
    tols = [0.5, 1e-3, 1e-9, 1e-12, 1e-15]
    out = []
    for _ in range(150):
        args = (rng.randrange(60), rng.randrange(12), rng.choice(xs), rng.choice(tols))
        out.append(_outcome(dobinski_eval, *args))
        out.append(_outcome(dobinski_series_sum, *args))
    # past the float range: a term, a sum, the second term, and e^-x times a
    # sum just inside
    for args in [(200, 3, 5, 1e-12), (219, 0, 1, 1e-9), (1, 0, 10**305, 1e-9), (0, 0, 709, 1e-9)]:
        out.append(_outcome(dobinski_eval, *args))
        out.append(_outcome(dobinski_series_sum, *args))
    avals = [Fraction(1, 2), 1, 2, Fraction(-3, 2), -2, Fraction(7, 3)]
    # b = -5/2 and -1/3 make the running denominator negative
    bvals = [Fraction(3, 2), 2, 3, Fraction(-5, 2), Fraction(-1, 3), Fraction(1, 7)]
    xvals = [-2, Fraction(-1, 2), Fraction(1, 2), 2, 10, -30, 0]
    for _ in range(150):
        args = (rng.choice(avals), rng.choice(bvals), rng.choice(xvals), rng.choice(tols[1:]))
        out.append(_outcome(hypergeom_1f1, *args))
        out.append(_outcome(kummer, *args))
    for args in [(1, 1, 710), (Fraction(-1, 2), 1, 760), (1, 1, 709), (1, 1, -1000)]:
        out.append(_outcome(hypergeom_1f1, *args, 1e-9))
    return out


def test_integer_conversion_matches_the_fraction_formulas(monkeypatch):
    got = _numeric_outcomes(kummer_residual)
    with monkeypatch.context() as m:
        m.setattr(analytic, "_to_float", _fraction_to_float)
        m.setattr(analytic, "_float_upper", lambda num, den: _fraction_float_upper(Fraction(num, den)))
        m.setattr(analytic, "_times_exp_neg", _fraction_times_exp_neg)
        want = _numeric_outcomes(_fraction_kummer_residual)
    assert got == want
    assert sum(isinstance(o, str) for o in got) >= 5  # the overflow cases ran


def test_float_upper_rounds_up_exactly():
    big = 2**200
    tiny = 2.0**-1074
    floats = [0.0, tiny, 3 * tiny, 2.0**-1022, 0.1, 1.0, 1 / 3, 1e300, 2.0**1023, sys.float_info.max]
    for f in floats:
        num, den = f.as_integer_ratio()
        assert analytic._float_upper(num, den) == f
        assert analytic._float_upper(7 * num, 7 * den) == f
        if f:  # one unit above f, far below half its ulp: the next float up
            assert analytic._float_upper(num * big + 1, den * big) == math.nextafter(f, math.inf)
    # subnormal ratios: 2^-1075 rounds to 0, 3 * 2^-1076 rounds up to 2^-1074
    for num, den in [(1, 2**1075), (3, 2**1076), (5, 2**1076), (1, 3 * 2**1070), (2**60 + 1, 2**1134)]:
        want = _fraction_float_upper(Fraction(num, den))
        assert analytic._float_upper(num, den) == want >= num / den
    # near 2^1023 and past the float maximum
    for num in [2**1023 - 1, 2**1023 + 1, 3 * 2**1022 + 1, 2**1024 - 2**970 - 1]:
        assert analytic._float_upper(num, 1) == _fraction_float_upper(Fraction(num))
    with pytest.raises(OverflowError):
        analytic._float_upper(2**1024, 1)


def test_encloses_is_exact_at_the_interval_ends():
    a = ApproxReal(1.5, 0.25)
    assert a.encloses(Fraction(7, 4)) and a.encloses(Fraction(5, 4))
    assert a.encloses(1.75) and a.encloses(1.25)
    assert not a.encloses(Fraction(7, 4) + Fraction(1, 10**30))
    assert not a.encloses(Fraction(5, 4) - Fraction(1, 10**30))
    assert not a.encloses(2) and ApproxReal(10.0, 0.5).encloses(10)
    exact_zero = ApproxReal(0.1, 0.0)
    assert exact_zero.encloses(0.1)
    assert not exact_zero.encloses(Fraction(1, 10))  # 0.1 is not the float 0.1
    assert not exact_zero.encloses(math.nextafter(0.1, 1.0))
    assert ApproxReal(-3.0, 0.0).encloses(-3) and not ApproxReal(-3.0, 0.0).encloses(3)
    ulp = ApproxReal(1.0, 2.0**-52)
    assert ulp.encloses(1.0 + 2.0**-52) and not ulp.encloses(math.nextafter(1.0 + 2.0**-52, 2.0))
    rng = random.Random(5)
    for _ in range(500):
        value = rng.uniform(-10, 10)
        err = rng.choice([0.0, rng.uniform(0, 1), 2.0**-1074])
        exact = rng.choice([
            Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**5)),
            rng.randrange(-11, 12),
            value + rng.choice([-err, err, 0.0]),
        ])
        want = abs(Fraction(value) - Fraction(exact)) <= Fraction(err)
        assert ApproxReal(value, err).encloses(exact) == want, (value, err, exact)


def test_cesaro_integral_examples():
    got = cesaro_integral(2, 2, 1e-8)
    assert got.value.encloses(10)
    assert got.value.err <= 1e-8 * 10
    assert got.nodes_used % 2 == 0 and got.nodes_used > 2
    one = cesaro_integral(1, 0, 1e-8)
    assert one.value.encloses(1)
    big = cesaro_integral(6, 6, 1e-6)
    assert big.value.encloses(163967)
    assert big.value.err <= 1e-6 * 163967
    # 2 * 180! / M is past the float range, so only the fixed-point pass runs
    assert cesaro_integral(180, 0, 1e-8).value.encloses(rbell_number(180, 0))


def test_cesaro_integral_needs_positive_n():
    with pytest.raises(DomainError):
        cesaro_integral(0, 2, 1e-8)
    with pytest.raises(DomainError):
        cesaro_integral(2, 2, -1.0)


def test_quadrature_limits_are_domain_errors():
    # no float result resolves a relative tolerance below 2^-50
    with pytest.raises(DomainError, match="2\\^-50"):
        cesaro_integral(2, 2, 1e-300)
    with pytest.raises(DomainError, match="2\\^-50"):
        sin_moment(2, 2, 2.0**-51)
    assert cesaro_integral(2, 2, 2.0**-50).value.encloses(10)
    # past the float range: the value (B_250 ~ 1e366), or the integrand's modulus e^{e + r}
    with pytest.raises(DomainError, match="float range"):
        cesaro_integral(250, 0, 1e-8)
    with pytest.raises(DomainError, match="float range"):
        cesaro_integral(1, 800, 1e-8)


def test_cesaro_integrand_forms_agree():
    thetas = [i * math.pi / 37 for i in range(38)]
    for n in range(1, 9):
        for r in range(0, 5):
            for theta in thetas:
                cf, rf, _ = analytic._float_forms(math.cos(theta), math.sin(theta), 1, r)
                sn = math.sin(n * theta)
                assert abs(cf * sn - rf * sn) <= 1e-12


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


def test_trapezoid_encloses_within_tolerance():
    # the certified err contains the exact value and meets tol * max(1, |value|),
    # on both routes: floats up to about n = 24, fixed point past that
    table = rbell_table(40, 8)
    for tol in (1e-6, 1e-9, 1e-12):
        for n, r in itertools.product(range(1, 41, 3), range(0, 9, 2)):
            got = cesaro_integral(n, r, tol).value
            assert got.encloses(table[r][n]), (n, r, tol)
            assert got.err <= tol * max(1.0, abs(got.value)), (n, r, tol)
        for j, n in itertools.product(range(0, 13, 3), range(1, 30, 4)):
            got = sin_moment(j, n, tol)
            # (pi/2) j^n / n! in floats, with a few ulp of its own rounding
            target = math.pi / 2 * j**n / math.factorial(n)
            assert abs(got.value - target) <= got.err + 1e-15 * target, (j, n, tol)
            assert got.err <= tol * max(1.0, abs(got.value)), (j, n, tol)


def test_trapezoid_nodes_used_is_the_rule_size(monkeypatch):
    # an M-node rule evaluates the even integrand at M/2 + 1 nodes of [0, pi]
    angles = []
    forms = analytic._float_forms

    def counting(c, s, a, b):
        angles.append(abs(math.atan2(s, c)))
        return forms(c, s, a, b)

    monkeypatch.setattr(analytic, "_float_forms", counting)
    fixed = []
    fixed_pass = analytic._fixed_pass
    monkeypatch.setattr(
        analytic, "_fixed_pass", lambda *args: fixed.append(args) or fixed_pass(*args)
    )
    for n, r in [(2, 2), (8, 4), (14, 9), (28, 1), (40, 6)]:
        angles.clear()
        fixed.clear()
        got = cesaro_integral(n, r, 1e-8)
        m_count = got.nodes_used
        assert m_count % 2 == 0 and m_count > n
        assert len(angles) == m_count // 2 + 1
        assert angles == pytest.approx([2 * math.pi * m / m_count for m in range(len(angles))])
        # the float route certifies through n = 24; past that fixed point takes over
        assert [args[3] for args in fixed] == ([] if n <= 24 else [m_count])


def test_fixed_point_exp_within_its_bound():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 300
    bits = 80
    rng = random.Random(12)
    for _ in range(300):
        part = rng.choice([1.0, math.e, 9.0, 33.0])
        x, y = (rng.randint(-int(part * 2**bits), int(part * 2**bits)) for _ in range(2))
        # real, purely imaginary and complex arguments take different loops
        x, y = rng.choice([(x, 0), (0, y), (x, y)])
        re, im = analytic._fx_exp(x, y, bits)
        exact = mpmath.exp(mpmath.mpc(x, y) / 2**bits) * 2**bits
        bound = analytic._fx_exp_err(part, bits) * max(1.0, float(abs(exact)) / 2**bits)
        assert abs(mpmath.mpc(re, im) - exact) <= bound, (x, y)
    pi = analytic._machin_pi(200)
    assert abs(mpmath.mpf(pi) - mpmath.pi * 2**200) <= 2


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
