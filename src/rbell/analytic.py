"""Numeric-side verification: Dobinski sums, generating-function coefficients,
confluent hypergeometric series with Kummer's transformation, the Cesaro-type
integral representation, Sturm-certified root structure, and the
maximizing-index bound.

Each numeric scheme is written once:

- The Dobinski and 1F1 series are summed exactly as one integer numerator
  over a running common denominator, stopped by an exact comparison of
  cross-multiplied integers, and converted to float only at the very end
  (`_to_float`), so the reported error bound is a provable geometric tail
  bound plus the exactly computed float representation error.
- The e^{-x} factors of `dobinski_eval` and `kummer_residual` share one
  error-propagation block (`_times_exp_neg`), which relies on libm's exp
  being within a few ulp.
- Both series predict an overflow of the float range before summing, from
  a log-sum-exp over the terms around the largest one, when every term is
  positive (`_check_log_concave_sum`); otherwise the final conversion finds
  it.
- `egf_coeffs` runs the exponential recurrence on integer numerators over
  n! q^n, for x = p/q.
- `cesaro_integral` and `sin_moment` share one Simpson doubling loop
  (`_simpson_refinements`); each keeps only its stopping rule.  The
  quadrature error is estimated from successive refinements, not certified.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .algebra import ApproxReal, pochhammer, sturm_root_count
from .bell import rbell_number, rbell_poly
from .errors import ConvergenceError, DomainError, InconsistencyError
from .stirling import _check_natural, stirling_row

# rational upper bound for 2e, used by the Dobinski stopping rule
_TWO_E_UPPER = Fraction(543657, 100000)

_LOG_FLOAT_MAX = math.log(sys.float_info.max)

# relative slack allowed to one libm exp call plus float argument conversion
def _exp_rel_bound(xf: float) -> Fraction:
    return (Fraction(abs(xf)) + 4) * Fraction(23, 10**17)


def _float_upper(q: Fraction) -> float:
    """Smallest float >= q (q nonnegative)."""
    f = float(q)
    if Fraction(f) < q:
        f = math.nextafter(f, math.inf)
    return f


def _to_float(total: Fraction, tail: Fraction, what: str) -> ApproxReal:
    """total rounded to a float, its err the tail bound plus the exact rounding
    error; a total past the float range raises DomainError naming what."""
    try:
        value = float(total)
        return ApproxReal(value, _float_upper(tail + abs(Fraction(value) - total)))
    except OverflowError:
        raise DomainError(f"{what} exceeds the float range") from None


def _times_exp_neg(s: ApproxReal, x: Fraction) -> tuple[float, Fraction]:
    """e^{-x} s as a float, with an exact bound on its error: the error of s
    scaled by e^{-x}, the slack of libm's exp, and the product's rounding."""
    xf = float(x)
    w = math.exp(-xf)
    value = s.value * w
    d = _exp_rel_bound(xf)
    err = Fraction(w) * (Fraction(s.err) * (1 + d) + Fraction(abs(s.value)) * d)
    return value, err + Fraction(math.ulp(value))


def _check_tol(tol: float) -> Fraction:
    if not (isinstance(tol, (int, float)) and math.isfinite(tol)) or tol <= 0:
        raise DomainError(f"tolerance must be a positive finite number, got {tol!r}")
    return Fraction(tol)


# ---------------------------------------------------------------------------
# Dobinski's formula


def dobinski_series_sum(n: int, r: int, x, tol: float) -> ApproxReal:
    """The bare series sum_k (k+r)^n x^k / k! with a certified error bound.

    Terms are accumulated exactly; summation continues until the index passes
    max(n+r, ceil(2 e x)), beyond which the term ratio is provably <= 1/2,
    and the geometric tail bound 2 t_{K+1} has dropped below
    tol/4 * max(1, partial sum).  err is that tail bound plus the exact float
    representation error of the returned value.

    With x = p/q, the partial sum through index k is kept as one integer
    numerator over the common denominator q^k k!, so no step pays for a gcd,
    and the stopping test is an exact comparison of cross-multiplied integers.
    """
    _check_natural(n=n, r=r)
    tol_f = _check_tol(tol)
    xq = Fraction(x)
    if xq <= 0:
        raise DomainError("dobinski evaluation needs x > 0")

    k_min = max(n + r, math.ceil(_TWO_E_UPPER * xq))
    what = f"the Dobinski sum at (n={n}, r={r}, x={xq})"
    _check_series_fits_float(n, r, xq, k_min - 1, what)
    p, q = xq.numerator, xq.denominator
    tol_num, tol_den = tol_f.numerator, tol_f.denominator
    num, den, p_pow = r**n, 1, 1  # partial sum num / den through k = 0
    k = 0
    while True:
        p_pow *= p
        den *= q * (k + 1)
        num *= q * (k + 1)
        term = (k + 1 + r) ** n * p_pow  # t_{k+1} = term / den
        # 8 t_{k+1} <= tol * max(1, partial sum), both sides times den * tol_den
        if k + 1 >= k_min and 8 * term * tol_den <= tol_num * max(den, num):
            break
        num += term
        k += 1

    return _to_float(Fraction(num, den), Fraction(2 * term, den), what)


def _check_series_fits_float(n: int, r: int, xq: Fraction, k_last: int, what: str) -> None:
    """Raise DomainError before summing when the Dobinski series through index
    k_last is certain to exceed the float range.  Its terms
    t_k = (k+r)^n x^k / k! are positive and log t_k is concave in k."""
    log_x = math.log(xq.numerator) - math.log(xq.denominator)

    def log_term(k: int) -> float:
        return n * math.log(k + r) + k * log_x - math.lgamma(k + 1)

    def size(k: int) -> float:
        return n * math.log(k + r) + k * abs(log_x) + math.lgamma(k + 1)

    # k + r >= 1 throughout: t_0 = 0^n is skipped when r = 0
    first = 1 if r == 0 else 0
    _check_log_concave_sum(log_term, size, first, max(first, k_last), what)


def _check_log_concave_sum(log_term, size, first: int, last: int, what: str) -> None:
    """Raise DomainError naming what when the sum of the positive terms t_k,
    k = first..last, is certain to exceed the float range.

    log_term(k) is log t_k in floats, its increments nonincreasing in k, and
    size(k) bounds the magnitudes of the logs it combines.  A partial sum is
    at least the sum of any of its terms.  A bisection on the sign of
    log t_{k+1} - log t_k finds the largest term among first..last, and the
    terms within a factor e^-40 of it are the consecutive ones around it;
    their log-sum-exp bounds the log of the sum from below.  Leaving terms
    out only lowers that bound, so float error in the search cannot make the
    test unsound.  The final comparison allows a relative slack of 1e-6 on
    the size of log t_k, far above the error of the log, lgamma and exp calls
    behind it, so a sum that fits in a float is never rejected.
    """
    lo, hi = first, last
    while lo < hi:
        mid = (lo + hi) // 2
        if log_term(mid + 1) > log_term(mid):
            lo = mid + 1
        else:
            hi = mid
    k = lo
    peak = log_term(k)
    slack = 1e-6 * (1 + size(k))
    scaled = [1.0]  # t_j / t_k for the terms j near k
    # The walk can only change the verdict when t_k fits but the sum through
    # last, at most (last - first + 1) t_k, might not; in that band the
    # terms within e^-40 of t_k span a few hundred indices at most.
    if _LOG_FLOAT_MAX - math.log(last - first + 1) < peak <= _LOG_FLOAT_MAX + slack:
        for step in (-1, 1):
            j = k + step
            while first <= j <= last:
                gap = log_term(j) - peak
                if gap < -40:
                    break
                scaled.append(math.exp(gap))
                j += step
    log_sum = peak + math.log(math.fsum(scaled))
    if log_sum > _LOG_FLOAT_MAX + slack:
        raise DomainError(
            f"{what} exceeds the float range: "
            f"its terms near k={k} alone sum to about e^{log_sum:.1f}"
        )


def dobinski_eval(n: int, r: int, x, tol: float) -> ApproxReal:
    """B_{n,r}(x) by Dobinski's formula e^{-x} sum_k (k+r)^n x^k / k!.

    The reported err covers the series tail, all float representation errors,
    and the e^{-x} multiplication; it stays below tol * max(1, B_{n,r}(x))
    at the tolerances the acceptance grid uses.
    """
    value, err = _times_exp_neg(dobinski_series_sum(n, r, x, tol), Fraction(x))
    return ApproxReal(value, _float_upper(err))


# ---------------------------------------------------------------------------
# generating functions


def egf_coeffs(n_max: int, r: int, x) -> list[Fraction]:
    """Exact Taylor coefficients of e^{x(e^z - 1) + r z} up to order n_max.

    Contract: n! * coeff_n = B_{n,r}(x).

    With f = x(e^z - 1) + r z, the coefficients g_n of g = e^f follow from
    g' = f' g: n g_n = sum_{k=1..n} k f_k g_{n-k}, g_0 = 1, where
    k f_k = x/(k-1)! plus r at k = 1.

    With x = p/q the recurrence runs on the integers h_n = n! q^n g_n:

        h_n = r q h_{n-1} + p sum_{k=1..n} C(n-1, k-1) q^(k-1) h_{n-k},

    and each g_n is reduced once from h_n / (n! q^n).
    """
    _check_natural(n_max=n_max, r=r)
    xq = Fraction(x)
    p, q = xq.numerator, xq.denominator
    q_pow = [q**k for k in range(n_max + 1)]
    h = [1]
    for n in range(1, n_max + 1):
        inner = sum(math.comb(n - 1, k - 1) * q_pow[k - 1] * h[n - k] for k in range(1, n + 1))
        h.append(r * q * h[n - 1] + p * inner)
    return [Fraction(hn, math.factorial(n) * q_pow[n]) for n, hn in enumerate(h)]


def ogf_coefficient_pair(m: int, r: int, z) -> tuple[Fraction, Fraction]:
    """Both closed forms of the ordinary generating function coefficient
    identity for the column {n+r, m+r}_r, evaluated exactly at rational z:

        lhs = z^m / prod_{j=r..m+r} (1 - j z)
        rhs = (-1/(r z - 1)) * (-1)^m / ((r z + z - 1)/z)_m

    Contract: lhs = rhs away from z = 0 and the poles z = 1/j.
    """
    _check_natural(m=m, r=r)
    zq = Fraction(z)
    if zq == 0:
        raise DomainError("z = 0 is outside the Pochhammer form's domain")
    for j in range(r, m + r + 1):
        if j * zq == 1:
            raise DomainError(f"z = 1/{j} is a pole of the generating function")

    # with z = p/q: lhs = p^m q / prod_j (q - j p), in integers
    p, q = zq.numerator, zq.denominator
    denom = 1
    for j in range(r, m + r + 1):
        denom *= q - j * p
    lhs = Fraction(p**m * q, denom)

    poch = pochhammer((r * zq + zq - 1) / zq, m)
    rhs = Fraction(-1, 1) / (r * zq - 1) * Fraction((-1) ** m) / poch
    return lhs, rhs


# ---------------------------------------------------------------------------
# confluent hypergeometric series


def hypergeom_1f1(a, b, x, tol: float) -> ApproxReal:
    """Kummer's function 1F1(a; b; x) = sum_k (a)_k/(b)_k x^k/k!, summed
    exactly with the term recurrence.

    Summation stops once the term ratio is provably <= 1/2 for every later
    index and twice the next term has magnitude below tol/2; err is that
    geometric tail bound plus the exact representation error.

    As in dobinski_series_sum, the partial sum is one integer numerator over
    a running common denominator, which each step multiplies by
    (pb + k qb) qa qx (k+1) for a = pa/qa, b = pb/qb, x = px/qx; the stopping
    test compares cross-multiplied integers.
    """
    tol_f = _check_tol(tol)
    aq, bq, xq = Fraction(a), Fraction(b), Fraction(x)
    if bq <= 0 and bq.denominator == 1:
        raise DomainError("1F1 is undefined for b a nonpositive integer")

    # For k >= k_min: |a+k|/|b+k| <= 2 and |x|/(k+1) <= 1/4, so ratio <= 1/2.
    k_min = max(math.ceil(abs(aq - bq) - bq), math.ceil(4 * abs(xq)), 1)
    what = f"1F1({aq}; {bq}; {xq})"
    if aq > 0 and bq > 0 and xq > 0:
        _check_1f1_fits_float(aq, bq, xq, k_min - 1, what)
    pa, qa = aq.numerator, aq.denominator
    pb, qb = bq.numerator, bq.denominator
    px, qx = xq.numerator, xq.denominator
    tol_num, tol_den = tol_f.numerator, tol_f.denominator
    num, term, den = 1, 1, 1  # partial sum num / den and term t_k = term / den
    k = 0
    while True:
        # t_{k+1} = t_k (a+k) x / ((b+k)(k+1)), over the denominator den * step
        step = (pb + k * qb) * qa * qx * (k + 1)
        den *= step
        num *= step
        term *= (pa + k * qa) * px * qb
        # 4 |t_{k+1}| <= tol, both sides times |den| * tol_den
        if k + 1 >= k_min and 4 * abs(term) * tol_den <= tol_num * abs(den):
            break
        num += term
        k += 1

    return _to_float(Fraction(num, den), Fraction(2 * abs(term), abs(den)), what)


def _check_1f1_fits_float(
    aq: Fraction, bq: Fraction, xq: Fraction, k_last: int, what: str
) -> None:
    """Raise DomainError before summing when 1F1(a; b; x) with a, b, x > 0
    is certain to exceed the float range through index k_last.

    Every term t_k = (a)_k/(b)_k x^k/k! is then positive.  The term ratio
    x (a+k) / ((b+k)(k+1)) is nonincreasing in k wherever
    k^2 + 2ak + a(b+1) - b >= 0, so at least from k^2 >= b on, and there the
    logs of the terms are concave.  Terms below that index are left out of
    the bound; an a, b or log term that a float cannot carry leaves the
    whole test to the final conversion.
    """
    first = math.isqrt(math.ceil(bq)) + 1
    if first > k_last:
        return
    try:
        af, bf = float(aq), float(bq)
        base = math.lgamma(bf) - math.lgamma(af)
    except (OverflowError, ValueError):
        # a or b past the float range, or so small that it rounds to the
        # float 0, where lgamma has a pole
        return
    log_x = math.log(xq.numerator) - math.log(xq.denominator)

    def log_term(k: int) -> float:
        return (
            base + math.lgamma(af + k) - math.lgamma(bf + k) + k * log_x - math.lgamma(k + 1)
        )

    def size(k: int) -> float:
        return (
            abs(base) + abs(math.lgamma(af + k)) + abs(math.lgamma(bf + k))
            + k * abs(log_x) + math.lgamma(k + 1)
        )

    try:
        _check_log_concave_sum(log_term, size, first, k_last, what)
    except OverflowError:
        pass  # lgamma past the float range, at an index near 10^305


def kummer_residual(a, b, x, tol: float) -> ApproxReal:
    """|e^{-x} 1F1(a;b;x) - 1F1(b-a;b;-x)| with a combined error bound.

    Contract (Kummer's transformation): the value is at most err + tol.
    """
    aq, bq, xq = Fraction(a), Fraction(b), Fraction(x)
    left = hypergeom_1f1(aq, bq, xq, tol)
    right = hypergeom_1f1(bq - aq, bq, -xq, tol)

    lhs_value, lhs_err = _times_exp_neg(left, xq)
    value = abs(lhs_value - right.value)
    bound = lhs_err + Fraction(right.err) + Fraction(math.ulp(max(value, abs(lhs_value))))
    return ApproxReal(value, _float_upper(bound))


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class QuadratureResult:
    """A quadrature value whose err is the last Simpson refinement difference."""

    value: ApproxReal
    nodes_used: int


_BASE_INTERVALS = 16
_MAX_INTERVALS = 1 << 20


def cesaro_integrand_forms(theta: float, n: int, r: int) -> tuple[float, float]:
    """Both integrand forms of the integral representation at one angle.

    The first is the complex-exponential form Im(e^{e^{e^{i theta}}}
    e^{r e^{i theta}}) sin(n theta); the second is its expanded real form
    e^{e^{cos t} cos(sin t) + r cos t} [cos(B) sin(r sin t) + sin(B) cos(r sin t)]
    sin(n t) with B = e^{cos t} sin(sin t).
    """
    c = math.cos(theta)
    s = math.sin(theta)
    sn = math.sin(n * theta)
    w = complex(c, s)
    u = cmath.exp(w)
    complex_form = cmath.exp(u + r * w).imag * sn
    ec = math.exp(c)
    big_a = ec * math.cos(s)
    big_b = ec * math.sin(s)
    real_form = (
        math.exp(big_a + r * c)
        * (math.cos(big_b) * math.sin(r * s) + math.sin(big_b) * math.cos(r * s))
        * sn
    )
    return complex_form, real_form


def _simpson(f, n_intervals: int) -> float:
    h = math.pi / n_intervals
    total = f(0.0) + f(math.pi)
    for i in range(1, n_intervals):
        total += f(i * h) * (4.0 if i % 2 else 2.0)
    return total * h / 3.0


def _simpson_refinements(f, scale: float, label: str):
    """Composite Simpson estimates of scale * int_0^pi f on 16, 32, 64, ...
    intervals.  Each estimate after the first is yielded as
    (estimate, |estimate - previous|, intervals), and the caller stops on its
    own rule; past the interval cap ConvergenceError names label."""
    previous = None
    intervals = _BASE_INTERVALS
    while intervals <= _MAX_INTERVALS:
        estimate = _simpson(f, intervals) * scale
        if previous is not None:
            yield estimate, abs(estimate - previous), intervals
        previous = estimate
        intervals *= 2
    raise ConvergenceError(
        f"Simpson refinement hit the {_MAX_INTERVALS}-interval cap for {label}"
    )


def cesaro_integral(n: int, r: int, tol: float) -> QuadratureResult:
    """B_{n,r} via the integral representation

        B_{n,r} = (2 n! / (pi e)) Im int_0^pi e^{e^{e^{i t}}} e^{r e^{i t}} sin(n t) dt

    by composite Simpson with node doubling until successive scaled estimates
    differ by at most tol/2 * max(1, |estimate|).  At every node both
    integrand forms are evaluated and must agree within 1e-12 * max(1, |f|)
    (the scale factor keeps the check meaningful where |f| is so large that
    1e-12 falls below one ulp); disagreement raises InconsistencyError.

    The representation needs n >= 1: the sin(n theta) factor makes the
    integral vanish identically at n = 0 while B_{0,r} = 1.
    """
    _check_natural(n=n, r=r)
    if n < 1:
        raise DomainError("the integral representation needs n >= 1")
    _check_tol(tol)

    def integrand(theta: float) -> float:
        complex_form, real_form = cesaro_integrand_forms(theta, n, r)
        if abs(complex_form - real_form) > 1e-12 * max(1.0, abs(complex_form)):
            raise InconsistencyError(
                f"integrand forms disagree at theta={theta!r}: "
                f"{complex_form!r} vs {real_form!r}"
            )
        return complex_form

    scale = 2.0 * math.factorial(n) / (math.pi * math.e)
    for estimate, diff, intervals in _simpson_refinements(integrand, scale, f"(n={n}, r={r})"):
        if diff <= 0.5 * tol * max(1.0, abs(estimate)):
            err = diff + 1e-13 * max(1.0, abs(estimate))
            return QuadratureResult(ApproxReal(estimate, err), intervals)


def sin_moment(j: int, n: int, tol: float) -> ApproxReal:
    """Im int_0^pi e^{j e^{i t}} sin(n t) dt, i.e.
    int_0^pi e^{j cos t} sin(j sin t) sin(n t) dt.

    Contract: equals (pi/2) j^n / n! within tol (absolute).
    """
    _check_natural(j=j, n=n)
    if n < 1:
        raise DomainError("sin_moment needs n >= 1")
    _check_tol(tol)

    def integrand(theta: float) -> float:
        return (
            math.exp(j * math.cos(theta))
            * math.sin(j * math.sin(theta))
            * math.sin(n * theta)
        )

    # scale 1.0 multiplies every estimate exactly
    for estimate, diff, _ in _simpson_refinements(integrand, 1.0, f"(j={j}, n={n})"):
        if diff <= 0.5 * tol:
            return ApproxReal(estimate, diff + 1e-13 * max(1.0, abs(estimate)))


# ---------------------------------------------------------------------------
# root structure and the maximizing index


class RootednessReport(NamedTuple):
    degree: int
    distinct_neg_roots: int
    root_at_zero: bool


def real_rootedness_report(n: int, r: int) -> RootednessReport:
    """Sturm-certified root structure of B_{n,r}(x).

    Contract: for r >= 1 there are n distinct negative roots and no zero
    root; for r = 0 the root 0 is present and there are n - 1 distinct
    negative roots (none when n = 1).
    """
    _check_natural(n=n, r=r)
    if n == 0:
        raise DomainError("constant polynomial: no root report for n = 0")
    poly = rbell_poly(n, r).poly
    root_at_zero = poly.constant_term == 0
    nonpositive = sturm_root_count(poly, -math.inf, 0)
    return RootednessReport(poly.degree, nonpositive - int(root_at_zero), root_at_zero)


@dataclass(frozen=True)
class MaxIndexReport:
    """Maximizers of k -> {n+r, k}_r over the Broder range [r, n+r], with the
    ratio estimate B_{n+1,r}/B_{n,r} - (r+1) they should track.

    The estimate is centered on the coefficient index of B_{n,r}(x), which
    runs from 0 to n, so bound_holds is true iff at least one maximizer K
    satisfies |(K - r) - ratio_estimate| < 1 (exact rational comparison);
    with a tie the bound can genuinely fail for the other maximizer.
    """

    n: int
    r: int
    maximizers: tuple[int, ...]
    ratio_estimate: Fraction
    bound_holds: bool


def max_index(n: int, r: int) -> MaxIndexReport:
    _check_natural(n=n, r=r)
    if n < 1:
        raise DomainError("max_index needs n >= 1")
    row = stirling_row(2, n + r, r)
    best = max(row)
    maximizers = tuple(r + j for j, v in enumerate(row) if v == best)
    ratio = Fraction(rbell_number(n + 1, r), rbell_number(n, r)) - (r + 1)
    holds = any(abs(k - r - ratio) < 1 for k in maximizers)
    return MaxIndexReport(n, r, maximizers, ratio, holds)
