"""Numeric-side verification: Dobinski sums, generating-function coefficients,
confluent hypergeometric series with Kummer's transformation, the Cesaro-type
integral representation, Sturm-certified root structure, and the
maximizing-index bound.

Each numeric scheme is written once:

- The Dobinski and 1F1 series are summed exactly as one integer numerator
  over a running common denominator, stopped by an exact comparison of
  cross-multiplied integers, and converted to float only at the very end
  (`_to_float`), so the reported error bound is a provable geometric tail
  bound plus the exactly computed float representation error.  The
  conversion and its error bound run on integer numerators over one
  denominator; no Fraction is built and no gcd is taken.
- The e^{-x} factors of `dobinski_eval` and `kummer_residual` share one
  error-propagation block (`_times_exp_neg`), which relies on libm's exp
  being within a few ulp and returns its bound as an integer ratio.
- Where every term is positive, both series stop with DomainError as soon
  as a partial sum passes 2^1024, which the bit lengths of its numerator and
  denominator show (`_check_partial_sum`); otherwise, and just above the
  float maximum, the final conversion finds the overflow.  Nothing cuts a
  1F1 sum with other signs short, so it takes |x| <= 1000 only.
- `egf_coeffs` runs the exponential recurrence on integer numerators over
  n! q^n, for x = p/q.
- `cesaro_integral` and `sin_moment` share one full-period trapezoid rule
  (`_trapezoid`) with a certified err: the Cauchy bound on its aliasing
  error plus a rounding bound, from a float pass where that bound meets the
  tolerance (libm within a few ulp, as for `_times_exp_neg`) and otherwise
  from a fixed-point pass in integers, its rounding counted in ulps.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import deque
from fractions import Fraction
from itertools import islice, pairwise
from typing import NamedTuple

from .algebra import ApproxReal, pochhammer, sturm_root_count
from .bell import rbell_poly
from .errors import ConvergenceError, DomainError, InconsistencyError
from .stirling import _check_natural, stirling_rows

# rational upper bound for 2e, used by the Dobinski stopping rule
_TWO_E_UPPER = Fraction(543657, 100000)

_LOG_FLOAT_MAX = math.log(sys.float_info.max)

def _float_upper(num: int, den: int) -> float:
    """Smallest float >= num / den (num >= 0, den > 0)."""
    f = num / den  # int true division rounds correctly
    fn, fd = f.as_integer_ratio()
    if fn * den < num * fd:
        f = math.nextafter(f, math.inf)
    return f


def _to_float(num: int, den: int, tail: int, what: str) -> ApproxReal:
    """num / den (den > 0) rounded to a float, its err the tail bound
    tail / den plus the exact rounding error, all in integers; a value past
    the float range raises DomainError naming what."""
    try:
        value = num / den
        vn, vd = value.as_integer_ratio()
        return ApproxReal(value, _float_upper(tail * vd + abs(vn * den - num * vd), den * vd))
    except OverflowError:
        raise DomainError(f"{what} exceeds the float range") from None


def _check_partial_sum(num: int, den: int, what: str) -> None:
    """Raise DomainError naming what once num / den > 0, a partial sum of
    positive terms, is past 2^1024, so that the whole sum is too: since
    num >= 2^(num.bit_length() - 1) and den < 2^den.bit_length(), bit lengths
    more than 1024 apart show it.  A sum just above the float maximum is left
    to _to_float."""
    if num.bit_length() - den.bit_length() > 1024:
        raise DomainError(f"{what} exceeds the float range")


def _times_exp_neg(s: ApproxReal, x: Fraction) -> tuple[float, tuple[int, int]]:
    """e^{-x} s as a float, with an exact bound on its error as an integer
    ratio: the error of s scaled by e^{-x}, the slack d of libm's exp, and the
    product's rounding.  d = (|x| + 4) 23 / 10^17 is the relative slack
    allowed to one libm exp call plus the float argument conversion.  An
    e^{-x} or a product past the float range raises DomainError."""
    xf = float(x)
    try:
        w = math.exp(-xf)
        value = s.value * w
        un, ud = math.ulp(value).as_integer_ratio()  # the ulp of an infinite product overflows
    except OverflowError:
        raise DomainError(f"e^-x times the series at x = {x} exceeds the float range") from None
    an, ad = abs(xf).as_integer_ratio()
    dn, dd = (an + 4 * ad) * 23, ad * 10**17
    wn, wd = w.as_integer_ratio()
    sn, sd = s.err.as_integer_ratio()
    vn, vd = abs(s.value).as_integer_ratio()
    den = wd * sd * vd * dd
    num = wn * (sn * vd * (dd + dn) + vn * sd * dn)
    return value, (num * ud + un * den, den * ud)


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
    Every term is positive, so a partial sum past 2^1024 raises DomainError
    at once.
    """
    _check_natural(n=n, r=r)
    tol_f = _check_tol(tol)
    xq = Fraction(x)
    if xq <= 0:
        raise DomainError("dobinski evaluation needs x > 0")

    k_min = max(n + r, math.ceil(_TWO_E_UPPER * xq))
    what = f"the Dobinski sum at (n={n}, r={r}, x={xq})"
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
        _check_partial_sum(num, den, what)
        k += 1

    return _to_float(num, den, 2 * term, what)


def dobinski_eval(n: int, r: int, x, tol: float) -> ApproxReal:
    """B_{n,r}(x) by Dobinski's formula e^{-x} sum_k (k+r)^n x^k / k!.

    The reported err covers the series tail, all float representation errors,
    and the e^{-x} multiplication; it stays below tol * max(1, B_{n,r}(x))
    at the tolerances the acceptance grid uses.
    """
    value, err = _times_exp_neg(dobinski_series_sum(n, r, x, tol), Fraction(x))
    return ApproxReal(value, _float_upper(*err))


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

    # with z = p/q: lhs = p^m q / prod_j (q - j p), in integers
    p, q = zq.numerator, zq.denominator
    denom = 1
    for j in range(r, m + r + 1):
        factor = q - j * p
        if not factor:
            raise DomainError(f"z = 1/{j} is a pole of the generating function")
        denom *= factor
    lhs = Fraction(p**m * q, denom)

    poch = pochhammer((r * zq + zq - 1) / zq, m)
    rhs = Fraction(-1, 1) / (r * zq - 1) * Fraction((-1) ** m) / poch
    return lhs, rhs


# ---------------------------------------------------------------------------
# confluent hypergeometric series


# the largest |x| hypergeom_1f1 sums unless a, b and x are all positive:
# 1F1(1; 1; x) takes about 0.04 s at x = -1000 and 1.2 s at x = -5000
# (Python 3.11, 2 vCPUs)
_MAX_ABS_X = 1000


def hypergeom_1f1(a, b, x, tol: float) -> ApproxReal:
    """Kummer's function 1F1(a; b; x) = sum_k (a)_k/(b)_k x^k/k!, summed
    exactly with the term recurrence.

    Summation stops once the term ratio is provably <= 1/2 for every later
    index, which is checked at each step, and twice the next term has
    magnitude below tol/2; err is that geometric tail bound plus the exact
    representation error.  When a, b and x are positive, so is every term,
    and a partial sum past 2^1024 raises DomainError at once; a sum past the
    float range with any other signs is found by the final conversion.
    Nothing cuts such a sum short: at x < 0 the terms grow up to index about
    |x| and fall below tol only past about e|x| (2,736 terms for
    1F1(1; 1; -1000)), so there |x| above _MAX_ABS_X raises DomainError
    before summing.

    As in dobinski_series_sum, the partial sum is one integer numerator over
    a running common denominator, which each step multiplies by
    (pb + k qb) qa qx (k+1) for a = pa/qa, b = pb/qb, x = px/qx; the stopping
    test compares cross-multiplied integers.
    """
    tol_f = _check_tol(tol)
    aq, bq, xq = Fraction(a), Fraction(b), Fraction(x)
    if bq <= 0 and bq.denominator == 1:
        raise DomainError("1F1 is undefined for b a nonpositive integer")

    what = f"1F1({aq}; {bq}; {xq})"
    positive = aq > 0 and bq > 0 and xq > 0
    if not positive and abs(xq) > _MAX_ABS_X:
        raise DomainError(f"{what} needs |x| <= {_MAX_ABS_X} unless a, b and x are all positive")
    pa, qa = aq.numerator, aq.denominator
    pb, qb = bq.numerator, bq.denominator
    px, qx = xq.numerator, xq.denominator
    # From k_s on, a + k >= 0 and b + k > 0, so the term ratio
    # (a+k) x / ((b+k)(k+1)) has magnitude at most 1/2 exactly when
    # g(k) = (b+k)(k+1) - 2|x|(a+k) >= 0.  g is convex, so once g(k) >= 0 and
    # g(k+1) - g(k) = b + 2k + 2 - 2|x| >= 0, every later ratio stays at most
    # 1/2 and the geometric tail bound holds.  Both tests run in integers, g
    # times qa qb qx and its difference times qb qx.
    k_s = max(0, -(pa // qa), -pb // qb + 1)
    settled = False
    tol_num, tol_den = tol_f.numerator, tol_f.denominator
    num, term, den = 1, 1, 1  # partial sum num / den and term t_k = term / den
    k = 0
    while True:
        # t_{k+1} = t_k (a+k) x / ((b+k)(k+1)), over the denominator den * step
        step = (pb + k * qb) * qa * qx * (k + 1)
        factor = (pa + k * qa) * px * qb
        if not settled and k >= k_s:
            settled = 2 * abs(factor) <= step and (pb + (2 * k + 2) * qb) * qx >= 2 * abs(px) * qb
        den *= step
        num *= step
        term *= factor
        # 4 |t_{k+1}| <= tol, both sides times |den| * tol_den
        if settled and 4 * abs(term) * tol_den <= tol_num * abs(den):
            break
        num += term
        if positive:
            _check_partial_sum(num, den, what)
        k += 1

    if den < 0:
        num, den = -num, -den
    return _to_float(num, den, 2 * abs(term), what)


def kummer_residual(a, b, x, tol: float) -> ApproxReal:
    """|e^{-x} 1F1(a;b;x) - 1F1(b-a;b;-x)| with a combined error bound.

    Contract (Kummer's transformation): the value is at most err + tol.
    """
    aq, bq, xq = Fraction(a), Fraction(b), Fraction(x)
    left = hypergeom_1f1(aq, bq, xq, tol)
    right = hypergeom_1f1(bq - aq, bq, -xq, tol)

    lhs_value, (num, den) = _times_exp_neg(left, xq)
    value = abs(lhs_value - right.value)
    for term in (right.err, math.ulp(max(value, abs(lhs_value)))):
        tn, td = term.as_integer_ratio()
        num, den = num * td + tn * den, den * td
    return ApproxReal(value, _float_upper(num, den))


# ---------------------------------------------------------------------------
# quadrature
#
# Both quadratures integrate g(t) = Im e^{z(e^{it})} sin(n t) over [0, pi],
# with z(w) = a e^w + b w: a = 1, b = r for the integral representation and
# a = 0, b = j for sin_moment.  The Taylor coefficients d_k of e^{z(w)} are
# real, so g is even and 2 pi-periodic and int_0^pi g = (pi/2) d_n.  The
# trapezoid rule with M > n nodes on the full period, written as
# (pi/M) S with S = sum_{m=0..M/2} w_m g(2 pi m/M) and weights 1, 2, ..., 2, 1,
# equals (pi/2)(d_n + sum_{i>=1} (d_{n+iM} - d_{iM-n})) exactly (Trefethen and
# Weideman, SIAM Review 2014).  Cauchy's estimate on |w| = rho,
# |d_k| <= e^{phi(rho)} / rho^k with phi(rho) = a e^rho + b rho, bounds the
# aliased terms.  S is summed in floats when their rounding bound certifies
# the tolerance, and otherwise in fixed-point integers (Brent and Zimmermann,
# Modern Computer Arithmetic, ch. 4).


class QuadratureResult(NamedTuple):
    """A quadrature value with a certified err, and the number M of nodes of
    the full-period trapezoid rule behind it.

    err is the Cauchy bound on the rule's aliasing error plus a bound on the
    rounding: in floats under the assumption that libm is within a few ulp,
    in fixed point by counting ulps per operation."""

    value: ApproxReal
    nodes_used: int


_EPS = sys.float_info.epsilon
_LOG2 = math.log(2)
# a float result resolves no finer than 2^-53 relative, so the quadratures
# take no tolerance below 2^-50
_MIN_QUAD_TOL = 2.0**-50
# _fx_exp halves its argument until each part is below 2^-_HALVING; the
# fixed-point node table carries _TABLE_GUARD extra bits; the fixed-point
# pass doubles its bits at most _MAX_DOUBLINGS times
_HALVING = 8
_TABLE_GUARD = 24
_MAX_DOUBLINGS = 3


def _float_forms(c: float, s: float, a: int, b: int) -> tuple[float, float, float]:
    """Im e^{z(w)} at w = c + i s, z(w) = a e^w + b w, in both forms, and
    the modulus |e^{z(w)}| = e^{A + b c}.

    The complex form exponentiates z(w) with cmath; the expanded real form
    is e^{A + b c} [cos(B) sin(b s) + sin(B) cos(b s)] with
    A + i B = a e^c (cos s + i sin s)."""
    w = complex(c, s)
    z = cmath.exp(w) + b * w if a else b * w
    complex_form = cmath.exp(z).imag
    ec = math.exp(c) if a else 0.0
    big_a = ec * math.cos(s)
    big_b = ec * math.sin(s)
    modulus = math.exp(big_a + b * c)
    real_form = modulus * (
        math.cos(big_b) * math.sin(b * s) + math.sin(big_b) * math.cos(b * s)
    )
    return complex_form, real_form, modulus


def _cauchy_radius(a: int, b: int, d: float) -> float:
    """The rho > 0 with rho phi'(rho) = d, phi(rho) = a e^rho + b rho, where
    e^{phi(rho)} / rho^d is least (inf when phi is constant)."""
    if not a:
        return d / b if b else math.inf
    # rho phi'(rho) - d is convex and increasing and positive at log(1 + d),
    # so Newton's method from there descends monotonically onto the root
    rho = math.log1p(d)
    for _ in range(100):
        step = (rho * (math.exp(rho) + b) - d) / (math.exp(rho) * (1 + rho) + b)
        rho -= step
        if step <= 1e-12 * rho:
            break
    return rho


def _trapezoid_nodes(a: int, b: int, n: int, log_budget: float) -> tuple[int, float]:
    """An even node count M > n, and the log of the Cauchy bound on
    sum_{i>=1} |d_{n+iM}| + |d_{iM-n}|, which is at most log_budget.

    For rho > 1 with rho^M >= 2 that sum is at most
    e^{phi(rho)} (rho^-n + rho^n) rho^-M / (1 - rho^-M)
    <= 4 e^{phi(rho)} rho^(n-M), so M >= n + (phi(rho) + c) / log rho with
    c = log 4 - log_budget suffices.  That least M is smallest where
    h(rho) = rho phi'(rho) log rho - phi(rho) - c, increasing for rho > 1,
    changes sign; bisection on log rho finds it."""
    c = 2 * _LOG2 - log_budget

    def phi(rho: float) -> float:
        return (math.exp(rho) if a else 0.0) + b * rho

    def h(u: float) -> float:
        rho = math.exp(u)
        return rho * ((math.exp(rho) if a else 0.0) + b) * u - phi(rho) - c

    # rho stays below e^6.5, where e^rho still fits a float
    lo, hi = math.log(1.25), 1.0
    while hi < 6.5 and h(hi) < 0:
        lo, hi = hi, 2 * hi
    hi = min(hi, 6.5)
    if h(lo) < 0:
        for _ in range(40):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if h(mid) < 0 else (lo, mid)
    rho = math.exp(lo)
    log_rho = lo
    need = n + (phi(rho) + c) / log_rho
    m_count = max(4, 2 * math.ceil(need / 2), n + 2 - n % 2)
    log_alias = (
        phi(rho) + n * log_rho + math.log1p(math.exp(-2 * n * log_rho))
        - m_count * log_rho - math.log1p(-math.exp(-m_count * log_rho))
    )
    return m_count, log_alias


def _float_pass(n: int, a: int, b: int, m_count: int, label: str) -> tuple[float, float, float]:
    """S in floats, a bound on its rounding error, and sum_m w_m max(1, |e^z|).

    Under the assumption that libm is within a few ulp, either form at a node
    of modulus E = |e^{z(w)}| is within E eps (32 + 24 (a e + b)) of its
    exact value, which covers the rounding of the node angle (the integrand's
    t-derivative is at most E (a e + b)), of w, e^w and z, of the final
    exponential, and of sin(n t), whose argument is reduced exactly to
    2 pi (n m mod M) / M.  Forms further apart than twice that raise
    InconsistencyError.  math.fsum rounds S once."""
    step = math.tau / m_count
    half = m_count // 2
    spread = _EPS * (32 + 24 * (a * math.e + b))
    terms = []
    bound = moduli = 0.0
    for m in range(half + 1):
        theta = step * m
        complex_form, real_form, modulus = _float_forms(
            math.cos(theta), math.sin(theta), a, b
        )
        node_err = spread * modulus
        if abs(complex_form - real_form) > 2 * node_err:
            raise InconsistencyError(
                f"integrand forms disagree at theta={theta!r} for {label}: "
                f"{complex_form!r} vs {real_form!r}"
            )
        weight = 1 if m in (0, half) else 2
        terms.append(weight * complex_form * math.sin(step * (n * m % m_count)))
        bound += weight * node_err
        moduli += weight * max(1.0, modulus)
    total = math.fsum(terms)
    return total, bound + _EPS * abs(total), moduli


def _fx_exp(x: int, y: int, bits: int) -> tuple[int, int]:
    """e^{(x + i y) / 2^bits} in fixed point with bits fractional bits.

    The argument is halved k times, until each part is below 2^-_HALVING,
    its Taylor series is summed until a term is down to an ulp or two, and
    the sum is squared k times.  A real or purely imaginary argument sums
    one real series, whose terms cycle through the powers of i in the
    latter case.  Every product and quotient is floored, so each step errs
    by at most one ulp per part; _fx_exp_err bounds the result's error."""
    k = (max(abs(x), abs(y)) >> (bits - _HALVING)).bit_length()
    x >>= k
    y >>= k
    one = 1 << bits
    if x and y:
        re = tr = one
        im = ti = 0
        j = 1
        while abs(tr) + abs(ti) > 2:
            tr, ti = ((tr * x - ti * y) >> bits) // j, ((tr * y + ti * x) >> bits) // j
            re += tr
            im += ti
            j += 1
    else:
        v, turn = (y, 1) if y else (x, 0)
        sums = [one, 0, 0, 0]  # the terms at i^0, i^1, i^2, i^3
        t = one
        j = 1
        while t > 1 or t < -1:
            t = ((t * v) >> bits) // j
            sums[j * turn & 3] += t
            j += 1
        re, im = sums[0] - sums[2], sums[1] - sums[3]
    if im:
        for _ in range(k):
            re, im = (re * re - im * im) >> bits, (re * im) >> (bits - 1)
    else:
        for _ in range(k):
            re = (re * re) >> bits
    return re, im


def _fx_exp_err(part: float, bits: int) -> float:
    """ulps of error of _fx_exp, per unit of max(1, |result|), at an exact
    argument whose parts are at most part.

    With k halvings and at most T = bits // 7 + 2 Taylor terms: the halving
    floors move the argument by sqrt(2) 2^-k ulp; the terms carry at most
    1.43 ulp each and the truncated tail 0.03 ulp; each squaring doubles the
    relative error and adds sqrt(2) ulp.  That totals
    2^k (1.51 (T + 1) + 2.9) ulp times max(1, |result|), to first order;
    the constants below round it up."""
    k = (int(part * 2**_HALVING) + 1).bit_length()
    return 2.0**k * (1.6 * (bits // 7 + 2) + 4.5)


def _machin_pi(bits: int) -> int:
    """pi in fixed point with bits fractional bits, within 2 ulp, by
    Machin's formula pi = 16 atan(1/5) - 4 atan(1/239)."""
    guard = 20
    one = 1 << (bits + guard)

    def acot(x: int) -> int:
        # each term is floored once from an exact power quotient: < 2 ulp
        power = one // x
        total, k = power, 1
        while power:
            power //= x * x
            term = power // (2 * k + 1)
            total += -term if k % 2 else term
            k += 1
        return total

    return (16 * acot(5) - 4 * acot(239)) >> guard


def _fx_pi(bits: int) -> tuple[int, int]:
    return _machin_pi(bits), 2


def _fx_inverse_e(bits: int) -> tuple[int, int]:
    return _fx_exp(-1 << bits, 0, bits)[0], math.ceil(_fx_exp_err(1, bits))


def _fx_node_err(a: int, b: int, m_count: int, bits: int) -> int:
    """K of _fixed_pass: ulps of error of either fixed-point form at a node,
    per unit of max(1, |e^{z(w)}|).

    A node table entry errs by at most the final floor's ulp plus, per
    power, the error of e^{2 pi i / M} and of its angle and the product's
    floors, all at _TABLE_GUARD extra bits.  The real form's five
    exponentials dominate: e^{A + b cos t}, e^{i B} and e^{i b sin t} have
    arguments of parts at most a e + b, and A and B carry e times the errors
    of e^{cos t} and e^{i sin t}; the inputs' errors enter scaled by the
    modulus, b-fold through b w."""
    table_err = 2 + m_count // 2 * (_fx_exp_err(2, bits + _TABLE_GUARD) + 5) / 2**_TABLE_GUARD
    return math.ceil(
        1.05 * (
            3 * _fx_exp_err(a * math.e + b, bits) + 11 * _fx_exp_err(1, bits)
            + (11 + 2 * b) * table_err + 6
        )
    )


def _fixed_pass(n: int, a: int, b: int, m_count: int, bits: int, label: str) -> tuple[int, int]:
    """S in fixed point with bits fractional bits and a bound on its error,
    both in ulps.

    The node table holds w^m = e^{2 pi i m / M}, m <= M/2, as powers of one
    e^{2 pi i / M}, built with _TABLE_GUARD extra bits; sin(n t) is the
    imaginary part of the entry for n m mod M.  At each node the complex form
    takes two complex exponentials, e^w and e^{z(w)}; the real form takes
    e^{cos t}, e^{i sin t}, e^{A + b cos t}, e^{i B} and e^{i b sin t}, as in
    _float_forms.  Summing _fx_exp_err over those calls, with the inputs'
    errors carried through, bounds either form's error by
    K max(1, |e^{z(w)}|) ulp with K from _fx_node_err; forms further apart
    than twice that raise InconsistencyError."""
    wide = bits + _TABLE_GUARD
    half = m_count // 2
    omega_re, omega_im = _fx_exp(0, 2 * _machin_pi(wide) // m_count, wide)
    table = [(1 << wide, 0)]
    for _ in range(half):
        p, q = table[-1]
        table.append(((p * omega_re - q * omega_im) >> wide, (p * omega_im + q * omega_re) >> wide))
    table = [(p >> _TABLE_GUARD, q >> _TABLE_GUARD) for p, q in table]
    node_err = _fx_node_err(a, b, m_count, bits)
    total = bound = 0
    for m, (c, s) in enumerate(table):
        ux, uy = _fx_exp(c, s, bits) if a else (0, 0)
        complex_form = _fx_exp(ux + b * c, uy + b * s, bits)[1]
        big_a = big_b = 0
        if a:
            ec = _fx_exp(c, 0, bits)[0]
            cos_s, sin_s = _fx_exp(0, s, bits)
            big_a, big_b = (ec * cos_s) >> bits, (ec * sin_s) >> bits
        modulus = _fx_exp(big_a + b * c, 0, bits)[0]
        cos_b, sin_b = _fx_exp(0, big_b, bits)
        cos_bs, sin_bs = _fx_exp(0, b * s, bits)
        real_form = (modulus * ((cos_b * sin_bs + sin_b * cos_bs) >> bits)) >> bits
        err = node_err * max(1, (modulus >> bits) + 1)
        if abs(complex_form - real_form) > 2 * err:
            raise InconsistencyError(
                f"integrand forms disagree at node {m} of {m_count} for {label}: "
                f"{complex_form} vs {real_form} at {bits} bits"
            )
        k = n * m % m_count
        sn = table[k][1] if k <= half else -table[m_count - k][1]
        weight = 1 if m in (0, half) else 2
        total += weight * ((complex_form * sn) >> bits)
        bound += weight * err
    return total, bound


def _log_coefficient_estimate(a: int, b: int, n: int) -> float:
    """The saddle-point estimate e^{phi(rho)} rho^-n / sqrt(2 pi rho (rho phi')')
    of d_n, as a log, at the rho of _cauchy_radius(a, b, n); -inf when
    e^{z(w)} is constant."""
    if not (a or b):
        return -math.inf
    rho = _cauchy_radius(a, b, n)
    ea = math.exp(rho) if a else 0.0
    return (
        ea + b * rho - n * math.log(rho)
        - 0.5 * math.log(2 * math.pi * rho * (ea * (1 + rho) + b))
    )


def _trapezoid(
    n: int, a: int, b: int, tol: float, factor: int, gamma: float, fx_gamma, label: str
) -> tuple[ApproxReal, int]:
    """(factor gamma / M) S, the scaled trapezoid sum, which approximates
    (factor gamma / 2) d_n, with err <= tol * max(1, |value|).

    The saddle-point estimate of |value|, lowered by a factor 4, sets the
    aliasing bound's share, half of the tolerance; it steers only the choice
    of M.  The float pass returns when its bound certifies the tolerance.
    Otherwise the fixed-point pass runs with the bits that give its rounding
    bound the other half, from a lower bound on |value| (the float pass's,
    where its err leaves one, else the estimate), and doubles them while
    certification fails.  gamma and fx_gamma(bits) give the constant in
    floats and in fixed point with its error in ulps."""
    if tol < _MIN_QUAD_TOL:
        raise DomainError(
            f"quadrature tolerance must be at least 2^-50, the float result's resolution; got {tol!r}"
        )

    def target(value: float) -> float:
        return tol * max(1.0, abs(value))

    # a tolerance above 1 asks for nothing that tol = 1 does not deliver
    log_tol = math.log(min(tol, 1.0))
    log_scale = math.log(factor) + math.log(gamma)
    log_low = log_scale - _LOG2 + _log_coefficient_estimate(a, b, n) - 2 * _LOG2
    if log_low > _LOG_FLOAT_MAX:
        raise DomainError(f"the integral at {label} exceeds the float range")
    m_count, log_alias = _trapezoid_nodes(a, b, n, log_tol + max(0.0, log_low) - log_scale)
    alias = math.exp(log_scale + log_alias - _LOG2) * (1 + 1e-9)
    try:
        total, spread, moduli = _float_pass(n, a, b, m_count, label)
    except OverflowError:
        raise DomainError(f"the integrand at {label} exceeds the float range") from None
    try:
        scale = factor / m_count * gamma
    except OverflowError:
        scale = None  # factor / M past the float range: only fixed point can tell
    if scale is not None:
        value = scale * total
        err = alias + scale * spread + 4 * _EPS * abs(value)
        if math.isfinite(err) and err <= target(value):
            return ApproxReal(value, err), m_count
        if abs(value) > err:
            log_low = max(log_low, math.log(abs(value) - err))

    log_need = log_tol - _LOG2 + max(0.0, log_low)
    log_scale -= math.log(m_count)
    bits = 64
    while True:
        node_bits = math.log2(moduli * _fx_node_err(a, b, m_count, bits))
        need = math.ceil(node_bits + (log_scale - log_need) / _LOG2)
        if need <= bits:
            break
        bits = need
    an, ad = alias.as_integer_ratio()  # the aliasing bound as a dyadic
    for _ in range(_MAX_DOUBLINGS + 1):
        total, total_err = _fixed_pass(n, a, b, m_count, bits, label)
        g, g_err = fx_gamma(bits)
        den = m_count << (2 * bits)  # the value's denominator, times ad below
        tail = factor * ((abs(g) + g_err) * total_err + abs(total) * g_err) * ad + an * den
        result = _to_float(factor * g * total * ad, den * ad, tail, f"the integral at {label}")
        if result.err <= target(result.value):
            return result, m_count
        bits *= 2
    raise ConvergenceError(
        f"the trapezoid sum for {label} did not certify tol {tol!r} with {bits // 2} bits"
    )


def cesaro_integral(n: int, r: int, tol: float) -> QuadratureResult:
    """B_{n,r} via the integral representation

        B_{n,r} = (2 n! / (pi e)) Im int_0^pi e^{e^{e^{i t}}} e^{r e^{i t}} sin(n t) dt

    by the full-period trapezoid rule, value (2 n! / (e M)) S, with a
    certified err <= tol * max(1, |value|).  At every node both integrand
    forms are evaluated and must agree within their rounding bound, which
    scales with the forms' modulus e^{e^{cos t} cos(sin t) + r cos t};
    disagreement raises InconsistencyError.  M and the fixed-point precision
    follow from the aliasing and rounding bounds and from estimates of
    |value|, never from the exact B_{n,r}.  tol must be at least 2^-50.

    The representation needs n >= 1: the sin(n theta) factor makes the
    integral vanish identically at n = 0 while B_{0,r} = 1.
    """
    _check_natural(n=n, r=r)
    if n < 1:
        raise DomainError("the integral representation needs n >= 1")
    _check_tol(tol)
    value, m_count = _trapezoid(
        n, 1, r, tol, 2 * math.factorial(n), 1 / math.e, _fx_inverse_e, f"(n={n}, r={r})"
    )
    return QuadratureResult(value, m_count)


def sin_moment(j: int, n: int, tol: float) -> ApproxReal:
    """Im int_0^pi e^{j e^{i t}} sin(n t) dt, i.e.
    int_0^pi e^{j cos t} sin(j sin t) sin(n t) dt, by the same trapezoid rule
    as cesaro_integral, value (pi / M) S, with a certified
    err <= tol * max(1, |value|).

    Contract: equals (pi/2) j^n / n! within err.
    """
    _check_natural(j=j, n=n)
    if n < 1:
        raise DomainError("sin_moment needs n >= 1")
    _check_tol(tol)
    value, _ = _trapezoid(n, 0, j, tol, 1, math.pi, _fx_pi, f"(j={j}, n={n})")
    return value


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
    poly = rbell_poly(n, r)
    root_at_zero = poly.constant_term == 0
    nonpositive = sturm_root_count(poly, -math.inf, 0)
    return RootednessReport(poly.degree, nonpositive - int(root_at_zero), root_at_zero)


class MaxIndexReport(NamedTuple):
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


def _max_report(n: int, r: int, row: tuple[int, ...], after: tuple[int, ...]) -> MaxIndexReport:
    """The report at (n, r) from rows n+r and n+r+1 of the r-triangle."""
    best = max(row)
    maximizers = tuple(r + j for j, v in enumerate(row) if v == best)
    ratio = Fraction(sum(after), sum(row)) - (r + 1)
    holds = any(abs(k - r - ratio) < 1 for k in maximizers)
    return MaxIndexReport(n, r, maximizers, ratio, holds)


def max_index(n: int, r: int) -> MaxIndexReport:
    """The report at (n, r), from the last two rows of one walk."""
    _check_natural(n=n, r=r)
    if n < 1:
        raise DomainError("max_index needs n >= 1")
    row, after = deque(stirling_rows(2, r, n + r + 1), maxlen=2)
    return _max_report(n, r, row, after)


def max_indices(n_max: int, r: int) -> list[MaxIndexReport]:
    """The reports at (n, r) for n = 1..n_max, at entry n - 1, from one walk."""
    _check_natural(n_max=n_max, r=r)
    rows = islice(pairwise(stirling_rows(2, r, n_max + r + 1)), 1, None)
    return [_max_report(n, r, row, after) for n, (row, after) in enumerate(rows, start=1)]
