"""Exact-arithmetic substrate: integer polynomials, fraction-free
determinants, Sturm root counting and factorial symbols.

Integers are plain Python ints and rationals are `fractions.Fraction`, so every
value here is exact.  The one float-bearing type, :class:`ApproxReal`, never
participates in arithmetic; it only reports results of the numeric routines in
:mod:`rbell.analytic` together with a rigorous absolute error bound.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import DomainError, InconsistencyError

Scalar = Union[int, Fraction]


class IntPolynomial:
    """Dense univariate polynomial over int, coefficients lowest degree first.

    The coefficient tuple is canonical: trailing zeros are stripped and the
    zero polynomial is the empty tuple, with degree -1 by convention.
    Instances are immutable and hashable.

    The public constructor checks that every coefficient is an int, not a
    bool, and raises DomainError otherwise.  Arithmetic results skip that
    check: their coefficients are ints by construction, because every
    operand is an IntPolynomial or passes the same int-not-bool test, so
    they are built by ``_poly``, which only strips trailing zeros.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise DomainError(f"integer coefficient expected, got {c!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("IntPolynomial is immutable")

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "IntPolynomial":
        if degree < 0:
            raise DomainError("monomial degree must be nonnegative")
        return cls((0,) * degree + (coeff,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def __eq__(self, other: object) -> bool:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        # a constant equals its int, so it hashes as that int
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(("IntPolynomial", self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return _poly([*map(operator.add, a, b), *a[len(b):]])

    __radd__ = __add__

    def __neg__(self) -> "IntPolynomial":
        return _poly([-c for c in self.coeffs])

    def __sub__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return _difference(self.coeffs, other.coeffs)

    def __rsub__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return _difference(other.coeffs, self.coeffs)

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int) and not isinstance(other, bool):
            return _poly([other * c for c in self.coeffs])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return _poly([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs, i):
                    out[j] += a * b
        return _poly(out)

    __rmul__ = __mul__

    def __floordiv__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        """Exact quotient in Z[x].  Z[x] has no floor division, so a nonzero
        remainder, or a quotient that leaves Z[x], raises InconsistencyError."""
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        b = other.coeffs
        db, lead = len(b) - 1, b[-1]
        rem = list(self.coeffs)
        quo = [0] * max(len(rem) - db, 0)
        for shift in range(len(quo) - 1, -1, -1):
            q, left = divmod(rem.pop(), lead)
            if left:
                rem.append(left)
                break
            quo[shift] = q
            if q:
                for i in range(db):
                    rem[shift + i] -= q * b[i]
        if any(rem):
            raise InconsistencyError(f"{other!r} does not divide {self!r} in Z[x]")
        return _poly(quo)

    def __pow__(self, n: int) -> "IntPolynomial":
        if not isinstance(n, int) or n < 0:
            raise DomainError("polynomial exponent must be a natural number")
        result = _poly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self) -> "IntPolynomial":
        return _poly([k * c for k, c in enumerate(self.coeffs) if k])

    def __call__(self, x: Scalar) -> Scalar:
        """Evaluate by Horner's rule; exact for int or Fraction arguments.

        At a Fraction the value of a nonzero polynomial is a Fraction,
        reduced once from the integer den^d p(num/den)."""
        cs = self.coeffs
        if isinstance(x, Fraction) and cs:
            num, den = x.numerator, x.denominator
            return Fraction(_homogenised_value(cs, num, den), den ** (len(cs) - 1))
        acc: Scalar = 0
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)!r})"


_set_coeffs = IntPolynomial.coeffs.__set__


def _poly(cs: list[int]) -> IntPolynomial:
    """The IntPolynomial with coefficients cs, a list of ints that it may
    consume: trailing zeros are stripped, and nothing is type-checked."""
    while cs and cs[-1] == 0:
        cs.pop()
    p = object.__new__(IntPolynomial)
    _set_coeffs(p, tuple(cs))
    return p


def _difference(a: tuple[int, ...], b: tuple[int, ...]) -> IntPolynomial:
    """The polynomial a - b of two coefficient tuples, in one pass."""
    tail = a[len(b):] if len(a) >= len(b) else [-c for c in b[len(a):]]
    return _poly([*map(operator.sub, a, b), *tail])


def _homogenised_value(coeffs: Sequence[int], num: int, den: int) -> int:
    """den^d p(num/den) = sum_k c_k num^k den^(d-k) for p of degree d, by
    Horner's rule in integers."""
    v, den_power = 0, 1
    for c in reversed(coeffs):
        v = v * num + c * den_power
        den_power *= den
    return v


def _as_poly(v) -> "IntPolynomial":
    if isinstance(v, IntPolynomial):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return _poly([v])
    return NotImplemented


class _Approx(NamedTuple):
    value: float
    err: float


class ApproxReal(_Approx):
    """A float paired with an absolute error bound.

    Contract: the true mathematical value lies in [value - err, value + err].
    Every construction, ``_replace`` included, checks that value and err are
    finite and err >= 0; the check lives in a subclass because
    ``typing.NamedTuple`` forbids ``__new__`` in its body.
    """

    __slots__ = ()

    def __new__(cls, value: float, err: float) -> "ApproxReal":
        self = super().__new__(cls, value, err)
        if not math.isfinite(value) or not math.isfinite(err) or err < 0:
            raise DomainError(f"ApproxReal needs finite value and err >= 0, got {self}")
        return self

    @classmethod
    def _make(cls, iterable: Iterable[float]) -> "ApproxReal":
        return cls(*iterable)

    def encloses(self, exact: Scalar) -> bool:
        """Exact-rational membership test of ``exact`` in the certified
        interval, by cross-multiplied integer ratios."""
        vn, vd = self.value.as_integer_ratio()
        en, ed = self.err.as_integer_ratio()
        xn, xd = exact.as_integer_ratio()
        return abs(vn * xd - xn * vd) * ed <= en * vd * xd


def pochhammer(x: Scalar, n: int) -> Fraction:
    """Rising factorial (x)_n = x(x+1)...(x+n-1), with (x)_0 = 1.

    For x = u/v this is prod_i (u + i v) / v^n, multiplied out in integers
    and reduced once."""
    if n < 0:
        raise DomainError("pochhammer index must be a natural number")
    xf = Fraction(x)
    u, v = xf.numerator, xf.denominator
    acc = 1
    for i in range(n):
        acc *= u + i * v
    return Fraction(acc, v**n)


def falling_factorial_poly(n: int) -> IntPolynomial:
    """The polynomial x(x-1)...(x-n+1); the empty product for n = 0."""
    if n < 0:
        raise DomainError("falling factorial index must be a natural number")
    acc = IntPolynomial((1,))
    for i in range(n):
        acc = acc * IntPolynomial((-i, 1))
    return acc


# ---------------------------------------------------------------------------
# determinants


def fraction_free_det(rows: Sequence[Sequence[int | IntPolynomial]]):
    """Exact determinant of a square matrix of ints or of IntPolynomials.

    Both rings go through the same Bareiss fraction-free elimination, so a
    matrix of size n costs O(n^3) ring operations.  Each division by the
    previous pivot is exact (Bareiss, Math. Comp. 1968); over Z[x] it is the
    exact quotient ``//`` of IntPolynomial, which raises InconsistencyError
    should a remainder ever appear.  A matrix with any IntPolynomial entry is
    computed over Z[x] and its determinant is an IntPolynomial.  Any other
    entry, a Fraction or a float say, raises DomainError: ``//`` would floor
    its quotients.
    """
    diagonal, swaps = _bareiss(_matrix(rows))
    return -diagonal[-1] if swaps % 2 else diagonal[-1]


def leading_principal_minors(rows: Sequence[Sequence[int | IntPolynomial]]) -> list:
    """Determinants of the leading 1x1, 2x2, ..., nxn submatrices of a square
    matrix of ints or of IntPolynomials, from one Bareiss elimination: while
    no row has been swapped, the diagonal entry met at step k is the leading
    (k+1)x(k+1) minor.

    Elimination cannot pass a zero minor without pivoting, so a zero before
    the last one raises InconsistencyError; callers use this on matrices
    whose minors are known to be positive, such as moment matrices of a
    positive measure.  Entries are checked, and a matrix with any
    IntPolynomial entry is computed over Z[x], as in fraction_free_det.
    """
    minors, swaps = _bareiss(_matrix(rows))
    if swaps or len(minors) < len(rows):
        k = minors.index(0) + 1
        raise InconsistencyError(f"leading {k}x{k} minor is zero; cannot eliminate")
    return minors


def _matrix(rows: Sequence[Sequence]) -> list[list]:
    """A copy of rows, a nonempty square matrix whose entries are ints (not
    bools) or IntPolynomials, the rings where Bareiss divides exactly.  A
    matrix with any IntPolynomial entry is copied as a matrix over Z[x]."""
    m = [list(row) for row in rows]
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise DomainError("determinants require a nonempty square matrix")
    for row in m:
        for e in row:
            if isinstance(e, bool) or not isinstance(e, (int, IntPolynomial)):
                raise DomainError(f"determinant entries must be int or IntPolynomial, got {e!r}")
    if any(isinstance(e, IntPolynomial) for row in m for e in row):
        m = [[_as_poly(e) for e in row] for row in m]
    return m


def _bareiss(m: list[list]) -> tuple[list, int]:
    """Bareiss elimination of the square matrix m, in place.

    Returns the diagonal entry met at each step, before any swap, and the
    number of row swaps.  A zero pivot's row is swapped with the first row
    below it that is nonzero in the pivot column; a column with no such row
    ends the elimination, with that zero, the ring's zero, as the last
    entry.  Otherwise the last entry is the determinant times (-1)^swaps.
    """
    n = len(m)
    diagonal = []
    swaps = 0
    prev = 1
    for k in range(n - 1):
        diagonal.append(m[k][k])
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    swaps += 1
                    break
            else:
                return diagonal, swaps
        pivot = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            head = row_i[k]
            for j in range(k + 1, n):
                # Bareiss: the division by the previous pivot is always exact.
                row_i[j] = (pivot * row_i[j] - head * row_k[j]) // prev
        prev = pivot
    diagonal.append(m[n - 1][n - 1])
    return diagonal, swaps


# ---------------------------------------------------------------------------
# Sturm chains from one primitive remainder sequence over Z


def _primitive(p: IntPolynomial) -> IntPolynomial:
    """p divided by its positive content; the sign of p is kept."""
    content = math.gcd(*p.coeffs)
    return p if content <= 1 else _poly([c // content for c in p.coeffs])


def _neg_pseudo_remainder(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """A positive multiple of -rem(a, b), by pseudo-division over Z.

    Each step multiplies the running remainder by |lc(b)| and subtracts the
    multiple of b that carries the sign of lc(b), so the top coefficient
    cancels without a fraction and the result is c.rem(a, b) with c > 0.
    """
    b_low = b.coeffs[:-1]
    lead = b.leading_coefficient
    scale = abs(lead)
    sign = 1 if lead > 0 else -1
    rem = list(a.coeffs)
    while len(rem) > len(b_low):
        top = rem.pop()
        if top:
            shift = len(rem) - len(b_low)
            t = sign * top
            rem[:shift] = [scale * c for c in rem[:shift]]
            rem[shift:] = [scale * c - t * bc for c, bc in zip(rem[shift:], b_low)]
    return _poly([-c for c in rem])


def _remainder_sequence(p: IntPolynomial) -> list[IntPolynomial]:
    """The primitive remainder sequence p, p', ... of a nonzero p: each next
    element is the primitive part of a positive multiple of -rem(a, b), so
    each is a positive multiple of the classical Sturm element, and the last
    one is gcd(p, p') up to a nonzero constant (Collins, JACM 1967; Brown and
    Traub, JACM 1971)."""
    prs = [_primitive(p), _primitive(p.derivative())]
    while prs[-1].degree > 0:
        rem = _neg_pseudo_remainder(prs[-2], prs[-1])
        if not rem:
            break
        prs.append(_primitive(rem))
    return prs if prs[-1] else prs[:-1]


def _sign_at(p: IntPolynomial, point) -> int:
    cs = p.coeffs
    if point == math.inf:
        v = cs[-1]
    elif point == -math.inf:
        v = cs[-1] if len(cs) % 2 else -cs[-1]
    else:
        q = Fraction(point)
        v = _homogenised_value(cs, q.numerator, q.denominator)
    return (v > 0) - (v < 0)


def _variations(chain: list[IntPolynomial], point) -> int:
    signs = [s for s in (_sign_at(c, point) for c in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_root_count(p: IntPolynomial, lo, hi) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi].

    Endpoints may be Fractions, ints, or +/-math.inf.  The Sturm chain comes
    from one primitive remainder sequence of p and p' computed over Z by
    pseudo-division, so no coefficient is ever a fraction.  Its last element
    is g = gcd(p, p'), and dividing every element exactly by g gives a Sturm
    chain of the square-free part p/g from the same run, so multiple roots
    count once, also at an endpoint.  Signs at a finite endpoint num/den are
    those of den^d times each element's value, computed in integers.
    """
    if not p:
        raise DomainError("root counting needs a nonzero polynomial")
    for e in (lo, hi):
        if isinstance(e, float) and math.isfinite(e):
            raise DomainError("finite endpoints must be exact (int or Fraction)")
    if not lo < hi:
        raise DomainError(f"empty interval ({lo}, {hi}]")
    if p.degree == 0:
        return 0
    chain = _remainder_sequence(p)
    gcd = chain[-1]
    if gcd.degree > 0:
        chain = [e // gcd for e in chain]
    return _variations(chain, lo) - _variations(chain, hi)

