"""r-Bell numbers and polynomials via several independent routes.

The r-Bell polynomial is B_{n,r}(x) = sum_k {n+r, k+r}_r x^k and the r-Bell
number is its value at x = 1.  Besides the defining coefficient route, the
polynomials are rebuilt from the derivative recurrence, from ordinary Bell
polynomials, and from the corrected cross-parameter step, so that the verify
suites can compare genuinely different computations.

Identity operations (Carlitz composition/inversion, the Whitehead-table
recurrence) return the computed right-hand side and leave the comparison to
the caller; that keeps the verification plumbing uniform.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import accumulate
from operator import mul

from .algebra import IntPolynomial
from .errors import DomainError
from .stirling import _check_natural, binomial, stirling_row, stirling_rows


def rbell_poly(n: int, r: int) -> IntPolynomial:
    """B_{n,r}(x) directly from its r-Stirling coefficients.

    Invariants (asserted by the test suite): monic of degree n, constant term
    r^n, and all coefficients positive for n >= 1 except the constant term
    when r = 0.
    """
    _check_natural(n=n, r=r)
    return IntPolynomial(stirling_row(2, n + r, r))


def rbell_polys(n_max: int, r: int) -> list[IntPolynomial]:
    """B_{0,r}(x), ..., B_{n_max,r}(x) from their r-Stirling coefficients:
    rows r..n_max+r of one walk."""
    _check_natural(n_max=n_max, r=r)
    return [IntPolynomial(row) for row in stirling_rows(2, r, n_max + r)]


def rbell_polys_rec(n_max: int, r: int) -> list[IntPolynomial]:
    """B_{0,r}(x), ..., B_{n_max,r}(x) built solely from the derivative
    recurrence

        B_{n,r}(x) = x (B'_{n-1,r}(x) + B_{n-1,r}(x)) + r B_{n-1,r}(x)

    starting at B_{0,r} = 1, in one walk.
    """
    _check_natural(n_max=n_max, r=r)
    x = IntPolynomial((0, 1))
    polys = [IntPolynomial((1,))]
    for _ in range(n_max):
        p = polys[-1]
        polys.append(x * (p.derivative() + p) + r * p)
    return polys


def rbell_number(n: int, r: int) -> int:
    """B_{n,r} = B_{n,r}(1), the sum of the r-Stirling coefficients."""
    _check_natural(n=n, r=r)
    return sum(stirling_row(2, n + r, r))


def rbell_numbers(n_max: int, r: int) -> list[int]:
    """B_{0,r}, ..., B_{n_max,r}, the sums of rows r..n_max+r of one walk."""
    _check_natural(n_max=n_max, r=r)
    return [sum(row) for row in stirling_rows(2, r, n_max + r)]


def rbell_polys_from_bell(n_max: int, r: int) -> list[IntPolynomial]:
    """B_{0,r}(x), ..., B_{n_max,r}(x), each as a binomial sum of ordinary
    Bell polynomials

        B_{n,r}(x) = sum_k r^k C(n, k) B_{n-k}(x),

    with B_0(x), ..., B_{n_max}(x) built once, by :func:`rbell_polys` at r = 0.
    """
    _check_natural(n_max=n_max, r=r)
    bells = rbell_polys(n_max, 0)
    polys = []
    for n in range(n_max + 1):
        acc = IntPolynomial()
        for k in range(n + 1):
            acc = acc + (r**k * binomial(n, k)) * bells[n - k]
        polys.append(acc)
    return polys


def cross_r_steps(n_max: int, r: int) -> list[IntPolynomial]:
    """B_{0,r}(x), ..., B_{n_max,r}(x) reconstructed from the (r-1)-row via

        x B_{n,r}(x) = B_{n+1,r-1}(x) - (r-1) B_{n,r-1}(x),

    the polynomial consequence of Broder's Stirling-level cross-parameter
    identity, with B_{0..n_max+1,r-1} from one walk.  A frequently printed
    simplified form omits the factor x on the left; see
    :func:`cross_r_printed` and the verify suite's KNOWN-ERRATUM check for
    that misprint.
    """
    _check_natural(n_max=n_max, r=r)
    if r < 1:
        raise DomainError("cross_r_steps needs r >= 1")
    lower = rbell_polys(n_max + 1, r - 1)
    x = IntPolynomial((0, 1))
    return [(b - (r - 1) * a) // x for a, b in zip(lower, lower[1:])]


def cross_r_printed(n: int, r: int) -> IntPolynomial:
    """The misprinted cross-parameter step B_{n,r-1}(x) - (r-1) B_{n-1,r-1}(x).

    Retained only so the verify suite can document that this commonly printed
    form contradicts the tables (it yields 3 instead of 10 for n = r = 2).
    """
    _check_natural(n=n, r=r)
    if n < 1 or r < 1:
        raise DomainError("cross_r_printed needs n >= 1 and r >= 1")
    return rbell_poly(n, r - 1) - (r - 1) * rbell_poly(n - 1, r - 1)


def _horner(coeffs: list[int], s: int) -> int:
    """sum_k coeffs[k] s^(d-k), d = len(coeffs) - 1, by Horner's rule."""
    acc = 0
    for c in coeffs:
        acc = acc * s + c
    return acc


def carlitz_compositions(n: int, m_max: int, r: int) -> list[int]:
    """Carlitz's compositions sum_{j=0..m} {m+r, j+r}_r B_{n,r+j}, m = 0..m_max;
    contract: entry m equals rbell_number(n + m, r).  Each B_{n,r+j} is
    computed once, as B_{n,s} = sum_k C(n, k) s^(n-k) B_k over the Bell
    numbers B_k from one walk (:func:`rbell_numbers` at r = 0); the
    r-Stirling rows come from one walk too."""
    _check_natural(n=n, m_max=m_max, r=r)
    weights = [math.comb(n, k) * b for k, b in enumerate(rbell_numbers(n, 0))]
    values = [_horner(weights, r + j) for j in range(m_max + 1)]  # B_{n,r+j}
    return [sum(map(mul, row, values)) for row in stirling_rows(2, r, m_max + r)]


def carlitz_inversions(n: int, m_max: int, r: int) -> list[int]:
    """Carlitz's inversions sum_{j=0..m} (-1)^(m-j) [m+r, j+r]_r B_{n+j,r},
    m = 0..m_max, each B_{n+j,r} computed once as in carlitz_compositions;
    contract: entry m equals rbell_number(n, r + m)."""
    _check_natural(n=n, m_max=m_max, r=r)
    bells = rbell_numbers(n + m_max, 0)
    signed = [  # (-1)^j B_{n+j,r}
        (-1) ** j * _horner([math.comb(n + j, k) * bells[k] for k in range(n + j + 1)], r)
        for j in range(m_max + 1)
    ]
    rows = stirling_rows(1, r, m_max + r)
    return [(-1) ** m * sum(map(mul, row, signed)) for m, row in enumerate(rows)]


def whitehead_steps(n_max: int, r: int) -> list[int]:
    """r B_{n,r} + B_{n,r+1} for n = 0..n_max, from one walk each of r and
    r + 1; contract: entry n equals rbell_number(n + 1, r)."""
    _check_natural(n_max=n_max, r=r)
    return [r * a + b for a, b in zip(rbell_numbers(n_max, r), rbell_numbers(n_max, r + 1))]


def whitehead_row_sum(n: int) -> int:
    """The anti-diagonal row sum sum_{i=1..n} B_{i,n-i}."""
    _check_natural(n=n)
    if n < 1:
        raise DomainError("whitehead_row_sum needs n >= 1")
    return sum(rbell_number(i, n - i) for i in range(1, n + 1))


def rbell_table_rows(n_max: int, r_max: int) -> Iterator[list[int]]:
    """Rows r = 0..r_max of the r-Bell table in one walk: row r holds
    B_{0,r}, ..., B_{n_max,r}.

    Row 0 holds the Bell numbers B_0..B_{n_max+r_max}, read off the first
    column of the Bell triangle; each further row follows from the one before
    by Whitehead's step B_{n,r+1} = B_{n+1,r} - r B_{n,r}, which shortens it
    by one, and is yielded cut to its first n_max + 1 entries.  This route
    never touches the r-Stirling coefficients that rbell_number sums.  The
    walk holds the current row and the last row of the Bell triangle, never
    the whole table; the arguments are checked on the first step.
    """
    _check_natural(n_max=n_max, r_max=r_max)
    row = [1]
    triangle = [1]
    for _ in range(n_max + r_max):
        triangle = list(accumulate(triangle, initial=triangle[-1]))
        row.append(triangle[0])
    yield row[: n_max + 1]
    for r in range(r_max):
        row = [b - r * a for a, b in zip(row, row[1:])]
        yield row[: n_max + 1]


def rbell_table(n_max: int, r_max: int) -> list[list[int]]:
    """Matrix with entry (r, n) = B_{n,r}, rows r = 0..r_max, columns
    n = 0..n_max: the rows of one :func:`rbell_table_rows` walk."""
    return list(rbell_table_rows(n_max, r_max))
