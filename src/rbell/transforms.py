"""Binomial and Hankel transforms, log-convexity, and Cigler's determinants.

The transforms accept sequences of ints or of IntPolynomials; both rings
support the integer scalar multiples and sums the definitions need.
"""

from __future__ import annotations

import math

from .algebra import IntPolynomial, leading_principal_minors, pochhammer
from .bell import rbell_polys, rbell_table_rows
from .errors import DomainError
from .stirling import _check_natural


def binomial_transform(seq):
    """b_n = sum_k (-1)^(n-k) C(n, k) a_k, termwise over the given prefix."""
    out = []
    for n in range(len(seq)):
        acc = 0
        for k in range(n + 1):
            term = math.comb(n, k) * seq[k]
            acc = acc + term if (n - k) % 2 == 0 else acc - term
        out.append(acc)
    return out


def inverse_binomial_transform(seq):
    """a_n = sum_k C(n, k) b_k, the inverse of :func:`binomial_transform`."""
    return [
        sum(math.comb(n, k) * seq[k] for k in range(n + 1)) for n in range(len(seq))
    ]


def hankel_transform_rbell(r: int, n_max: int) -> list[int]:
    """Hankel transform of (B_{m,r})_m: term n is the (n+1) x (n+1) determinant.

    The sequence is row r, the last row of one :func:`rbell_table_rows` walk,
    and all terms come from one elimination: they are the leading principal
    minors of the largest Hankel matrix.  That matrix is the moment matrix of
    a positive measure, so every minor is positive and no pivoting is needed.

    Contract: term n equals 0! 1! ... n! regardless of r.
    """
    _check_natural(r=r, n_max=n_max)
    for seq in rbell_table_rows(2 * n_max, r):
        pass
    size = n_max + 1
    return leading_principal_minors([seq[i : i + size] for i in range(size)])


def log_convexity_check(seq) -> bool:
    """True iff seq[n-1] seq[n+1] >= seq[n]^2 for every interior index."""
    if len(seq) < 3:
        raise DomainError("log-convexity needs at least three terms")
    return all(
        seq[n - 1] * seq[n + 1] >= seq[n] ** 2 for n in range(1, len(seq) - 1)
    )


def cigler_minors(n_max: int, k: int, r: int) -> list[IntPolynomial]:
    """Cigler's shifted Hankel determinants d(n, k) = det(B_{i+j+k,r}(x))_{i,j<n}
    for n = 1..n_max, at entry n - 1.

    All of them come from one elimination: they are the leading principal
    minors of the n_max x n_max matrix.  None is zero, by the closed forms
    of :func:`cigler_closed_form`; a zero one raises InconsistencyError.
    """
    _check_natural(n_max=n_max, k=k, r=r)
    if n_max < 1:
        raise DomainError("cigler_minors needs n_max >= 1")
    polys = rbell_polys(2 * (n_max - 1) + k, r)
    return leading_principal_minors([polys[i + k : i + k + n_max] for i in range(n_max)])


def cigler_closed_form(n: int, k: int, r: int) -> IntPolynomial:
    """Cigler's closed form of d(n, k) for k in {0, 1}, with (r)_i the
    rising factorial:

        d(n, 0) = x^C(n,2) prod_{j<n} j!
        d(n, 1) = x^C(n,2) prod_{j<n} j! . sum_{j=0..n} C(n, j) x^j (r)_{n-j}
    """
    _check_natural(n=n, k=k, r=r)
    if n < 1:
        raise DomainError("Cigler's closed forms need n >= 1")
    if k not in (0, 1):
        raise DomainError("Cigler's closed forms are stated for k in {0, 1} only")
    prefactor = math.prod(math.factorial(j) for j in range(n))
    closed = IntPolynomial.monomial(n * (n - 1) // 2, prefactor)
    if k == 1:
        series = IntPolynomial(
            [math.comb(n, j) * int(pochhammer(r, n - j)) for j in range(n + 1)]
        )
        closed = closed * series
    return closed


def cigler_d(n: int, k: int, r: int) -> tuple[IntPolynomial, IntPolynomial]:
    """Cigler's d(n, k) and its closed form, as a (computed, expected) pair:
    the last of :func:`cigler_minors` and :func:`cigler_closed_form`."""
    expected = cigler_closed_form(n, k, r)  # rejects n and k before any elimination
    return cigler_minors(n, k, r)[-1], expected
