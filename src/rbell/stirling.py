"""r-Stirling numbers of both kinds, binomial coefficients, and the
horizontal generating-function identity.

Conventions follow Broder's triangles.  {n, k}_r counts partitions of
{1, ..., n} into k nonempty blocks with the elements 1..r in distinct blocks;
[n, k]_r counts permutations with k cycles and 1..r in distinct cycles.
Out-of-range indices yield 0, so identity sums can run over natural ranges
without guards.  The sole exception to the unshifted convention is
:func:`stirling2r_explicit`, which takes the shifted indices (n, k, r) and
returns {n+r, k+r}_r; keeping the shift explicit avoids off-by-r bugs.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import repeat
from operator import add, mul, sub

from .algebra import IntPolynomial
from .errors import DomainError, InconsistencyError


def _check_natural(**kwargs: int) -> None:
    for name, v in kwargs.items():
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise DomainError(f"{name} must be a natural number, got {v!r}")


def binomial(n: int, k: int) -> int:
    """C(n, k); 0 when k > n."""
    _check_natural(n=n, k=k)
    return math.comb(n, k)


def stirling_rows(kind: int, r: int, n_max: int, width: int | None = None) -> Iterator[tuple]:
    """Rows r..n_max of Broder's r-Stirling triangle of the first (kind = 1)
    or second (kind = 2) kind, in one walk; none when n_max < r.  Entry j of
    row n is [n, r+j]_r or {n, r+j}_r, j = 0..n-r; with a width, a row holds
    its first width entries only.  Row r is (1,), and each row follows from
    the one before by

        {m+1, r+j}_r = (r+j) {m, r+j}_r + {m, r+j-1}_r
        [m+1, r+j]_r =   m   [m, r+j]_r + [m, r+j-1]_r,

    both lower-triangular in j, so each step is truncated to the width.  Only
    the current row is held; the arguments are checked on the first step.
    """
    if kind not in (1, 2):
        raise DomainError(f"kind must be 1 or 2, got {kind!r}")
    _check_natural(n_max=n_max, r=r, width=0 if width is None else width)
    if n_max < r:
        return
    row = (1,)[:width]
    yield row
    for m in range(r, n_max):
        weights = range(r, m + 2) if kind == 2 else repeat(m)
        padded = row + (0,) if width is None or len(row) < width else row
        row = (*map(add, map(mul, weights, padded), (0,) + row),)
        yield row


def stirling_row(kind: int, n: int, r: int, width: int | None = None) -> tuple[int, ...]:
    """Row n (or its first width entries) of the r-Stirling triangle, empty
    when n < r: the last row of one :func:`stirling_rows` walk."""
    row = ()
    for row in stirling_rows(kind, r, n, width):
        pass
    return row


def stirling2r(n: int, k: int, r: int) -> int:
    """r-Stirling number of the second kind {n, k}_r (unshifted indices).
    Builds only columns r..k of row n."""
    _check_natural(n=n, k=k, r=r)
    return stirling_row(2, n, r, k - r + 1)[k - r] if r <= k <= n else 0


def stirling1r(n: int, k: int, r: int) -> int:
    """Unsigned r-Stirling number of the first kind [n, k]_r (unshifted).
    Builds only columns r..k of row n."""
    _check_natural(n=n, k=k, r=r)
    return stirling_row(1, n, r, k - r + 1)[k - r] if r <= k <= n else 0


def stirling2r_explicit(n: int, k: int, r: int) -> int:
    """{n+r, k+r}_r by the alternating sum

        k! {n+r, k+r}_r = sum_{j=0..k} (-1)^(k-j) C(k, j) (j+r)^n.

    Note the SHIFTED index convention: arguments (n, k, r) address the entry
    whose unshifted form is stirling2r(n + r, k + r, r).
    """
    _check_natural(n=n, k=k, r=r)
    total = 0
    for j in range(k + 1):
        term = math.comb(k, j) * (j + r) ** n
        total += term if (k - j) % 2 == 0 else -term
    quot, rem = divmod(total, math.factorial(k))
    if rem:
        raise InconsistencyError(
            f"alternating sum for (n={n}, k={k}, r={r}) is not divisible by k!"
        )
    return quot


def horizontal_checks(n_max: int, r: int) -> list[IntPolynomial]:
    """Residuals of the horizontal generating function

        (x+r)^n = sum_k {n+r, k+r}_r x^(k falling)

    for n = 0..n_max, from one walk, each row multiplying the left side once
    by x + r; the contract is the zero polynomial.  The right side is built
    in nested Newton form c_0 + x (c_1 + (x-1) (c_2 + ...)), one linear
    factor per step on its coefficient tuple, low to high.
    """
    _check_natural(n_max=n_max, r=r)
    lhs, factor = IntPolynomial((1,)), IntPolynomial((r, 1))
    residuals = []
    for row in stirling_rows(2, r, n_max + r):
        rhs = row[-1:]
        for k in range(len(row) - 2, -1, -1):  # rhs <- (x - k) rhs + row[k]
            rhs = (row[k] - k * rhs[0], *map(sub, rhs, map(mul, repeat(k), rhs[1:] + (0,))))
        residuals.append(lhs - IntPolynomial(rhs))
        lhs *= factor
    return residuals
