"""Tests for r-Stirling numbers of both kinds."""

import math
import pathlib
import random
import sys
from fractions import Fraction
from types import ModuleType

import pytest

import rbell.stirling
import rbell.verify

from rbell.algebra import IntPolynomial, falling_factorial_poly, pochhammer
from rbell.analytic import max_index
from rbell.bell import rbell_number, rbell_poly, rbell_table
from rbell.errors import DomainError
from rbell.stirling import (
    binomial,
    horizontal_checks,
    stirling1r,
    stirling2r,
    stirling2r_explicit,
    stirling_row,
    stirling_rows,
)


def test_binomial():
    assert binomial(5, 2) == 10
    assert binomial(0, 0) == 1
    assert binomial(3, 7) == 0
    with pytest.raises(DomainError):
        binomial(-1, 0)
    with pytest.raises(DomainError):
        binomial(3, -2)


def test_stirling2r_examples():
    # partitions of {1,2,3,4} into 2 blocks with 1 and 2 separated
    assert stirling2r(4, 2, 2) == 4
    assert stirling2r(5, 3, 2) == 19
    assert stirling2r(2, 2, 2) == 1
    # the r = 0 column is the classical triangle
    assert stirling2r(4, 2, 0) == 7
    assert stirling2r(6, 3, 0) == 90


def test_stirling2r_boundaries():
    for r in range(6):
        assert stirling2r(r, r, r) == 1
        assert stirling2r(r + 3, r + 3, r) == 1
    assert stirling2r(3, 1, 2) == 0  # k < r
    assert stirling2r(1, 2, 2) == 0  # n < r
    assert stirling2r(4, 5, 0) == 0  # k > n
    assert stirling2r(0, 0, 0) == 1


def test_stirling2r_rejects_negatives_and_bools():
    with pytest.raises(DomainError):
        stirling2r(-1, 0, 0)
    with pytest.raises(DomainError):
        stirling2r(3, -1, 0)
    with pytest.raises(DomainError):
        stirling2r(3, 1, -2)
    with pytest.raises(DomainError):
        stirling2r(True, 1, 0)


def test_stirling1r_examples():
    assert stirling1r(3, 2, 2) == 2
    assert stirling1r(4, 3, 2) == 5
    # classical column: unsigned Stirling numbers of the first kind
    assert stirling1r(4, 2, 0) == 11
    assert stirling1r(5, 1, 1) == 24
    for n in range(8):
        assert stirling1r(n, n, min(n, 2)) == 1
    with pytest.raises(DomainError):
        stirling1r(2, 2, -1)


def test_stirling1r_row_sums():
    # sum_k [n+r, k+r]_r = (r+1)(r+2)...(r+n): permutations of n free
    # elements woven around r anchored cycles
    for r in range(0, 7):
        for n in range(0, 9):
            total = sum(stirling1r(n + r, k + r, r) for k in range(n + 1))
            assert total == pochhammer(r + 1, n)


def test_explicit_formula_examples():
    # shifted convention: arguments (n, k, r) give {n+r, k+r}_r
    assert stirling2r_explicit(2, 1, 2) == 5
    assert stirling2r_explicit(2, 2, 2) == 1
    for r in range(6):
        for n in range(6):
            assert stirling2r_explicit(n, 0, r) == r**n


def test_explicit_matches_recurrence():
    for r in range(0, 9):
        for n in range(0, 11):
            for k in range(0, n + 1):
                assert stirling2r_explicit(n, k, r) == stirling2r(n + r, k + r, r)


def test_second_kind_row_sums_match_partition_counts():
    # row sums over k reproduce the number of partitions with 1..r separated,
    # checked against an independent binomial convolution of Bell numbers
    bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    for r in range(4):
        for n in range(6):
            row = sum(stirling2r(n + r, k + r, r) for k in range(n + 1))
            conv = sum(math.comb(n, j) * r**j * bell[n - j] for j in range(n + 1))
            assert row == conv


def test_horizontal_check_is_zero():
    assert horizontal_checks(2, 2)[2] == IntPolynomial()
    assert horizontal_checks(1, 5)[1] == IntPolynomial()
    assert horizontal_checks(3, 1)[3] == IntPolynomial()
    for r in (*range(0, 9), 16):
        residuals = horizontal_checks(40, r)
        assert len(residuals) == 41
        for n, residual in enumerate(residuals):
            assert not residual, (n, r)


def test_horizontal_check_sees_a_perturbed_row_entry(monkeypatch):
    original = rbell.stirling.stirling_rows

    def perturbed(kind, r, n_max, width=None):
        for m, row in enumerate(original(kind, r, n_max, width), start=r):
            yield (*row[:k], row[k] + 1, *row[k + 1:]) if m == n + r else row

    for n, r, k in ((1, 0, 0), (5, 2, 0), (12, 3, 7), (40, 1, 40), (40, 4, 17)):
        monkeypatch.setattr(rbell.stirling, "stirling_rows", perturbed)
        residuals = horizontal_checks(n, r)
        monkeypatch.undo()
        # the residual of row n + r is minus the falling factorial of the
        # perturbed column, and every row before it has none
        assert residuals[-1] == -falling_factorial_poly(k)
        assert not any(residuals[:-1])


def test_cross_r_recurrence_between_triangles():
    # {n, k}_r = {n, k}_{r-1} - (r-1) {n-1, k}_{r-1}
    for r in range(1, 9):
        for n in range(r, 13):
            for k in range(0, n + 1):
                lhs = stirling2r(n, k, r)
                rhs = stirling2r(n, k, r - 1) - (r - 1) * stirling2r(n - 1, k, r - 1)
                assert lhs == rhs


def test_second_kind_log_concavity_random_rows():
    rng = random.Random(5150)
    for _ in range(40):
        r = rng.randrange(0, 9)
        n = rng.randrange(r, r + 13)
        row = [stirling2r(n, k, r) for k in range(max(r, 1), n + 1)]
        for a, b, c in zip(row, row[1:], row[2:]):
            assert b * b >= a * c


def test_stirling_rows_match_closed_forms():
    # second kind: the alternating sum; first kind: the row generating function
    # sum_j [n+r, r+j]_r x^j = (x+r)(x+r+1)...(x+r+n-1)
    for r in range(5):
        rising = IntPolynomial([1])
        for n in range(12):
            assert stirling_row(2, n + r, r) == tuple(
                stirling2r_explicit(n, j, r) for j in range(n + 1)
            )
            assert stirling_row(1, n + r, r) == rising.coeffs
            rising = rising * IntPolynomial([r + n, 1])
        if r:
            assert stirling_row(1, r - 1, r) == stirling_row(2, r - 1, r) == ()
    assert stirling_row(2, 4, 0) == (0, 1, 7, 6, 1)
    assert stirling_row(1, 4, 0) == (0, 6, 11, 6, 1)
    with pytest.raises(DomainError):
        stirling_row(3, 4, 0)
    with pytest.raises(DomainError):
        stirling_row(2, -1, 0)


def test_no_unbounded_caches():
    src = pathlib.Path(rbell.stirling.__file__).parent
    for path in src.glob("*.py"):
        text = path.read_text()
        for cache in ("maxsize=None", "@cache", "OrderedDict", "lru_cache"):
            assert cache not in text, (path.name, cache)


def test_stirling_module_holds_no_mutable_state():
    # a row is built by its own walk and kept by no one: every module-level
    # name is a function, a class or an imported module
    for name, value in vars(rbell.stirling).items():
        if not name.startswith("__") and name != "annotations":
            assert callable(value) or isinstance(value, ModuleType), name


# ---------------------------------------------------------------------------
# walks and width-bounded rows


def _full_row(kind, n, r):
    """Row n of the r-Stirling triangle by a route that builds no row: the
    alternating sum (second kind) or the rising factorial (first kind)."""
    if kind == 2:
        return tuple(stirling2r_explicit(n - r, j, r) for j in range(n - r + 1))
    rising = IntPolynomial([1])
    for i in range(r, n):
        rising = rising * IntPolynomial([i, 1])
    return rising.coeffs


@pytest.mark.parametrize("kind", (1, 2))
def test_stirling_rows_walk_every_row(kind):
    for r in (0, 1, 4):
        rows = list(stirling_rows(kind, r, r + 25))
        assert rows == [_full_row(kind, n, r) for n in range(r, r + 26)]
        assert list(stirling_rows(kind, r, r + 25, 3)) == [row[:3] for row in rows]
        assert list(stirling_rows(kind, r, r + 25, 0)) == [()] * 26
        assert list(stirling_rows(kind, r + 1, r)) == []
    for args in ((3, 0, 4), (kind, -1, 4), (kind, 0, -1), (kind, 0, 4, -1), (kind, True, 4)):
        with pytest.raises(DomainError):
            next(stirling_rows(*args))


def test_narrow_query_leaves_full_rows_intact():
    n, r = 40, 2
    assert stirling2r(n, r + 3, r) == _full_row(2, n, r)[3]
    assert stirling1r(n, r + 2, r) == _full_row(1, n, r)[2]
    assert stirling_row(2, n, r) == _full_row(2, n, r)
    assert stirling_row(1, n, r) == _full_row(1, n, r)

    # the r-Bell layers read row m + r in full after a narrow query of it
    def narrow(m):
        stirling2r(m + r, r + 1, r)
        return _full_row(2, m + r, r)

    narrow(43)
    assert rbell_number(43, r) == rbell_table(43, r)[r][43]
    row = narrow(30)
    assert rbell_poly(30, r).coeffs == row
    row = narrow(25)
    best = max(row)
    assert max_index(25, r).maximizers == tuple(r + j for j, v in enumerate(row) if v == best)


@pytest.mark.parametrize("kind", (1, 2))
@pytest.mark.parametrize("r", (0, 1, 5))
def test_sweeps_of_one_row_match_the_full_row(kind, r):
    point = stirling2r if kind == 2 else stirling1r
    n = r + 30
    full = _full_row(kind, n, r)
    ascending = [point(n, k, r) for k in range(r, n + 1)]
    descending = [point(n, k, r) for k in range(n, r - 1, -1)][::-1]
    assert ascending == descending == list(full)
    assert stirling_row(kind, n, r) == full


@pytest.fixture
def walks(monkeypatch):
    """Every stirling_rows walk started, as its (kind, r, n_max, width),
    in every rbell module that reads the walk."""
    started = []
    original = rbell.stirling.stirling_rows

    def counted(kind, r, n_max, width=None):
        started.append((kind, r, n_max, width))
        return original(kind, r, n_max, width)

    for name, module in list(sys.modules.items()):
        if name.startswith("rbell.") and getattr(module, "stirling_rows", None) is original:
            monkeypatch.setattr(module, "stirling_rows", counted)
    return started


def test_point_queries_walk_only_their_columns(walks):
    # a point query is one walk from row r, each step m -> m+1 filling
    # min(m - r + 2, width) columns, so row n costs its columns r..k only
    n, r = 400, 0
    for k in range(n + 1):
        stirling2r(n, k, r)
    assert walks == [(2, r, n, k - r + 1) for k in range(n + 1)]
    walks.clear()
    assert len(stirling_row(1, n, r)) == n - r + 1
    assert walks == [(1, r, n, None)]


def test_mixed_widths_match_the_full_row():
    rng = random.Random(2718)
    for _ in range(200):
        kind, r = rng.choice((1, 2)), rng.randrange(0, 4)
        n = rng.randrange(r, r + 20)
        k = rng.randrange(r, n + 1)
        got = (stirling2r if kind == 2 else stirling1r)(n, k, r)
        assert got == _full_row(kind, n, r)[k - r], (kind, n, k, r)
    for width in (3, 1, 7, 2, 30, 5, 4):
        assert stirling_row(2, 25, 1, width) == _full_row(2, 25, 1)[:width]
    with pytest.raises(DomainError):
        stirling_row(2, 25, 1, -1)


# the rows whose scans read several rows or values of one r, by the name of
# their first check; the rest scan per point (real-rootedness), read a
# fixed few points (the erratum) or read no row
_WALKING = {
    "explicit-formula", "polynomial-formulas", "bell-addition", "horizontal-gf",
    "route-agreement", "derivative-relation", "monic-shape", "whitehead-step",
    "bell-shift", "transform-roundtrip", "poly-binomial-relations", "layman-hankel",
    "log-convexity", "cigler-determinants", "dobinski-enclosure", "cesaro-integral",
    "egf-coefficients", "maximizing-index", "oracle-totals",
}


@pytest.mark.parametrize("nmax", (14, 20))
def test_scans_make_a_few_walks_per_r(walks, nmax):
    # at --rmax 9 a grid of n <= 14 has 150 points and n <= 20 has 210; a
    # scan that walks once per point would grow with them
    rmax = 9
    counts = {}
    for check in rbell.verify._CHECKS:
        if check.names[0] in _WALKING or check.suite == "carlitz":
            n = rbell.verify._axis(check.nmax, nmax, check.n_cap)
            walks.clear()
            assert list(check.scan(n, rbell.verify._axis(check.rmax, rmax))) == []
            counts[check.suite if check.suite == "carlitz" else check.names[0]] = len(walks)
    assert set(counts) == _WALKING | {"carlitz"}
    # the four row checks of definitions read one walk per r, and the
    # cross-r check the (r-1)-walk beside it for r >= 1
    assert counts.pop("explicit-formula") == 2 * rmax + 1
    # one list per r: the polynomials n <= 4, the residuals, and the exact
    # B_{n,r} of the quadrature pass
    for name in ("polynomial-formulas", "horizontal-gf", "cesaro-integral"):
        assert counts.pop(name) == rmax + 1, name
    # whitehead-step also sums the anti-diagonals n <= 5 point by point
    assert counts.pop("whitehead-step") == 3 * (rmax + 1) + 15
    # the oracle reads row n + r and its sum from one walk per r
    assert counts.pop("oracle-totals") == rmax + 1
    # each (r, n) pair of the carlitz scan calls both Carlitz sums, and each
    # walks its r-Stirling rows and its Bell numbers once
    assert counts.pop("carlitz") == (rmax + 1) * (1 + 4 * (nmax + 1))
    assert max(counts.values()) <= 3 * (rmax + 1)


def test_row_1200_point_queries_match_closed_forms():
    # {n, k}_1 = {n-1, k-1}, the alternating sum; [n, k]_1 = [n, k] =
    # (n-1)! e_{k-1}(1, 1/2, ..., 1/(n-1)), the elementary symmetric functions
    # of the reciprocals from their power sums by Newton's identities
    n = 1200
    power = [None] + [sum(Fraction(1, i**j) for i in range(1, n)) for j in range(1, 5)]
    e = [Fraction(1)]
    for m in range(1, 5):
        e.append(sum((-1) ** (i - 1) * e[m - i] * power[i] for i in range(1, m + 1)) / m)
    assert stirling2r(n, 0, 1) == stirling1r(n, 0, 1) == 0
    for k in range(1, 6):
        assert stirling2r(n, k, 1) == stirling2r_explicit(n - 1, k - 1, 1)
        first = math.factorial(n - 1) * e[k - 1]
        assert first.denominator == 1
        assert stirling1r(n, k, 1) == first.numerator
