"""Tests for r-Stirling numbers of both kinds."""

import math
import pathlib
import random

import pytest

import rbell.stirling

from rbell.algebra import IntPolynomial, pochhammer
from rbell.errors import DomainError
from rbell.stirling import (
    binomial,
    horizontal_check,
    stirling1r,
    stirling2r,
    stirling2r_explicit,
    stirling_row,
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
    assert horizontal_check(2, 2) == IntPolynomial()
    assert horizontal_check(1, 5) == IntPolynomial()
    assert horizontal_check(3, 1) == IntPolynomial()
    for r in range(0, 9):
        for n in range(0, 13):
            assert horizontal_check(n, r).is_zero()


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


def test_row_cache_is_bounded():
    for r in range(3 * rbell.stirling._ROW_CACHE_SIZE):
        stirling_row(2, r + 5, r)
        stirling_row(1, r + 5, r)
    assert len(rbell.stirling._rows) <= rbell.stirling._ROW_CACHE_SIZE


def test_no_unbounded_caches():
    src = pathlib.Path(rbell.stirling.__file__).parent
    for path in src.glob("*.py"):
        text = path.read_text()
        assert "maxsize=None" not in text and "@cache" not in text, path.name
