"""Tests for binomial/Hankel transforms, log-convexity, and Cigler determinants."""

import math
import random

import pytest

from rbell.algebra import IntPolynomial, fraction_free_det
from rbell.bell import rbell_number, rbell_poly
from rbell.errors import DomainError
from rbell.transforms import (
    binomial_transform,
    cigler_closed_form,
    cigler_d,
    cigler_minors,
    hankel_transform_rbell,
    inverse_binomial_transform,
    log_convexity_check,
)

X = IntPolynomial([0, 1])


def _hankel_det(seq, n, k=0):
    """The n x n determinant det(seq[i + j + k]), one pivoting elimination."""
    return fraction_free_det([[seq[i + j + k] for j in range(n)] for i in range(n)])


def test_binomial_transform_examples():
    # the 2-Bell row is the inverse binomial transform of the 3-Bell row
    assert inverse_binomial_transform([1, 3, 10, 37]) == [1, 4, 17, 77]
    assert inverse_binomial_transform([1, 0, 0, 0]) == [1, 1, 1, 1]
    assert binomial_transform([1, 1, 1, 1]) == [1, 0, 0, 0]
    assert binomial_transform([]) == []


def test_binomial_transform_roundtrip_random():
    rng = random.Random(1105)
    for _ in range(50):
        seq = [rng.randint(-40, 40) for _ in range(rng.randrange(1, 12))]
        assert inverse_binomial_transform(binomial_transform(seq)) == seq
        assert binomial_transform(inverse_binomial_transform(seq)) == seq


def test_binomial_transform_shifts_bell_rows():
    for r in range(0, 7):
        left = [rbell_number(n, r) for n in range(9)]
        right = [rbell_number(n, r + 1) for n in range(9)]
        assert inverse_binomial_transform(left) == right
        assert binomial_transform(right) == left


def test_hankel_det_examples():
    assert _hankel_det([1, 3, 10], 2) == 1
    assert _hankel_det([7, 9], 1) == 7
    assert _hankel_det([1, 3, 10, 37, 151], 3) == 2
    # offset k shifts every entry
    assert _hankel_det([1, 3, 10, 37], 2, k=1) == 3 * 37 - 10 * 10


def test_hankel_transform_examples():
    assert hankel_transform_rbell(2, 2) == [1, 1, 2]
    assert hankel_transform_rbell(0, 3) == [1, 1, 2, 12]
    assert hankel_transform_rbell(4, 0) == [1]


def test_hankel_transform_is_r_independent():
    expected = [math.prod(math.factorial(j) for j in range(n + 1)) for n in range(6)]
    assert expected == [1, 1, 2, 12, 288, 34560]
    for r in range(0, 7):
        assert hankel_transform_rbell(r, 5) == expected


def test_hankel_transform_matches_separate_determinants():
    # one elimination's leading minors against one determinant per size
    for r in range(5):
        seq = [rbell_number(m, r) for m in range(25)]
        assert hankel_transform_rbell(r, 12) == [_hankel_det(seq, n + 1) for n in range(13)]


def test_polynomial_hankel_rows():
    # determinants of polynomial-valued Bell sequences stay exact
    polys = [rbell_poly(m, 2) for m in range(5)]
    d2 = _hankel_det(polys, 2)
    assert d2 == polys[0] * polys[2] - polys[1] * polys[1]
    assert d2 == X


def test_log_convexity():
    assert log_convexity_check([1, 3, 10, 37])
    assert log_convexity_check([1, 1, 1])
    assert not log_convexity_check([1, 3, 8])
    with pytest.raises(DomainError):
        log_convexity_check([1, 2])


def test_rbell_rows_are_log_convex():
    for r in range(0, 9):
        row = [rbell_number(n, r) for n in range(13)]
        assert log_convexity_check(row)


def test_cigler_examples():
    computed, expected = cigler_d(2, 0, 2)
    assert computed == expected == X
    computed, expected = cigler_d(2, 1, 0)
    assert computed == expected == X**3
    for r in range(5):
        computed, expected = cigler_d(1, 1, r)
        assert computed == expected == X + r


def test_cigler_closed_forms_hold():
    for r in range(0, 5):
        for n in range(1, 6):
            for k in (0, 1):
                computed, expected = cigler_d(n, k, r)
                assert computed == expected


def test_cigler_minors_are_the_determinants_of_every_size():
    # one elimination against one pivoting determinant per size
    for r in range(4):
        for k in (0, 1, 2):
            polys = [rbell_poly(m, r) for m in range(2 * 5 + k + 1)]
            minors = cigler_minors(6, k, r)
            assert minors == [_hankel_det(polys, n, k) for n in range(1, 7)], (k, r)
            if k < 2:
                assert minors == [cigler_closed_form(n, k, r) for n in range(1, 7)], (k, r)
    with pytest.raises(DomainError):
        cigler_minors(0, 0, 1)


def test_cigler_validation():
    with pytest.raises(DomainError):
        cigler_d(0, 0, 1)
    with pytest.raises(DomainError):
        cigler_d(2, 2, 1)


def test_cigler_closed_forms_to_size_10():
    for r in range(4):
        for n in range(1, 11):
            for k in (0, 1):
                computed, expected = cigler_d(n, k, r)
                assert computed == expected, (n, k, r)
