"""Tests for r-Bell numbers, polynomials, and the identity operations."""

import random

import pytest

from rbell import bell, verify
from rbell.algebra import IntPolynomial
from rbell.bell import (
    carlitz_compositions,
    carlitz_inversions,
    cross_r_printed,
    cross_r_steps,
    rbell_number,
    rbell_poly,
    rbell_polys,
    rbell_polys_from_bell,
    rbell_polys_rec,
    rbell_table,
    rbell_table_rows,
    whitehead_row_sum,
    whitehead_steps,
)
from rbell.errors import DomainError

X = IntPolynomial([0, 1])


def test_rbell_poly_examples():
    assert rbell_poly(2, 2).coeffs == (4, 5, 1)
    assert rbell_poly(0, 5) == IntPolynomial([1])
    for r in range(7):
        assert rbell_poly(1, r) == X + r
    assert rbell_poly(3, 1).coeffs == (1, 7, 6, 1)


def test_rbell_poly_rec_matches_direct():
    for r in range(0, 7):
        assert rbell_polys_rec(9, r) == [rbell_poly(n, r) for n in range(10)]


def test_rbell_polys_rec_is_one_walk_of_the_recurrence():
    for r in range(9):
        for n in range(31):
            assert rbell_polys_rec(n, r) == [rbell_poly(m, r) for m in range(n + 1)], (n, r)
    with pytest.raises(DomainError):
        rbell_polys_rec(-1, 0)


def test_rbell_number_examples():
    assert rbell_number(2, 2) == 10
    assert rbell_number(6, 6) == 163967
    assert rbell_number(5, 0) == 52
    assert rbell_number(0, 9) == 1


def test_rbell_table_matches_reference(reference_table):
    assert rbell_table(6, 6) == reference_table


def test_shape_invariants():
    for r in range(0, 9):
        for n in range(0, 13):
            p = rbell_poly(n, r)
            assert p.degree == n
            assert p.leading_coefficient == 1
            assert p.constant_term == r**n
            low = 1 if r == 0 and n >= 1 else 0
            assert all(c > 0 for c in p.coeffs[low:])


def test_bell_poly():
    # the ordinary Bell polynomials are the r = 0 case
    assert rbell_poly(0, 0) == IntPolynomial([1])
    assert rbell_poly(2, 0).coeffs == (0, 1, 1)
    assert rbell_poly(3, 0).coeffs == (0, 1, 3, 1)
    assert rbell_poly(5, 0)(1) == 52


def test_rbell_from_bell():
    assert rbell_polys_from_bell(2, 2)[-1].coeffs == (4, 5, 1)
    assert rbell_polys_from_bell(7, 0) == rbell_polys(7, 0)
    for r in range(5):
        assert rbell_polys_from_bell(1, r)[-1] == X + r
    for r in range(0, 7):
        assert rbell_polys_from_bell(10, r) == [rbell_poly(n, r) for n in range(11)]


def test_rbell_polys_from_bell_builds_each_bell_polynomial_once(monkeypatch):
    for r in range(5):
        assert rbell_polys_from_bell(9, r) == [rbell_poly(n, r) for n in range(10)]
    assert rbell_polys_from_bell(0, 3) == [IntPolynomial([1])]
    with pytest.raises(DomainError):
        rbell_polys_from_bell(-1, 0)
    walks = []
    original = bell.rbell_polys
    monkeypatch.setattr(bell, "rbell_polys", lambda n, r: walks.append((n, r)) or original(n, r))
    # route-agreement at --nmax 14 --rmax 9 reads B_0..B_14 from one walk per
    # r, and for r >= 1 its cross-r division reads B_{0..15,r-1} from one more
    assert list(verify._route_agreement(14, 9)) == []
    assert sorted(walks) == sorted([(14, 0)] * 10 + [(15, r) for r in range(9)])


def test_derivative_recurrence():
    for r in range(0, 9):
        for n in range(1, 13):
            p = rbell_poly(n - 1, r)
            expected = X * (p.derivative() + p) + r * p
            assert rbell_poly(n, r) == expected


def test_cross_r_step():
    assert cross_r_steps(2, 2)[-1] == IntPolynomial([4, 5, 1])
    assert cross_r_steps(0, 3) == [IntPolynomial([1])]
    for r in range(1, 8):
        assert cross_r_steps(1, r)[-1] == X + r
    for r in range(1, 9):
        assert cross_r_steps(11, r) == [rbell_poly(n, r) for n in range(12)]
    with pytest.raises(DomainError, match="cross_r_steps"):
        cross_r_steps(2, 0)


def test_cross_r_printed_is_wrong():
    # the commonly printed simplified step drops a factor of x and
    # contradicts the table: it gives x^2 + 2x where B_{2,2}(x) = x^2 + 5x + 4
    assert cross_r_printed(2, 2) == IntPolynomial([0, 2, 1])
    assert cross_r_printed(2, 2) != rbell_poly(2, 2)
    assert cross_r_printed(2, 2)(1) == 3
    assert rbell_number(2, 2) == 10
    with pytest.raises(DomainError):
        cross_r_printed(0, 2)
    with pytest.raises(DomainError):
        cross_r_printed(2, 0)


def test_carlitz_compose():
    assert carlitz_compositions(1, 1, 2)[-1] == 10
    assert carlitz_compositions(0, 2, 2)[-1] == 10
    for r in range(5):
        for n in range(5):
            assert carlitz_compositions(n, 0, r) == [rbell_number(n, r)]
    for r in range(0, 7):
        for n in range(0, 8):
            assert carlitz_compositions(n, 7 - n, r) == [
                rbell_number(n + m, r) for m in range(0, 8 - n)
            ]


def test_carlitz_inverse():
    assert carlitz_inversions(1, 1, 2)[-1] == 4
    assert carlitz_inversions(1, 2, 2)[-1] == 5
    for r in range(5):
        for n in range(5):
            assert carlitz_inversions(n, 0, r) == [rbell_number(n, r)]
    for r in range(0, 7):
        for n in range(0, 8):
            assert carlitz_inversions(n, 7 - n, r) == [
                rbell_number(n, r + m) for m in range(0, 8 - n)
            ]


def test_carlitz_lists_hold_every_m_and_end_in_the_point_values():
    for r in range(7):
        for n in range(21):
            m_max = 20 - n
            compositions = carlitz_compositions(n, m_max, r)
            inversions = carlitz_inversions(n, m_max, r)
            assert compositions == [rbell_number(n + m, r) for m in range(m_max + 1)]
            assert inversions == [rbell_number(n, r + m) for m in range(m_max + 1)]


def test_carlitz_roundtrip():
    # inversion output fed back through composition reproduces the table
    from rbell.stirling import stirling2r

    for r in range(0, 5):
        for n in range(0, 6):
            inversions = carlitz_inversions(n, 5 - n, r)
            for m in range(0, 6 - n):
                composed = sum(
                    stirling2r(m + r, j + r, r) * inversions[j] for j in range(m + 1)
                )
                assert composed == rbell_number(n + m, r)


def test_whitehead_step():
    assert whitehead_steps(2, 2)[-1] == 37
    assert whitehead_steps(5, 0)[-1] == 203
    for r in range(7):
        assert whitehead_steps(0, r) == [r + 1]
    for r in range(0, 7):
        assert whitehead_steps(10, r) == [rbell_number(n + 1, r) for n in range(11)]


def test_whitehead_row_sums():
    assert [whitehead_row_sum(n) for n in range(1, 6)] == [1, 4, 13, 44, 163]
    with pytest.raises(DomainError):
        whitehead_row_sum(0)


def test_bell_addition_formula():
    # B_{n,r}(x + y) expands through binomial convolution of coefficients:
    # sum over partitions splits by how many blocks get colour x
    from fractions import Fraction

    from rbell.stirling import binomial, stirling2r

    rng = random.Random(88)
    samples = [Fraction(1, 2), Fraction(1), Fraction(2)]
    for _ in range(30):
        n = rng.randrange(0, 11)
        r = rng.randrange(0, 5)
        x = rng.choice(samples)
        y = rng.choice(samples)
        direct = rbell_poly(n, r)(x + y)
        # split the k blocks of each partition into x-blocks and y-blocks
        split = sum(
            stirling2r(n + r, k + r, r)
            * sum(binomial(k, j) * x**j * y ** (k - j) for j in range(k + 1))
            for k in range(n + 1)
        )
        assert direct == split


def test_rbell_table_matches_coefficient_route():
    # the table comes from the Bell triangle and Whitehead's step, rbell_number
    # from r-Stirling rows: compare them well beyond the 7 x 7 reference
    assert rbell_table(60, 15) == [
        [rbell_number(n, r) for n in range(61)] for r in range(16)
    ]
    assert rbell_table(0, 0) == [[1]]
    assert rbell_table(0, 3) == [[1], [1], [1], [1]]
    assert rbell_table(4, 0) == [[1, 1, 2, 5, 15]]
    # the table is the list form of the row walk
    assert rbell_table(9, 5) == list(rbell_table_rows(9, 5))


def test_table_rejects_negative_sizes():
    with pytest.raises(DomainError):
        rbell_table(-1, 3)
    with pytest.raises(DomainError):
        next(rbell_table_rows(3, -1))
    with pytest.raises(DomainError):
        rbell_number(2, -2)
