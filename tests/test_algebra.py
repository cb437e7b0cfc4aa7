"""Tests for the exact-arithmetic substrate."""

import math
import random
from fractions import Fraction

import pytest

from rbell.algebra import (
    ApproxReal,
    IntPolynomial,
    falling_factorial_poly,
    fraction_free_det,
    leading_principal_minors,
    pochhammer,
    sturm_root_count,
)
from rbell.errors import DomainError, InconsistencyError


def test_polynomial_canonical_form():
    p = IntPolynomial([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    zero = IntPolynomial([0, 0])
    assert zero.coeffs == ()
    assert zero.degree == -1
    assert not zero
    assert IntPolynomial([3])


def test_polynomial_rejects_non_integers():
    with pytest.raises(DomainError):
        IntPolynomial([1, Fraction(1, 2)])
    with pytest.raises(DomainError):
        IntPolynomial([True])
    with pytest.raises(DomainError):
        IntPolynomial([1.0])


def test_polynomial_is_immutable():
    p = IntPolynomial([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (5,)
    assert hash(p) == hash(IntPolynomial([1, 2]))


def test_constant_polynomial_hashes_as_its_int():
    # equal objects must hash equally, and a constant equals its int
    for c in (0, 5, -3, 2**70):
        assert IntPolynomial((c,)) == c
        assert hash(IntPolynomial((c,))) == hash(c)
    assert hash(IntPolynomial()) == hash(0)
    assert {IntPolynomial((5,)), 5} == {5}
    assert len({IntPolynomial(), 0, IntPolynomial([0, 0])}) == 1
    assert {IntPolynomial([5, 1]): "p"}.get(5) is None


def test_polynomial_arithmetic_examples():
    p = IntPolynomial([1, 1])
    q = IntPolynomial([-1, 1])
    assert p + q == IntPolynomial([0, 2])
    assert p - q == IntPolynomial([2])
    assert p * q == IntPolynomial([-1, 0, 1])
    assert (p**3).coeffs == (1, 3, 3, 1)
    assert 2 * p == IntPolynomial([2, 2])
    assert p + 1 == IntPolynomial([2, 1])
    assert 1 - p == IntPolynomial([0, -1])
    assert IntPolynomial.monomial(3, 4).coeffs == (0, 0, 0, 4)


def test_polynomial_pow_rejects_negative_exponent():
    with pytest.raises(DomainError):
        IntPolynomial([0, 1]) ** -1


def test_polynomial_evaluation_and_calculus():
    p = IntPolynomial([4, 5, 1])
    assert p(0) == 4
    assert p(1) == 10
    assert p(Fraction(1, 2)) == Fraction(27, 4)
    assert p.derivative() == IntPolynomial([5, 2])
    x = IntPolynomial([0, 1])
    assert IntPolynomial([0, 4, 5, 1]) // x == p
    with pytest.raises(InconsistencyError):
        p // x


def _horner_reference(coeffs, x):
    # the Horner loop evaluation used before integer numerators
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def test_polynomial_evaluation_matches_the_fraction_horner_loop():
    rng = random.Random(7)
    polys = [IntPolynomial(), IntPolynomial([5]), IntPolynomial([-3]), IntPolynomial([0, 1])]
    polys += [
        IntPolynomial([rng.randint(-10**6, 10**6) for _ in range(rng.randrange(1, 30))])
        for _ in range(60)
    ]
    points = [0, 1, -3, 7, Fraction(0), Fraction(5), Fraction(-4), Fraction(1, 2)]
    points += [Fraction(-7, 3), Fraction(22, 7), Fraction(-1, 10**9), Fraction(10**12, 3)]
    for p in polys:
        for x in points:
            got, want = p(x), _horner_reference(p.coeffs, x)
            assert got == want and type(got) is type(want), (p, x, got, want)
    # a nonzero polynomial at a Fraction gives a Fraction, the zero polynomial int 0
    assert type(IntPolynomial([5])(Fraction(3))) is Fraction
    assert type(IntPolynomial()(Fraction(1, 2))) is int
    assert type(IntPolynomial([1, 2])(3)) is int
    assert IntPolynomial([1, 2])(0.5) == 2.0


def test_polynomial_accessors():
    p = IntPolynomial([4, 5, 1])
    assert p.constant_term == 4
    assert p.leading_coefficient == 1
    assert IntPolynomial().constant_term == 0
    assert IntPolynomial().leading_coefficient == 0


def test_polynomial_random_ring_axioms():
    rng = random.Random(20240817)

    def rand_poly():
        deg = rng.randrange(0, 13)
        return IntPolynomial([rng.randint(-50, 50) for _ in range(deg + 1)])

    for _ in range(200):
        p, q = rand_poly(), rand_poly()
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert (p + q)(x) == p(x) + q(x)
        assert (p * q)(x) == p(x) * q(x)
        assert (p - q) + q == p
        if p and q:
            assert (p * q).degree == p.degree + q.degree


def _random_polys(rng, count):
    """count random polynomials of degree -1..12, with coefficients in
    [-50, 50], leading zeros left for the constructor to strip."""
    return [
        IntPolynomial([rng.randint(-50, 50) for _ in range(rng.randrange(0, 14))])
        for _ in range(count)
    ]


def _canonical(p):
    return (
        type(p) is IntPolynomial
        and all(type(c) is int for c in p.coeffs)
        and (not p.coeffs or p.coeffs[-1] != 0)
    )


def test_polynomial_arithmetic_results_are_canonical():
    rng = random.Random(1802)
    for p, q in zip(_random_polys(rng, 300), _random_polys(rng, 300)):
        assert (p - p).coeffs == ()
        assert (p + (-p)).coeffs == ()
        # s shares p's leading term, so p - s cancels it
        s = IntPolynomial([*(rng.randint(-50, 50) for _ in range(p.degree)), p.leading_coefficient])
        results = [p + q, p - q, q - p, p * q, -p, 3 * p, 0 * p, p - 7, 7 - p, p + 0]
        results += [p.derivative(), p - s, s - p, p**2, p - s + 0]
        if q:
            results.append((p * q) // q)
        for result in results:
            assert _canonical(result), result
            assert result == IntPolynomial(result.coeffs)
        assert hash(p - q + q) == hash(p)
        assert (p - q + q).coeffs == p.coeffs


def test_polynomial_arithmetic_agrees_with_evaluation():
    rng = random.Random(1803)
    for p, q in zip(_random_polys(rng, 200), _random_polys(rng, 200)):
        c = rng.randint(-9, 9)
        for x in range(-4, 5):
            px, qx = p(x), q(x)
            assert (p + q)(x) == px + qx
            assert (p - q)(x) == px - qx
            assert (q - p)(x) == qx - px
            assert (p * q)(x) == px * qx
            assert (c * p)(x) == (p * c)(x) == c * px
            assert (p + c)(x) == (c + p)(x) == px + c
            assert (c - p)(x) == c - px
            assert p.derivative()(x) == sum(k * a * x ** (k - 1) for k, a in enumerate(p.coeffs) if k)
            if q:
                assert ((p * q) // q)(x) == px
            if c:
                assert ((c * p) // c)(x) == px


@pytest.mark.parametrize("bad", [True, False, Fraction(1, 2), Fraction(2), 1.5, 2.0])
def test_polynomial_arithmetic_rejects_non_int_operands(bad):
    p = IntPolynomial([1, 2, 3])
    for op in (
        lambda: p + bad, lambda: bad + p, lambda: p - bad, lambda: bad - p,
        lambda: p * bad, lambda: bad * p, lambda: p // bad,
    ):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(DomainError):
        IntPolynomial([1, bad])


def test_approx_real_contract():
    a = ApproxReal(1.5, 0.25)
    assert a.encloses(Fraction(3, 2))
    assert a.encloses(Fraction(7, 4))
    assert not a.encloses(2)
    with pytest.raises(DomainError):
        ApproxReal(1.0, -1e-9)
    with pytest.raises(DomainError):
        ApproxReal(math.inf, 0.0)
    with pytest.raises(DomainError):
        ApproxReal(0.0, math.nan)


def test_approx_real_checks_every_construction():
    a = ApproxReal(value=1.5, err=0.25)
    assert a._replace(err=0.5) == ApproxReal(1.5, 0.5)
    message = r"^ApproxReal needs finite value and err >= 0, got ApproxReal\(value=1.5, err=-1.0\)$"
    with pytest.raises(DomainError, match=message):
        a._replace(err=-1.0)
    with pytest.raises(DomainError, match=message):
        ApproxReal._make([1.5, -1.0])


def test_pochhammer_values():
    assert pochhammer(5, 0) == 1
    assert pochhammer(1, 6) == 720
    assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)
    assert pochhammer(-3, 5) == 0
    with pytest.raises(DomainError):
        pochhammer(1, -1)


def test_pochhammer_matches_the_fraction_loop():
    def reference(x, n):
        acc = Fraction(1)
        for i in range(n):
            acc *= Fraction(x) + i
        return acc

    xs = [0, 1, 5, -3, Fraction(1, 2), Fraction(-7, 3), Fraction(31, 6), Fraction(-40, 7)]
    xs += [Fraction(1, 10**6), Fraction(-9, 2)]
    for x in xs:
        for n in range(31):
            got = pochhammer(x, n)
            assert got == reference(x, n) and type(got) is Fraction, (x, n)


def test_falling_factorial_poly():
    assert falling_factorial_poly(0) == IntPolynomial([1])
    assert falling_factorial_poly(3).coeffs == (0, 2, -3, 1)
    with pytest.raises(DomainError):
        falling_factorial_poly(-2)


def test_falling_rising_duality():
    # x(x-1)...(x-n+1) = (-1)^n (-x)(-x+1)...(-x+n-1)
    rng = random.Random(99)
    for n in range(0, 8):
        p = falling_factorial_poly(n)
        for _ in range(5):
            x = Fraction(rng.randint(-12, 12), rng.randint(1, 5))
            assert p(x) == (-1) ** n * pochhammer(-x, n)


def test_determinant_examples():
    assert fraction_free_det([[1, 3], [3, 10]]) == 1
    assert fraction_free_det([[2]]) == 2
    assert fraction_free_det([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    assert fraction_free_det([[0, 1], [1, 0]]) == -1
    assert fraction_free_det([[1, 2], [2, 4]]) == 0
    with pytest.raises(DomainError):
        fraction_free_det([[1, 2], [3]])
    with pytest.raises(DomainError):
        fraction_free_det([])


def test_determinant_polynomial_entries():
    x = IntPolynomial([0, 1])
    det = fraction_free_det([[1, x + 2], [x + 2, x * x + 5 * x + 4]])
    assert det == x
    # singular polynomial matrix
    zero = fraction_free_det([[x, x], [x, x]])
    assert zero == IntPolynomial()


def test_determinant_random_cross_check():
    # Bareiss over Z must agree with Bareiss over Z[x], which is forced by
    # wrapping one entry as a constant polynomial.
    rng = random.Random(321)
    for _ in range(60):
        n = rng.randrange(1, 6)
        m = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
        wrapped = [row[:] for row in m]
        wrapped[0][0] = IntPolynomial([m[0][0]])
        assert fraction_free_det(wrapped) == fraction_free_det(m)


def _cofactor_det(m):
    if len(m) == 1:
        return m[0][0]
    acc = IntPolynomial()
    for j, e in enumerate(m[0]):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        acc = acc + (-1) ** j * e * _cofactor_det(minor)
    return acc


def test_determinant_polynomial_against_cofactor_expansion():
    x = IntPolynomial([0, 1])
    rng = random.Random(1968)

    def entry():
        # half the entries are zero, so pivots vanish and rows must be swapped
        if rng.random() < 0.5:
            return IntPolynomial()
        return IntPolynomial([rng.randint(-4, 4) for _ in range(rng.randrange(1, 4))])

    for trial in range(120):
        n = rng.randrange(1, 6)
        m = [[entry() for _ in range(n)] for _ in range(n)]
        if trial % 3 == 1 and n > 1:
            # singular: the last row is a Z[x]-combination of the others
            m[-1] = [(x + 2) * a - 3 * b for a, b in zip(m[0], m[n - 2])]
        elif trial % 3 == 2 and n > 1:
            m[0][0] = IntPolynomial()
            m[n - 1][0] = x - 1
        det = fraction_free_det(m)
        assert isinstance(det, IntPolynomial)
        assert det == _cofactor_det(m), m
        if trial % 3 == 1 and n > 1:
            assert not det


def test_polynomial_exact_division():
    x = IntPolynomial([0, 1])
    rng = random.Random(1971)
    for _ in range(60):
        a = IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randrange(0, 6))])
        b = IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randrange(1, 5))])
        if b:
            assert (a * b) // b == a
    assert (6 * x + 4) // 2 == 3 * x + 2
    assert IntPolynomial() // (x + 1) == IntPolynomial()
    with pytest.raises(InconsistencyError):
        (x * x + 1) // (x + 1)
    with pytest.raises(InconsistencyError):
        (3 * x) // 2  # the quotient leaves Z[x]
    with pytest.raises(InconsistencyError):
        x // (x * x)
    with pytest.raises(ZeroDivisionError):
        x // IntPolynomial()


def test_leading_principal_minors():
    assert leading_principal_minors([[2]]) == [2]
    assert leading_principal_minors([[1, 3], [3, 10]]) == [1, 1]
    assert leading_principal_minors([[1, 2], [2, 4]]) == [1, 0]  # a zero last minor
    with pytest.raises(InconsistencyError, match="leading 1x1 minor"):
        leading_principal_minors([[0, 1], [1, 0]])
    # a zero 2x2 minor met by a row swap, and by a column with no nonzero entry
    swap, zero_column = [[1, 1, 0], [1, 1, 1], [0, 1, 1]], [[1, 2, 3], [2, 4, 6], [3, 6, 9]]
    for m, det in ((swap, -1), (zero_column, 0)):
        with pytest.raises(InconsistencyError, match="leading 2x2 minor"):
            leading_principal_minors(m)
        assert fraction_free_det(m) == det
    # over Z[x], int entries mixed in: every minor is an IntPolynomial
    x = IntPolynomial([0, 1])
    minors = leading_principal_minors([[1, x, 2], [x, 2, x], [2, x, 5]])
    assert minors == [1, 2 - x * x, 2 - 2 * x * x]
    assert all(type(minor) is IntPolynomial for minor in minors)
    with pytest.raises(DomainError):
        leading_principal_minors([[1, 2], [3]])
    with pytest.raises(DomainError):
        leading_principal_minors([])


@pytest.mark.parametrize(
    "rows",
    [
        # the determinant is -1/2, but Bareiss's // would floor it to -1
        [[Fraction(1, 2), 1], [1, 1]],
        [[0.5, 1], [1, 1]],
        [[Fraction(1, 2), IntPolynomial([0, 1])], [1, 1]],
        [[True, 1], [1, 1]],
    ],
    ids=["fraction", "float", "fraction-and-polynomial", "bool"],
)
def test_determinants_reject_entries_outside_z_and_z_x(rows):
    for determinant in (fraction_free_det, leading_principal_minors):
        with pytest.raises(DomainError, match="must be int or IntPolynomial"):
            determinant(rows)
    rng = random.Random(4417)
    for _ in range(40):
        n = rng.randrange(1, 7)
        m = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
        expected = [fraction_free_det([row[:k] for row in m[:k]]) for k in range(1, n + 1)]
        if 0 in expected[:-1]:
            with pytest.raises(InconsistencyError):
                leading_principal_minors(m)
        else:
            assert leading_principal_minors(m) == expected


def test_sturm_examples():
    x = IntPolynomial([0, 1])
    assert sturm_root_count(IntPolynomial([4, 5, 1]), -math.inf, 0) == 2
    assert sturm_root_count(IntPolynomial([1, 0, 1]), -math.inf, math.inf) == 0
    assert sturm_root_count(IntPolynomial([1, 7, 6, 1]), -math.inf, 0) == 3
    # half-open (lo, hi]: the root at 0 belongs to intervals with hi >= 0
    assert sturm_root_count(x, -1, 0) == 1
    assert sturm_root_count(x, 0, 5) == 0
    # multiple roots count once
    assert sturm_root_count((x - 2) ** 3, 0, 4) == 1
    assert sturm_root_count(IntPolynomial([5]), -math.inf, math.inf) == 0


def test_sturm_validation():
    p = IntPolynomial([0, 1])
    with pytest.raises(DomainError):
        sturm_root_count(IntPolynomial(), 0, 1)
    with pytest.raises(DomainError):
        sturm_root_count(p, 1, 1)
    with pytest.raises(DomainError):
        sturm_root_count(p, 2, 1)
    with pytest.raises(DomainError):
        sturm_root_count(p, 0.5, 1)
    for lo, hi in ((math.inf, math.inf), (-math.inf, -math.inf), (math.inf, 0),
                   (Fraction(1, 2), Fraction(1, 3))):
        with pytest.raises(DomainError):
            sturm_root_count(p, lo, hi)
    # endpoints past the float range: the roots of x^2 + 5x + 4 are -4 and -1
    q = IntPolynomial([4, 5, 1])
    assert sturm_root_count(q, Fraction(10**400, 3), math.inf) == 0
    assert sturm_root_count(q, -math.inf, -10**400) == 0
    assert sturm_root_count(q, -math.inf, Fraction(-1, 10**400)) == 2


def test_sturm_random_known_roots():
    rng = random.Random(4242)
    for _ in range(80):
        k = rng.randrange(2, 5)
        roots = rng.sample(range(-20, 21), k)
        p = IntPolynomial([1])
        for a in roots:
            p = p * IntPolynomial([-a, 1])
        lo = Fraction(rng.randint(-44, 20), 2)
        hi = lo + Fraction(rng.randint(1, 50), 2)
        expected = sum(1 for a in roots if lo < a <= hi)
        assert sturm_root_count(p, lo, hi) == expected


def test_sturm_against_sympy_count_roots():
    sympy = pytest.importorskip("sympy")
    sym_x = sympy.Symbol("x")
    rng = random.Random(1967)
    for _ in range(150):
        # repeated rational roots, a non-monic leading coefficient of either sign
        p = IntPolynomial([rng.choice([-3, -2, -1, 1, 2, 3])])
        roots = []
        for _ in range(rng.randrange(1, 5)):
            root = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            roots.append(root)
            p = p * IntPolynomial([-root.numerator, root.denominator]) ** rng.randrange(1, 4)
        if rng.random() < 0.5:
            # a quadratic factor: two real roots, a double root or none
            p = p * IntPolynomial([rng.randint(-5, 5), rng.randint(-4, 4), rng.choice([-2, -1, 1, 2])])
        candidates = roots + [Fraction(rng.randint(-40, 40), rng.randint(1, 6)) for _ in range(3)]
        candidates += [-math.inf, math.inf]
        lo, hi = sorted(rng.sample(candidates, 2))
        if lo == hi:
            continue
        closed = sympy.Poly(list(reversed(p.coeffs)), sym_x).count_roots(
            None if lo == -math.inf else sympy.Rational(lo.numerator, lo.denominator),
            None if hi == math.inf else sympy.Rational(hi.numerator, hi.denominator),
        )
        # sympy counts on [lo, hi]; the Sturm count is on (lo, hi]
        expected = closed - (lo != -math.inf and p(lo) == 0)
        assert sturm_root_count(p, lo, hi) == expected, (p, lo, hi)
