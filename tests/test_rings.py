"""Core arithmetic: degrevlex, monomial helpers, polynomials, coordinate changes."""

import random
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmreg import Ideal, InputError, PolynomialRing, PrimeField, QQ, apply_linear_change
from cmreg.orders import (
    degrevlex_key,
    m_index,
    mono_divides,
    mono_lcm,
)
import cmreg.rings
from cmreg.linalg import rank
from cmreg.regularity import random_invertible_matrix, transform_ideal
from cmreg.rings import matrix_is_invertible

from conftest import monomials_of_degree


def compare(a, b):
    """-1, 0 or 1 as a <, =, > b in degrevlex."""
    ka, kb = degrevlex_key(a), degrevlex_key(b)
    return (ka > kb) - (ka < kb)


class TestCompare:
    def test_degrevlex_example_leads(self):
        # x1x2 > x3x4 forces the first example generator to lead with x1x2
        assert compare((1, 1, 0, 0), (0, 0, 1, 1)) == 1
        # x1x3^2 < x2^3, so x1x3^2 - x2^3 leads with x2^3
        assert compare((1, 0, 2, 0), (0, 3, 0, 0)) == -1

    def test_reflexive(self):
        assert compare((2, 0, 1, 0), (2, 0, 1, 0)) == 0

    def test_degree_refining(self):
        assert compare((3, 0), (1, 1)) == 1

    def test_multiplicative_and_total(self):
        rng = random.Random(5)
        monos = monomials_of_degree(3, 2) + monomials_of_degree(3, 3)
        for _ in range(200):
            a, b, c = (rng.choice(monos) for _ in range(3))
            cmp_ab = compare(a, b)
            shifted = compare(
                tuple(x + z for x, z in zip(a, c)),
                tuple(y + z for y, z in zip(b, c)),
            )
            assert cmp_ab == shifted


class TestMonomialOps:
    def test_divides_quotient(self):
        assert mono_divides((1, 1), (2, 1))

    def test_lcm(self):
        assert mono_lcm((1, 1), (0, 3)) == (1, 3)

    def test_not_divides(self):
        assert not mono_divides((0, 0, 1), (1, 1, 0))

    def test_m_index(self):
        assert m_index((2, 0, 1, 0)) == 3
        assert m_index((3, 0, 0, 0)) == 1
        assert m_index((0, 3, 0, 0)) == 2
        assert m_index((0, 0, 0, 0)) == 0


class TestPolynomialArithmetic:
    def test_additive_inverse(self, R2):
        x1, x2 = R2.gens()
        f = x1 * x1 - x2.scale(3)
        assert (f + (-f)).is_zero()

    def test_expansion(self, R2):
        x1, x2 = R2.gens()
        assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2

    def test_identity(self, R2):
        x1, x2 = R2.gens()
        f = x1 * x2 + x2 * x2
        assert R2.one() * f == f

    def test_ring_axioms_random(self, R3):
        rng = random.Random(11)
        monos = monomials_of_degree(3, 0) + monomials_of_degree(3, 1) + monomials_of_degree(3, 2)

        def rand_poly():
            return R3.from_terms(
                (rng.randint(-4, 4), rng.choice(monos)) for _ in range(3)
            )

        for _ in range(50):
            f, g, h = rand_poly(), rand_poly(), rand_poly()
            assert (f + g) + h == f + (g + h)
            assert f * g == g * f
            assert f * (g + h) == f * g + f * h

    def test_leading_term(self, R4):
        x1, x2, x3, x4 = R4.gens()
        c, m = (x1 * x2 - x3 * x4).leading_term()
        assert m == (1, 1, 0, 0) and c == 1
        c, m = (x1 * x1 * x1 - x2 * x4 * x4).leading_term()
        assert m == (3, 0, 0, 0) and c == 1
        c, m = R4.const(5).leading_term()
        assert m == (0, 0, 0, 0) and c == 5

    def test_leading_term_of_zero(self, R2):
        with pytest.raises(ValueError):
            R2.zero().leading_term()

    def test_is_homogeneous(self, R4):
        x1, x2, x3, x4 = R4.gens()
        assert (x1 * x2 - x3 * x4).is_homogeneous() == (True, 2)
        assert (x1 + x2 * x2).is_homogeneous() == (False, None)
        assert R4.zero().is_homogeneous() == (True, None)

    def test_rationals_stay_reduced(self, R2):
        x1, x2 = R2.gens()
        f = x1.scale(QQ(2, 4)) + x2.scale(QQ(6, 9))
        for c, _ in f.terms:
            assert int(c.denominator) > 0
            from math import gcd

            assert gcd(int(c.numerator), int(c.denominator)) == 1

    def test_prime_field_arithmetic(self):
        F = PrimeField(7)
        R = PolynomialRing(["x", "y"], field=F)
        x, y = R.gens()
        assert (x.scale(3) + x.scale(4)).is_zero()
        assert (x + y) * (x + y) * (x + y) * (x + y) * (x + y) * (x + y) * (
            x + y
        ) == x * x * x * x * x * x * x + y * y * y * y * y * y * y  # Frobenius


class TestLinearChange:
    def test_identity(self, R2):
        x1, x2 = R2.gens()
        f = x1 * x1 - x2 * x2
        assert apply_linear_change(f, [[1, 0], [0, 1]]) == f

    def test_swap(self, R2):
        x1, x2 = R2.gens()
        assert apply_linear_change(x1 * x1, [[0, 1], [1, 0]]) == x2 * x2

    def test_shear_expansion(self, R2):
        # x1 -> x1 + x2 sends x1^2 to x1^2 + 2 x1 x2 + x2^2
        x1, x2 = R2.gens()
        got = apply_linear_change(x1 * x1, [[1, 1], [0, 1]])
        assert got == x1 * x1 + (x1 * x2).scale(2) + x2 * x2

    def test_singular_rejected(self, R2):
        x1, _ = R2.gens()
        with pytest.raises(ValueError):
            apply_linear_change(x1, [[1, 1], [2, 2]])
        with pytest.raises(ValueError):
            transform_ideal(Ideal(R2, [x1]), [[1, 1], [2, 2]])

    def test_change_of_the_wrong_shape_rejected(self, R2):
        x1, _ = R2.gens()
        with pytest.raises(InputError, match=r"^matrix must be 2 x 2$"):
            apply_linear_change(x1, [[1, 0]])

    def test_invertibility_of_a_non_square_matrix_refused(self):
        with pytest.raises(ValueError, match="^matrix is not square$"):
            matrix_is_invertible(QQ, [[1, 0], [0]])

    def test_degree_and_homogeneity_preserved(self, R3):
        x1, x2, x3 = R3.gens()
        f = x1 * x2 * x3 - x2 * x2 * x2
        g = apply_linear_change(f, [[1, 2, 0], [0, 1, 3], [1, 0, 1]])
        assert g.is_homogeneous() == (True, 3)

    def test_group_action(self, R2, R3):
        rng = random.Random(13)
        for ring in (R2, R3):
            n = ring.n
            monos = monomials_of_degree(n, 2)
            f = ring.from_terms(
                (rng.randint(-3, 3), rng.choice(monos)) for _ in range(3)
            )
            for _ in range(5):
                g = _random_invertible(rng, n)
                h = _random_invertible(rng, n)
                gh = [
                    [sum(g[i][k] * h[k][j] for k in range(n)) for j in range(n)]
                    for i in range(n)
                ]
                lhs = apply_linear_change(apply_linear_change(f, g), h)
                assert lhs == apply_linear_change(f, gh)

    def test_one_rank_per_coordinate_change(self, monkeypatch, curve_ideal):
        # transform_ideal tests its matrix once, then applies it to the
        # curve's 4 generators with no further test
        m = random_invertible_matrix(random.Random(3), 4, QQ)
        ranks = []

        def counted(rows, characteristic):
            ranks.append(rows)
            return rank(rows, characteristic)

        monkeypatch.setattr(cmreg.rings, "rank", counted)
        transform_ideal(curve_ideal, m)
        assert len(ranks) == 1
        # the same matrix can be invertible over one field and not another
        assert matrix_is_invertible(PrimeField(2), [[1, 1], [1, 0]])
        assert not matrix_is_invertible(PrimeField(2), [[1, 1], [1, 1]])
        assert not matrix_is_invertible(QQ, [[2, 2], [1, 1]])
        assert matrix_is_invertible(QQ, [[2, 0], [0, 1]])
        assert not matrix_is_invertible(PrimeField(2), [[2, 0], [0, 1]])
        # det -2: a negative entry is odd, so the rows agree mod 2
        assert matrix_is_invertible(QQ, [[1, 1], [1, -1]])
        assert not matrix_is_invertible(PrimeField(2), [[1, 1], [1, -1]])


    @pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=str)
    def test_large_exponent(self, field):
        # x -> x + y on x^1100: the binomial expansion, with no recursion
        # as deep as the exponent
        R = PolynomialRing(["x", "y"], field)
        got = apply_linear_change(R.monomial((1100, 0)), [[1, 1], [0, 1]])
        assert got.coeffs == {
            (k, 1100 - k): field(comb(1100, k)) for k in range(1101)
        }


def reference_linear_change(f, rows):
    """The coordinate change in the field's own arithmetic: each term of f
    times the powers of the variables' images, by Polynomial products."""
    ring = f.ring
    n = ring.n
    units = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    images = [ring.from_terms(zip(row, units)) for row in rows]
    result = ring.zero()
    for c, exps in f.terms:
        term = ring.const(1).scale(c)
        for image, e in zip(images, exps):
            for _ in range(e):
                term = term * image
        result = result + term
    return result


@st.composite
def linear_changes(draw, field):
    """(f, rows): f with up to 5 terms, exponents at most 4, rational
    coefficients over QQ, and an integer matrix with small, often zero,
    entries that is invertible over the field."""
    n = draw(st.integers(1, 3))
    ring = PolynomialRing(["x%d" % (i + 1) for i in range(n)], field)
    exps = st.lists(st.integers(0, 4), min_size=n, max_size=n)
    num = st.integers(-20, 20) if field == QQ else st.integers(-40000, 40000)
    den = st.integers(1, 9) if field == QQ else st.just(1)
    terms = draw(st.lists(st.tuples(num, den, exps), max_size=5))
    f = ring.from_terms((field(a, b), e) for a, b, e in terms)
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    assume(matrix_is_invertible(field, rows))
    return f, rows


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(32003)], ids=str)
def test_linear_change_matches_field_arithmetic(field):
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(linear_changes(field))
    def check(change):
        f, rows = change
        assert apply_linear_change(f, rows) == reference_linear_change(f, rows)

    check()


def _random_invertible(rng, n):
    while True:
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if matrix_is_invertible(QQ, m):
            return m
