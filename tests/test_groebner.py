"""Buchberger algorithm, normal forms and initial ideals."""

import itertools
import random

import pytest

from cmreg import (
    Ideal,
    MonomialIdeal,
    PolynomialRing,
    PrimeField,
    hilbert_numerator,
    initial_ideal,
    normal_form,
    reduced_groebner_basis,
    s_polynomial,
)
from cmreg.groebner import NonHomogeneousError
from cmreg.linalg import rank_int
from cmreg.rings import RingMismatchError
from cmreg.orders import mono_divides

from conftest import (
    count_standard_monomials,
    monomials_of_degree,
    quartic_curve_ideal,
    random_homogeneous_ideal,
)


class TestNormalForm:
    def test_membership(self, R2):
        x1, _ = R2.gens()
        assert normal_form(x1 * x1, [x1]).is_zero()

    def test_empty_basis(self, R2):
        x1, x2 = R2.gens()
        f = x1 * x2 - x2 * x2
        assert normal_form(f, []) == f

    def test_curve_reducible_monomial(self, curve_ideal):
        # x2^3 lies in in(I), so it must reduce against the basis;
        # the reduced basis rewrites it to its tail x1 x3^2
        gb = reduced_groebner_basis(curve_ideal)
        x1, x2, x3, x4 = curve_ideal.ring.gens()
        r = normal_form(x2 * x2 * x2, gb)
        assert r == x1 * x3 * x3
        leads = [g.leading_monomial() for g in gb]
        for _, mono in r.terms:
            assert not any(mono_divides(lm, mono) for lm in leads)

    @pytest.mark.parametrize(
        "case", ["more-variables-divides", "more-variables-other", "other-field"]
    )
    def test_basis_from_another_ring(self, case):
        # the wrong ring's x or z must not be read as x or y of f's ring
        x, y = PolynomialRing(["x", "y"]).gens()
        X, _, Z = PolynomialRing(["x", "y", "z"]).gens()
        X7, Y7 = PolynomialRing(["x", "y"], PrimeField(7)).gens()
        f, basis = {
            "more-variables-divides": (x * y + y * y, [X]),
            "more-variables-other": (x * y, [Z]),
            "other-field": (x * y + y * y, [X7 + Y7]),
        }[case]
        with pytest.raises(RingMismatchError):
            normal_form(f, basis)


class TestSPolynomial:
    def test_self(self, R2):
        x1, x2 = R2.gens()
        f = x1 * x1 - x2 * x2
        assert s_polynomial(f, f).is_zero()

    def test_coprime_monomials(self, R2):
        x1, x2 = R2.gens()
        assert s_polynomial(x1, x2).is_zero()

    def test_curve_pair(self, R4):
        x1, x2, x3, x4 = R4.gens()
        f = x1 * x2 - x3 * x4
        g = x1 * x1 * x1 - x2 * x4 * x4
        # x1^2 f - x2 g; the x1^3 x2 terms cancel
        expected = (x2 * x2 * x4 * x4) - (x1 * x1 * x3 * x4)
        assert s_polynomial(f, g) == expected

    def test_zero_input(self, R2):
        x1, _ = R2.gens()
        with pytest.raises(ValueError):
            s_polynomial(x1, R2.zero())


class TestReducedBasis:
    def test_principal(self, R2):
        x1, _ = R2.gens()
        I = Ideal(R2, [x1 * x1 * x1])
        assert reduced_groebner_basis(I) == [x1 * x1 * x1]

    def test_curve_initial_ideal(self, curve_ideal, curve_initial):
        gb = reduced_groebner_basis(curve_ideal)
        assert initial_ideal(gb) == curve_initial

    def test_linear_elimination(self, R3):
        x1, x2, x3 = R3.gens()
        gb = reduced_groebner_basis(Ideal(R3, [x1 - x2, x2 - x3]))
        assert set(gb) == {x1 - x3, x2 - x3}
        assert initial_ideal(gb) == MonomialIdeal.from_generators(
            R3, [(1, 0, 0), (0, 1, 0)]
        )

    def test_rejects_non_homogeneous(self, R2):
        x1, x2 = R2.gens()
        with pytest.raises(NonHomogeneousError):
            Ideal(R2, [x1 + x2 * x2])

    def test_generator_permutation_invariance(self, R4):
        I = quartic_curve_ideal(R4)
        reference = reduced_groebner_basis(I)
        for perm in itertools.permutations(I.generators):
            gb = reduced_groebner_basis(Ideal(R4, list(perm)))
            assert gb == reference

    def test_ideal_equality_normal_forms(self, curve_ideal):
        gb = reduced_groebner_basis(curve_ideal)
        for g in curve_ideal.generators:
            assert normal_form(g, gb).is_zero()
        # reverse direction: basis elements lie in the ideal generated by
        # the inputs (checked against the completed, non-reduced basis)
        from cmreg.groebner import buchberger

        completed = buchberger(list(curve_ideal.generators))
        for g in gb:
            assert normal_form(g, completed).is_zero()

    def test_buchberger_criterion_on_output(self, curve_ideal):
        gb = reduced_groebner_basis(curve_ideal)
        for f, g in itertools.combinations(gb, 2):
            assert normal_form(s_polynomial(f, g), gb).is_zero()

    def test_random_bases_pass_buchberger_criterion(self):
        rng = random.Random(23)
        names = ["x1", "x2", "x3"]
        for _ in range(10):
            R = PolynomialRing(names[: rng.randint(2, 3)])
            I = random_homogeneous_ideal(rng, R)
            if I is None:
                continue
            gb = reduced_groebner_basis(I)
            for f, g in itertools.combinations(gb, 2):
                assert normal_form(s_polynomial(f, g), gb).is_zero()
            # reduced: no term of any element divisible by another lead
            for i, g in enumerate(gb):
                other = [h.leading_monomial() for j, h in enumerate(gb) if j != i]
                for _, mono in g.terms:
                    assert not any(mono_divides(lm, mono) for lm in other)


def degree_dimension_by_row_reduction(I, d):
    """dim of the degree-d piece of the ideal, by exact row reduction of
    the span of all monomial multiples of the generators."""
    ring = I.ring
    monos = monomials_of_degree(ring.n, d)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in I.generators:
        _, gdeg = g.is_homogeneous()
        if gdeg is None or gdeg > d:
            continue
        for shift in monomials_of_degree(ring.n, d - gdeg):
            row = [0] * len(monos)
            for c, e in g.terms:
                target = tuple(a + b for a, b in zip(e, shift))
                row[index[target]] = c
            rows.append(row)
    if not rows:
        return 0
    # clear denominators to integer rows for fraction-free ranking
    int_rows = []
    for row in rows:
        den = 1
        for c in row:
            if c:
                den = den * int(c.denominator) // _gcd(den, int(c.denominator))
        int_rows.append({i: int(c * den) for i, c in enumerate(row) if c})
    return rank_int(int_rows)


def _gcd(a, b):
    from math import gcd

    return gcd(a, b)


class TestMacaulayCrossCheck:
    def test_hilbert_function_matches_initial_ideal(self):
        # dim_k (R/I)_d equals the count of degree-d standard monomials of
        # in(I), for random homogeneous ideals (Macaulay's theorem)
        rng = random.Random(31)
        names = ["x1", "x2", "x3"]
        checked = 0
        while checked < 8:
            R = PolynomialRing(names[: rng.randint(2, 3)])
            I = random_homogeneous_ideal(rng, R)
            if I is None:
                continue
            gb = reduced_groebner_basis(I)
            J = initial_ideal(gb, R)
            if J.is_unit():
                continue
            maxdeg = max(g.degree() for g in I.generators)
            full = Ideal(R, gb)
            for d in range(maxdeg + 4):
                total = len(monomials_of_degree(R.n, d))
                ideal_dim = degree_dimension_by_row_reduction(full, d)
                assert total - ideal_dim == count_standard_monomials(J, d)
            checked += 1
