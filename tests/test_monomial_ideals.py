"""Monomial ideal combinatorics: substitutions, Hilbert numerators,
quotient top degrees, dimension, Borel-fixedness."""

import random

import pytest

import cmreg.regularity
from cmreg import (
    NEG_INF,
    POS_INF,
    CharacteristicError,
    InputError,
    MonomialIdeal,
    PolynomialRing,
    PrimeField,
    hilbert_numerator,
    is_borel_fixed,
    krull_dimension,
    minimalize,
    quotient_top_degree,
)
from cmreg.monomial_ideals import (
    _order_at_one,
    hilbert_function,
    hilbert_polynomial_value,
)

from conftest import (
    count_standard_monomials,
    random_monomial_ideal,
    randomized_pivot_numerator,
    series_truncation,
    spy_on_numerators,
    standard_monomials,
)


class TestMinimalize:
    def test_substitution_generator_set(self, R3):
        # {x1x2, x2^3, x1^2, x1^3} minimalizes to (x1x2, x2^3, x1^2)
        got = minimalize([(1, 1, 0), (0, 3, 0), (2, 0, 0), (3, 0, 0)])
        assert set(got) == {(1, 1, 0), (0, 3, 0), (2, 0, 0)}

    def test_unit_absorbs(self, R2):
        J = MonomialIdeal.from_generators(R2, [(1, 0), (0, 0), (0, 1)])
        assert J.is_unit()

    def test_empty(self, R2):
        assert MonomialIdeal.from_generators(R2, []).is_zero()

    def test_idempotent_and_order_insensitive(self):
        rng = random.Random(3)
        R = PolynomialRing(["x1", "x2", "x3"])
        for _ in range(50):
            gens = [
                tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(5)
            ]
            J1 = MonomialIdeal.from_generators(R, gens)
            rng.shuffle(gens)
            J2 = MonomialIdeal.from_generators(R, gens)
            J3 = MonomialIdeal.from_generators(R, J1.gens)
            assert J1 == J2 == J3

    def test_constructor_minimalizes(self, R2):
        # (x, x^2) is (x): without minimalizing, the pure-power base case of
        # the numerator would read (1 - t)(1 - t^2) and the dimension 0
        J = MonomialIdeal(R2, [(1, 0), (2, 0)])
        assert J.gens == ((1, 0),)
        assert J == MonomialIdeal.from_generators(R2, [(1, 0)])
        assert hilbert_numerator(J) == [1, -1]
        assert krull_dimension(J) == 1


class TestContains:
    def test_basic(self, R2):
        J = MonomialIdeal.from_generators(R2, [(1, 1)])
        assert J.contains((2, 1))

    def test_curve_initial_witness(self, curve_initial):
        # x1^2 is outside in(I): it witnesses c_1 = 2
        assert not curve_initial.contains((2, 0, 0, 0))

    def test_zero_ideal(self, R2):
        Z = MonomialIdeal.from_generators(R2, [])
        assert not Z.contains((0, 0))
        assert not Z.contains((3, 2))


class TestSubstitutions:
    def test_curve_j1(self, curve_initial, R3):
        J1 = curve_initial.set_vars_zero(1)
        assert J1 == MonomialIdeal.from_generators(
            R3, [(1, 1, 0), (0, 3, 0), (2, 0, 1), (3, 0, 0)]
        )

    def test_curve_j2(self, curve_initial, R2):
        J2 = curve_initial.set_vars_zero(2)
        assert J2 == MonomialIdeal.from_generators(R2, [(1, 1), (0, 3), (3, 0)])

    def test_i_zero_unchanged(self, curve_initial):
        assert curve_initial.set_vars_zero(0) == curve_initial

    def test_out_of_range(self, curve_initial):
        with pytest.raises(ValueError):
            curve_initial.set_vars_zero(4)

    def test_curve_j1_tilde(self, curve_initial, R3):
        J1t = curve_initial.set_vars_zero(1).set_var_one()
        assert J1t == MonomialIdeal.from_generators(
            R3, [(1, 1, 0), (0, 3, 0), (2, 0, 0)]
        )

    def test_curve_j0_tilde_unchanged(self, curve_initial):
        # no generator involves x4, so the substitution x4 = 1 changes nothing
        assert curve_initial.set_var_one() == curve_initial

    def test_curve_j2_tilde_is_unit(self, curve_initial):
        # literal substitution x2 = 1 in (x1x2, x2^3, x1^3) gives (x1, 1, x1^3)
        assert curve_initial.set_vars_zero(2).set_var_one().is_unit()


class TestHilbertNumerator:
    def test_zero_ideal(self, R2):
        assert hilbert_numerator(MonomialIdeal.from_generators(R2, [])) == [1]

    def test_single_generator(self, R2):
        J = MonomialIdeal.from_generators(R2, [(1, 1)])
        assert hilbert_numerator(J) == [1, 0, -1]

    def test_curve_j2(self, R2):
        J2 = MonomialIdeal.from_generators(R2, [(1, 1), (0, 3), (3, 0)])
        assert hilbert_numerator(J2) == [1, 0, -1, -2, 2]

    def test_unit(self, R2):
        J = MonomialIdeal.from_generators(R2, [(0, 0)])
        assert hilbert_numerator(J) == []

    def test_random_against_standard_monomial_count(self):
        rng = random.Random(17)
        names = ["x1", "x2", "x3", "x4"]
        checked = 0
        while checked < 100:
            n = rng.randint(2, 4)
            R = PolynomialRing(names[:n])
            J = random_monomial_ideal(rng, R)
            if J is None:
                continue
            num = hilbert_numerator(J)
            D = max(sum(g) for g in J.gens) + 3
            series = series_truncation(num, n, D)
            for d in range(D + 1):
                assert series[d] == count_standard_monomials(J, d)
            checked += 1

    def test_pivot_rule_invariance(self):
        rng = random.Random(19)
        names = ["x1", "x2", "x3", "x4"]
        checked = 0
        while checked < 100:
            n = rng.randint(2, 4)
            R = PolynomialRing(names[:n])
            J = random_monomial_ideal(rng, R)
            if J is None:
                continue
            expected = hilbert_numerator(J)
            assert randomized_pivot_numerator(J, rng) == expected
            checked += 1

    def test_generator_permutation_invariance(self):
        rng = random.Random(29)
        R = PolynomialRing(["x1", "x2", "x3"])
        for _ in range(20):
            J = random_monomial_ideal(rng, R)
            if J is None:
                continue
            gens = list(J.gens)
            rng.shuffle(gens)
            assert hilbert_numerator(
                MonomialIdeal.from_generators(R, gens)
            ) == hilbert_numerator(J)


class TestQuotientTopDegree:
    def test_equal_ideals(self, curve_initial):
        assert quotient_top_degree(curve_initial, curve_initial) == NEG_INF

    def test_equal_ideals_compute_no_numerator(self, monkeypatch, curve_initial):
        # two distinct ideals with equal generators, neither with a kept
        # numerator: the quotient is zero without a numerator of either
        computed = spy_on_numerators(monkeypatch)
        sub, sup = (MonomialIdeal(curve_initial.ring, curve_initial.gens) for _ in range(2))
        assert quotient_top_degree(sub, sup) == NEG_INF
        assert computed == [] and sub._hilbert is None and sup._hilbert is None

    def test_curve_c1(self, curve_initial):
        J1 = curve_initial.set_vars_zero(1)
        assert quotient_top_degree(J1, J1.set_var_one()) == 2

    def test_curve_c2(self, curve_initial, R2):
        J2 = curve_initial.set_vars_zero(2)
        unit = MonomialIdeal.from_generators(R2, [(0, 0)])
        assert quotient_top_degree(J2, unit) == 2

    def test_infinite_quotient(self, R2):
        sub = MonomialIdeal.from_generators(R2, [(2, 0)])
        sup = MonomialIdeal.from_generators(R2, [(1, 0)])
        assert quotient_top_degree(sub, sup) == POS_INF

    # the numerators differ by (1-t)^k q with k = 0 and 2 below n = 3;
    # test_infinite_quotient has k = 1 below n = 2
    @pytest.mark.parametrize(
        "sub, sup",
        [([], [(1, 0, 0)]), ([(2, 0, 0), (0, 2, 0)], [(1, 0, 0), (0, 1, 0)])],
        ids=["k0", "k2"],
    )
    def test_infinite_quotient_with_fewer_factors_than_variables(self, R3, sub, sup):
        sub = MonomialIdeal.from_generators(R3, sub)
        sup = MonomialIdeal.from_generators(R3, sup)
        assert quotient_top_degree(sub, sup) == POS_INF

    def test_containment_enforced(self, R2):
        A = MonomialIdeal.from_generators(R2, [(1, 0)])
        B = MonomialIdeal.from_generators(R2, [(0, 1)])
        with pytest.raises(ValueError):
            quotient_top_degree(A, B)

    def test_finite_answer_matches_enumeration(self):
        # when finite, the quotient's monomials confirm the top degree
        rng = random.Random(37)
        names = ["x1", "x2", "x3"]
        checked = 0
        while checked < 30:
            n = rng.randint(2, 3)
            R = PolynomialRing(names[:n])
            J = random_monomial_ideal(rng, R)
            if J is None:
                continue
            sub = J.set_vars_zero(0)
            sup = sub.set_var_one()
            a = quotient_top_degree(sub, sup)
            if a in (NEG_INF, POS_INF):
                continue
            in_between = [
                m
                for d in range(int(a) + 2)
                for m in standard_monomials(sub, d)
                if sup.contains(m)
            ]
            assert in_between
            assert max(sum(m) for m in in_between) == a
            checked += 1


class TestKrullDimension:
    def test_zero_ideal(self, R4):
        assert krull_dimension(MonomialIdeal.from_generators(R4, [])) == 4

    def test_curve_initial(self, curve_initial):
        assert krull_dimension(curve_initial) == 2

    def test_maximal_ideal(self, R3):
        J = MonomialIdeal.from_generators(
            R3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        )
        assert krull_dimension(J) == 0

    def test_unit_ideal_convention(self, R2):
        J = MonomialIdeal.from_generators(R2, [(0, 0)])
        assert krull_dimension(J) == -1


class TestBorelFixed:
    def test_principal_first_variable(self, R2):
        assert is_borel_fixed(MonomialIdeal.from_generators(R2, [(1, 0)]))

    def test_principal_last_variable(self, R2):
        assert not is_borel_fixed(MonomialIdeal.from_generators(R2, [(0, 1)]))

    def test_curve_initial_not_borel(self, curve_initial):
        # the exchange x1x2 -> x1^2 leaves the ideal, so in(I) != Gin(I)
        assert not is_borel_fixed(curve_initial)

    def test_strongly_stable_example(self, R2):
        J = MonomialIdeal.from_generators(R2, [(2, 0), (1, 1), (0, 2)])
        assert is_borel_fixed(J)

    def test_refused_over_prime_field(self):
        R = PolynomialRing(["x", "y"], field=PrimeField(7))
        J = MonomialIdeal.from_generators(R, [(1, 0)])
        with pytest.raises(ValueError):
            is_borel_fixed(J)

    def test_refusal_is_an_input_error(self):
        # the same refusal the Gin route gives over a prime field
        R = PolynomialRing(["x"], field=PrimeField(7))
        J = MonomialIdeal.from_generators(R, [(2,)])
        with pytest.raises(InputError) as exc:
            is_borel_fixed(J)
        assert type(exc.value) is CharacteristicError
        assert cmreg.regularity.CharacteristicError is CharacteristicError

    def test_single_step_implies_full_exchange(self):
        # exhaustive q-loop oracle: whenever the single-step criterion
        # accepts, every exchange x^A x_i^q / x_j^q with q <= A_j stays in J
        rng = random.Random(41)
        names = ["x1", "x2", "x3"]
        confirmed = 0
        while confirmed < 25:
            n = rng.randint(2, 3)
            R = PolynomialRing(names[:n])
            J = random_monomial_ideal(rng, R, max_deg=3, max_gens=4)
            if J is None or not is_borel_fixed(J):
                continue
            assert _exhaustive_borel_check(J)
            confirmed += 1

    def test_exhaustive_check_agrees_on_non_borel(self):
        rng = random.Random(43)
        R = PolynomialRing(["x1", "x2", "x3"])
        seen = 0
        while seen < 25:
            J = random_monomial_ideal(rng, R, max_deg=3, max_gens=4)
            if J is None:
                continue
            assert is_borel_fixed(J) == _exhaustive_borel_check(J)
            seen += 1


def _exhaustive_borel_check(J):
    for g in J.gens:
        for j in range(J.n):
            for q in range(g[j] + 1):
                for i in range(j):
                    moved = list(g)
                    moved[j] -= q
                    moved[i] += q
                    if not J.contains(tuple(moved)):
                        return False
    return True


class TestHilbertFunctionAndPolynomial:
    def test_function_matches_count(self):
        rng = random.Random(47)
        R = PolynomialRing(["x1", "x2", "x3"])
        for _ in range(20):
            J = random_monomial_ideal(rng, R)
            if J is None:
                continue
            for d in range(6):
                assert hilbert_function(J, d) == count_standard_monomials(J, d)

    def test_polynomial_eventually_agrees(self, curve_initial):
        # dim 2 quotient: Hilbert polynomial is linear and agrees for large m
        for m in range(3, 12):
            assert hilbert_polynomial_value(curve_initial, m) == hilbert_function(
                curve_initial, m
            )

    def test_polynomial_at_negative_m_is_an_exact_int(self):
        # S/(x1^2) in 4 variables: P(m) = (m+1)^2, a cubic binomial sum
        # evaluated at negative arguments
        R = PolynomialRing(["x1", "x2", "x3", "x4"])
        J = MonomialIdeal.from_generators(R, [(2, 0, 0, 0)])
        for m in (-1, -2, -5, -12):
            value = hilbert_polynomial_value(J, m)
            assert type(value) is int
            assert value == (m + 1) ** 2

    # S/(x^2, y^3) has finite length and S/S is zero: the numerator is
    # (1-t)^2 times a polynomial, or zero, and the Hilbert polynomial is 0
    @pytest.mark.parametrize(
        "gens", [[(2, 0), (0, 3)], [(0, 0)]], ids=["zero-dimensional", "unit"]
    )
    def test_polynomial_of_a_finite_quotient_is_zero(self, R2, gens):
        J = MonomialIdeal.from_generators(R2, gens)
        for m in range(-5, 11):
            assert hilbert_polynomial_value(J, m) == 0

    def test_order_at_one(self):
        assert _order_at_one([1, -2, 1]) == 2
        assert _order_at_one([1, 0, -1]) == 1
        assert _order_at_one([1, 1]) == 0
        assert _order_at_one([]) == 0
