"""Regularity invariants: substitution c-invariants, partial and full
reg / a*, generic coordinate retries, and generic initial ideals."""

import io
import json
import os
import random

import pytest

import cmreg.groebner
import cmreg.regularity
import cmreg.rings
from cmreg import (
    NEG_INF,
    POS_INF,
    CharacteristicError,
    FilterRegularityFailure,
    GinAgreementError,
    Ideal,
    InputError,
    MathematicalFailure,
    MonomialIdeal,
    PolynomialRing,
    PrimeField,
    betti_table,
    c_invariants,
    full_invariants,
    generic_initial_ideal,
    hilbert_numerator,
    invariants_from_betti,
    invariants_via_betti,
    invariants_via_gin,
    krull_dimension,
    parse_input,
)
from cmreg.regularity import (
    DRAW_CAP,
    RETRY_CAP,
    invariants_from_c,
    random_invertible_matrix,
    random_unitriangular_matrix,
    transform_ideal,
)
from cmreg.cli import run
from cmreg.rings import apply_linear_change, matrix_is_invertible

from conftest import (
    non_borel_draw,
    random_homogeneous_ideal,
    random_monomial_ideal,
    spy_on_numerators,
    spy_on_the_kernel,
)
from test_golden import GOLDEN, GOLDEN_DIR


def frf_witness(R2):
    # c_0 = +inf: setting x2 = 1 in (x1x2, x2^2) gives the unit ideal while
    # the quotient by the untouched ideal is infinite dimensional
    return MonomialIdeal.from_generators(R2, [(1, 1), (0, 2)])


class TestCInvariants:
    def test_worked_example(self, curve_ideal):
        assert c_invariants(curve_ideal, 2) == [NEG_INF, 2, 2]

    def test_same_from_initial_ideal(self, curve_initial):
        assert c_invariants(curve_initial, 2) == [NEG_INF, 2, 2]

    def test_index_n_entry_is_zero(self, curve_initial):
        c = c_invariants(curve_initial, 4)
        assert len(c) == 5
        assert c[4] == 0

    def test_cutoff_defaults_to_n(self, curve_initial):
        J = MonomialIdeal.from_generators(
            PolynomialRing(["x", "y", "z"], PrimeField(2)), [(2, 0, 0), (1, 1, 0), (0, 1, 2)]
        )
        for ideal in (curve_initial, J):
            assert c_invariants(ideal, None) == c_invariants(ideal, ideal.n)
            assert c_invariants(ideal) == c_invariants(ideal, ideal.n)

    def test_range_check(self, curve_initial):
        with pytest.raises(ValueError):
            c_invariants(curve_initial, 5)
        with pytest.raises(ValueError):
            c_invariants(curve_initial, -1)

    def test_unit_ideal_rejected(self, R2):
        with pytest.raises(ValueError):
            c_invariants(MonomialIdeal.from_generators(R2, [(0, 0)]), 0)

    def test_failure_entry_is_plus_infinity(self, R2):
        assert c_invariants(frf_witness(R2), 0) == [POS_INF]

    def test_zero_ideal(self, R2):
        Z = MonomialIdeal.from_generators(R2, [])
        assert c_invariants(Z, 2) == [NEG_INF, NEG_INF, 0]


def partial_invariants(I, t):
    """(reg_t(I), a*_t(I), reg_t(R/I), a*_t(R/I)) in the given coordinates."""
    rep = full_invariants(I, t=t, use_generic=False)
    return rep.reg_ideal, rep.astar_ideal, rep.reg_quotient, rep.astar_quotient


class TestPartialInvariants:
    def test_worked_example_t2(self, curve_ideal):
        assert partial_invariants(curve_ideal, 2) == (3, 1, 2, 1)

    def test_worked_example_t0(self, curve_ideal):
        reg_i, astar_i, reg_q, astar_q = partial_invariants(curve_ideal, 0)
        assert reg_q == NEG_INF and astar_q == NEG_INF
        assert reg_i == NEG_INF and astar_i == NEG_INF

    def test_monotone_in_t(self, curve_ideal):
        prev = None
        for t in range(5):
            _, _, reg_q, astar_q = partial_invariants(curve_ideal, t)
            if prev is not None:
                assert reg_q >= prev[0] and astar_q >= prev[1]
            prev = (reg_q, astar_q)

    def test_failure_raises_with_index(self, R2):
        with pytest.raises(FilterRegularityFailure) as exc:
            partial_invariants(frf_witness(R2), 1)
        assert exc.value.index == 0

    def test_invariants_from_c_window(self):
        # entries beyond position t are ignored
        assert invariants_from_c([1, 5, POS_INF], 1) == (6, 4, 5, 4)


class TestFullInvariants:
    def test_worked_example(self, curve_ideal):
        rep = full_invariants(curve_ideal)
        assert rep.t == 2
        assert rep.c == (NEG_INF, 2, 2)
        assert rep.dim_quotient == 2
        assert (rep.reg_quotient, rep.astar_quotient) == (2, 1)
        assert (rep.reg_ideal, rep.astar_ideal) == (3, 1)
        assert rep.method == "c"
        assert rep.is_full
        assert rep.generic_retries == 0

    def test_principal_power_ideals(self, R3):
        # reg(R/(f)) = deg f - 1 for a hypersurface
        x1 = R3.variable(0)
        f = x1
        for d in range(2, 6):
            f = f * x1 if d > 2 else x1 * x1
            rep = full_invariants(Ideal(R3, [f]))
            assert rep.reg_quotient == d - 1
            assert rep.reg_ideal == d
            assert rep.astar_quotient == d - 3
            assert rep.dim_quotient == 2

    def test_random_quadric_hypersurface(self, R3):
        rng = random.Random(7)
        x = [R3.variable(i) for i in range(3)]
        for _ in range(5):
            f = R3.zero()
            while f.is_zero():
                f = sum(
                    ((x[i] * x[j]).scale(R3.field(rng.randint(-3, 3)))
                     for i in range(3)
                     for j in range(i, 3)),
                    R3.zero(),
                )
            rep = full_invariants(Ideal(R3, [f]))
            assert rep.reg_quotient == 1

    def test_zero_ideal(self, R2):
        rep = full_invariants(MonomialIdeal.from_generators(R2, []))
        assert rep.t == 2
        assert rep.reg_quotient == 0
        assert rep.astar_quotient == -2
        assert rep.reg_ideal == NEG_INF
        assert rep.astar_ideal == NEG_INF

    def test_failure_without_generic_retries(self, R2):
        I = frf_witness(R2)
        with pytest.raises(FilterRegularityFailure):
            full_invariants(I, use_generic=False)

    def test_generic_retry_recovers(self, R2):
        rep = full_invariants(frf_witness(R2), use_generic=True, seed=5)
        assert rep.generic_retries >= 1
        # I = x2 * (x1, x2) resolves as 0 -> S(-3) -> S(-2)^2 -> I -> 0
        assert rep.reg_quotient == 1
        assert rep.astar_quotient == 1
        assert rep.dim_quotient == 1

    def test_high_exponent_retry_is_unitriangular(self, monkeypatch):
        # (x^20 y^20, y^20 z^20, x^20 z^20): every c_i is +inf in the given
        # coordinates, and one small-entry retry answers reg 3d - 2; the
        # retry's in(g I) is read off Buchberger's leads, so the kernel runs
        # only its 20 S-pair reductions and no inter-reduction
        calls = spy_on_the_kernel(monkeypatch)
        R = PolynomialRing(["x", "y", "z"])
        d = 20
        I = MonomialIdeal.from_generators(R, [(d, d, 0), (0, d, d), (d, 0, d)])
        rep = full_invariants(I)
        assert rep.generic_retries == 1
        assert (rep.reg_quotient, rep.astar_quotient) == (58, 57)
        assert len(calls) == 20

    def test_numerator_of_in_i_is_computed_once(self, monkeypatch):
        # krull_dimension, c_0 and the retry's Hilbert target all read the
        # numerator of J0 = in(I), here the d = 20 d-family itself; it is
        # kept on J0, not on its generators, so an equal ideal computes its own
        computed = spy_on_numerators(monkeypatch)
        R = PolynomialRing(["x", "y", "z"])
        gens = [(20, 20, 0), (0, 20, 20), (20, 0, 20)]
        J0 = MonomialIdeal.from_generators(R, gens)
        assert full_invariants(J0).generic_retries == 1
        assert computed.count(J0.gens) == 1
        computed.clear()
        first, second = (MonomialIdeal.from_generators(R, gens) for _ in range(2))
        assert hilbert_numerator(first) == hilbert_numerator(second) == hilbert_numerator(J0)
        assert hilbert_numerator(first) == hilbert_numerator(second)  # kept: no third
        assert computed.count(J0.gens) == 2

    def test_retries_are_unitriangular_then_dense(self, monkeypatch):
        # over GF(2) no change of coordinates the route draws at seed 0 is
        # filter-regular for this ideal: RETRY_CAP - 1 unitriangular
        # changes, then one dense draw with entries up to --bound
        drawn = []
        for name in ("random_unitriangular_matrix", "random_invertible_matrix"):
            original = getattr(cmreg.regularity, name)

            def recorded(*args, _name=name, _original=original, **kwargs):
                m = _original(*args, **kwargs)
                drawn.append((_name, m))
                return m

            monkeypatch.setattr(cmreg.regularity, name, recorded)
        R = PolynomialRing(["x%d" % i for i in range(1, 8)], field=PrimeField(2))
        gens = [
            (1, 0, 0, 0, 0, 1, 0), (0, 2, 0, 0, 0, 0, 0), (1, 0, 0, 0, 1, 0, 0),
            (0, 1, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 1, 0), (1, 0, 1, 1, 0, 0, 0),
            (0, 0, 2, 1, 0, 0, 1), (0, 0, 0, 1, 0, 0, 3),
        ]
        with pytest.raises(FilterRegularityFailure) as exc:
            full_invariants(MonomialIdeal.from_generators(R, gens), bound=50)
        assert exc.value.retries == RETRY_CAP
        names = [name for name, _ in drawn]
        assert names == ["random_unitriangular_matrix"] * (RETRY_CAP - 1) + [
            "random_invertible_matrix"
        ]
        assert max(abs(a) for row in drawn[-1][1] for a in row) <= 50

    @pytest.mark.parametrize("bound", [0, -3])
    def test_bound_refused_before_any_retry(self, curve_ideal, bound):
        # the quartic curve needs no retry, and a bad bound is still refused
        with pytest.raises(InputError, match="bound"):
            full_invariants(curve_ideal, bound=bound)
        with pytest.raises(InputError, match="bound"):
            generic_initial_ideal(curve_ideal, bound=bound)

    def test_shift_identities(self):
        rng = random.Random(11)
        R = PolynomialRing(["x1", "x2", "x3"])
        done = 0
        while done < 8:
            I = random_homogeneous_ideal(rng, R)
            if I is None:
                continue
            try:
                rep = full_invariants(I, use_generic=False)
            except FilterRegularityFailure:
                continue
            assert rep.reg_ideal == rep.reg_quotient + 1
            assert rep.astar_ideal == rep.astar_quotient
            done += 1

    def test_coordinate_invariance(self):
        rng = random.Random(13)
        R = PolynomialRing(["x1", "x2", "x3"])
        done = 0
        while done < 5:
            I = random_homogeneous_ideal(rng, R)
            if I is None:
                continue
            m = random_invertible_matrix(rng, 3, R.field, bound=5)
            a = full_invariants(I, seed=1)
            b = full_invariants(transform_ideal(I, m), seed=1)
            assert (a.reg_quotient, a.astar_quotient) == (
                b.reg_quotient,
                b.astar_quotient,
            )
            done += 1

    def test_monomial_input_matches_oracle(self):
        rng = random.Random(17)
        R = PolynomialRing(["x1", "x2", "x3"])
        done = 0
        while done < 15:
            J = random_monomial_ideal(rng, R)
            if J is None or J.is_unit() or J.is_zero():
                continue
            try:
                rep = full_invariants(J, use_generic=False)
            except FilterRegularityFailure:
                continue
            inv = invariants_from_betti(betti_table(J))
            assert rep.reg_quotient == inv["reg"]
            assert rep.astar_quotient == inv["astar"]
            done += 1


class TestGin:
    def test_two_squares(self, R2):
        I = MonomialIdeal.from_generators(R2, [(2, 0), (0, 2)])
        result = generic_initial_ideal(I, seed=0)
        assert result.gin == MonomialIdeal.from_generators(
            R2, [(2, 0), (1, 1), (0, 3)]
        )
        assert result.borel_certified
        assert result.draws_agreed >= 2

    def test_seed_independence(self, R2):
        I = MonomialIdeal.from_generators(R2, [(2, 0), (0, 2)])
        gins = {generic_initial_ideal(I, seed=s).gin for s in range(3)}
        assert len(gins) == 1

    def test_frf_witness_gin(self, R2):
        result = generic_initial_ideal(frf_witness(R2), seed=0)
        assert result.gin == MonomialIdeal.from_generators(R2, [(2, 0), (1, 1)])

    def test_borel_fixed_always(self):
        rng = random.Random(19)
        from cmreg import is_borel_fixed

        R = PolynomialRing(["x1", "x2", "x3"])
        done = 0
        while done < 4:
            I = random_homogeneous_ideal(rng, R)
            if I is None:
                continue
            assert is_borel_fixed(generic_initial_ideal(I, seed=2).gin)
            done += 1

    def test_characteristic_error(self):
        R = PolynomialRing(["x", "y"], field=PrimeField(101))
        I = Ideal(R, [R.variable(0) * R.variable(0)])
        with pytest.raises(CharacteristicError):
            generic_initial_ideal(I)

    def test_draws_that_never_agree_fail_the_route(self, R2, monkeypatch):
        # every draw finds the same (x1^2, x1*x2, x2^3), but none is accepted
        # unless it is Borel-fixed
        monkeypatch.setattr(cmreg.regularity, "is_borel_fixed", lambda J: False)
        I = MonomialIdeal.from_generators(R2, [(2, 0), (0, 2)])
        with pytest.raises(GinAgreementError) as exc:
            generic_initial_ideal(I, seed=0)
        gin = MonomialIdeal.from_generators(R2, [(2, 0), (1, 1), (0, 3)])
        assert (exc.value.draws, exc.value.candidates) == (DRAW_CAP, [gin])
        assert str(exc.value) == (
            "no two of %d random draws agreed on a Borel-fixed initial ideal; "
            "candidates: [%r]" % (DRAW_CAP, gin)
        )

    def test_gin_route_matches_c_route(self, curve_ideal):
        rep = invariants_via_gin(curve_ideal, t=2)
        assert (rep.reg_quotient, rep.astar_quotient) == (2, 1)
        assert (rep.reg_ideal, rep.astar_ideal) == (3, 1)
        assert rep.method == "gin"

    def test_gin_route_fails_on_a_draw_with_an_infinite_c(self, R2, monkeypatch):
        # Gin(x1*x2) is (x1^2); a draw loop that accepted (x1*x2) would read
        # a*(S/I) = 1 off its generators, but a*(S/(x1*x2)) = 0
        monkeypatch.setattr(cmreg.regularity, "generic_initial_ideal", non_borel_draw)
        I = MonomialIdeal.from_generators(R2, [(1, 1)])
        for t in (None, 0, 1, 2):
            with pytest.raises(MathematicalFailure, match=r"c_0 = \+inf"):
                invariants_via_gin(I, t=t)

    def test_gin_route_random_agreement(self):
        rng = random.Random(23)
        R = PolynomialRing(["x1", "x2", "x3"])
        done = 0
        while done < 5:
            I = random_homogeneous_ideal(rng, R)
            if I is None:
                continue
            a = full_invariants(I, seed=3)
            b = invariants_via_gin(I, seed=3)
            assert (a.reg_quotient, a.astar_quotient) == (
                b.reg_quotient,
                b.astar_quotient,
            )
            done += 1

    def test_initial_ideal_bounds_from_above(self):
        rng = random.Random(29)
        # reg of the coordinate-dependent initial ideal can only exceed
        # the true regularity
        R = PolynomialRing(["x1", "x2", "x3"])
        done = 0
        while done < 5:
            I = random_homogeneous_ideal(rng, R)
            if I is None:
                continue
            rep = full_invariants(I, seed=4)
            from cmreg.regularity import _initial_of

            J = _initial_of(I)
            if J.is_unit() or J.is_zero():
                continue
            inv = invariants_from_betti(betti_table(J))
            assert inv["reg"] >= rep.reg_quotient
            done += 1


class TestOracleOnIdeals:
    """The oracle reads S/in(I) for an Ideal, through the same in(I) as the
    c route."""

    @staticmethod
    def values(rep):
        return (
            rep.reg_quotient,
            rep.astar_quotient,
            rep.reg_t_quotient,
            rep.astar_t_quotient,
            rep.dim_quotient,
            rep.max_generator_degree,
            rep.betti.entries,
        )

    def test_ideal_reads_its_initial_ideal(self, curve_ideal, curve_initial):
        assert self.values(invariants_via_betti(curve_ideal)) == self.values(
            invariants_via_betti(curve_initial)
        )
        rng = random.Random(29)
        R = PolynomialRing(["x1", "x2", "x3"])
        done = 0
        while done < 5:
            I = random_homogeneous_ideal(rng, R)
            if I is None:
                continue
            try:
                J = full_invariants(I).initial_ideal
            except InputError:
                continue  # the unit ideal has no invariants
            for t in range(R.n + 1):
                assert self.values(invariants_via_betti(I, t)) == self.values(
                    invariants_via_betti(J, t)
                )
            done += 1

    def test_no_groebner_basis_after_the_c_route(self, curve_ideal, monkeypatch):
        full_invariants(curve_ideal)
        calls = []
        original = cmreg.groebner._groebner_basis

        def counted(ideal, target):
            calls.append(ideal)
            return original(ideal, target)

        monkeypatch.setattr(cmreg.groebner, "_groebner_basis", counted)
        invariants_via_betti(curve_ideal)
        assert calls == []

    @pytest.mark.parametrize("case", ["rp2-gf2", "curve"])
    def test_dim_comes_off_the_table(self, case, curve_initial, monkeypatch):
        # the oracle keeps its table's K-polynomial as J's numerator and reads
        # dim off it, with no pivot recursion; a numerator that J already
        # keeps, as after the c route under --method all, stays as it is
        if case == "rp2-gf2":
            with open(os.path.join(GOLDEN_DIR, "rp2-gf2.ideal"), encoding="utf-8") as fh:
                document = parse_input(fh.read())
            ring = document.ring
            gens = [next(iter(g.coeffs)) for g in document.generators]
        else:
            ring, gens = curve_initial.ring, curve_initial.gens
        computed = spy_on_numerators(monkeypatch)
        J = MonomialIdeal(ring, gens)
        dim = invariants_via_betti(J).dim_quotient
        assert computed == []
        assert dim == krull_dimension(MonomialIdeal(ring, gens))
        J = MonomialIdeal(ring, gens)
        full_invariants(J)
        kept = J._hilbert
        assert kept is not None
        assert invariants_via_betti(J).dim_quotient == dim
        assert J._hilbert is kept


class TestDegreeBoundTarget:
    """The first in(g I) of an Ideal has Buchberger's Hilbert target from
    the generators' degrees when there are at most n of them: HS(S/I) is
    at least prod (1 - t^{d_i}) / (1-t)^n.  More generators get none."""

    @pytest.fixture
    def targets(self, monkeypatch):
        seen = []
        original = cmreg.groebner._groebner_basis

        def spied(ideal, target):
            seen.append(target)
            return original(ideal, target)

        monkeypatch.setattr(cmreg.groebner, "_groebner_basis", spied)
        return seen

    @staticmethod
    def quadrics(k):
        R = PolynomialRing(["x", "y", "z"])
        x, y, z = R.gens()
        forms = [x * x + y * z, y * y - x * z, z * z + x * y, x * y + y * z]
        return Ideal(R, forms[:k])

    def test_more_generators_than_variables_get_no_target(self, targets):
        # (1 - t^2)^4 has negative coefficients, and its series over
        # (1-t)^3 is negative in degree 3
        c_invariants(self.quadrics(4), 0)
        assert targets == [None]

    def test_the_c_route_and_the_first_gin_draw_get_the_bound(self, targets):
        bound = [1, 0, -3, 0, 3, 0, -1]  # (1 - t^2)^3
        c_invariants(self.quadrics(3), 0)
        assert targets == [bound]
        targets.clear()
        generic_initial_ideal(self.quadrics(3), seed=3)
        assert targets[0] == bound
        # every later draw gets the first draw's numerator 1 - 3t^2 + 2t^3,
        # not the bound: these three quadrics are no complete intersection
        assert targets[1:] == [[1, 0, -3, 2]] * (len(targets) - 1)

    def test_the_c_route_computes_the_numerator_of_in_i_only_in_buchberger(self, monkeypatch):
        # Buchberger's colon steps leave N(in(I)) on in(I), so neither
        # krull_dimension nor c_0 computes it again from the generators
        computed = spy_on_numerators(monkeypatch)
        I = self.quadrics(3)
        full_invariants(I)
        assert I._initial._hilbert == (1, 0, -3, 2)
        assert frozenset(I._initial.gens) not in map(frozenset, computed)
        assert hilbert_numerator(MonomialIdeal(I.ring, I._initial.gens)) == [1, 0, -3, 2]
        assert frozenset(computed[-1]) == frozenset(I._initial.gens)

    def test_the_retry_of_the_d_family_gets_its_numerator(self, targets):
        # (x^4 y^4, y^4 z^4, x^4 z^4) is its own in(I); the retry in random
        # coordinates gets its Hilbert numerator
        R = PolynomialRing(["x", "y", "z"])
        I = MonomialIdeal.from_generators(R, [(4, 4, 0), (0, 4, 4), (4, 0, 4)])
        assert full_invariants(I).generic_retries == 1
        assert targets == [hilbert_numerator(I)]


class TestRandomMatrices:
    def test_invertible(self, R3):
        rng = random.Random(31)
        for _ in range(10):
            m = random_invertible_matrix(rng, 3, R3.field, bound=4)
            from cmreg.rings import matrix_is_invertible

            assert matrix_is_invertible(R3.field, m)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_unitriangular(self, n):
        rng = random.Random(41)
        entries = set()
        for _ in range(20):
            m = random_unitriangular_matrix(rng, n)
            assert len(m) == n and all(len(row) == n for row in m)
            for j, row in enumerate(m):
                assert row[j] == 1
                assert not any(row[j + 1 :])
                entries.update(row[:j])
        # below the diagonal: every integer in [-3, 3] and nothing else
        assert entries == (set(range(-3, 4)) if n > 1 else set())

    def test_each_change_is_tested_only_where_it_can_fail(self, monkeypatch):
        # on qq-retry the c route makes one unitriangular retry, of
        # determinant 1, and Gin makes two dense draws, which
        # random_invertible_matrix tests: one test per draw, none per retry
        calls = []

        def counted(field, rows):
            calls.append(rows)
            return matrix_is_invertible(field, rows)

        monkeypatch.setattr(cmreg.regularity, "matrix_is_invertible", counted)
        monkeypatch.setattr(cmreg.rings, "matrix_is_invertible", counted)
        path = os.path.join(GOLDEN_DIR, "qq-retry.ideal")
        out, err = io.StringIO(), io.StringIO()
        assert run(["compute", "--input", path, "--json"] + GOLDEN["qq-retry"], out=out, err=err) == 0
        methods = json.loads(out.getvalue())["methods"]
        assert methods["c"]["generic_retries"] == 1
        assert len(calls) == methods["gin"]["gin_draws_total"] == 2

    def test_transform_preserves_homogeneity(self, curve_ideal):
        rng = random.Random(37)
        m = random_invertible_matrix(rng, 4, curve_ideal.ring.field)
        moved = transform_ideal(curve_ideal, m)
        for g in moved.generators:
            ok, _ = g.is_homogeneous()
            assert ok
