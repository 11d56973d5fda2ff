"""Betti table oracle: upper Koszul complexes, simplicial homology, and the
regularity read-offs from column maxima."""

import io
import os
import random

import pytest

import cmreg.linalg
from cmreg import (
    MonomialIdeal,
    PolynomialRing,
    PrimeField,
    QQ,
    betti_table,
    hilbert_numerator,
    invariants_from_betti,
    invariants_via_betti,
    krull_dimension,
)
from cmreg.betti import (
    MAX_GENERATORS,
    OracleScopeError,
    lcm_multidegrees,
    reduced_homology_ranks,
    upper_koszul_complex,
)
from cmreg.cli import EXIT_OK, run
from cmreg.fields import FieldError

from conftest import random_monomial_ideal
from test_golden import GOLDEN, GOLDEN_DIR


def rp2_ideal(field):
    """The Stanley-Reisner ideal of the 6-vertex real projective plane."""
    R = PolynomialRing(["x%d" % i for i in range(1, 7)], field=field)
    nonfaces = [
        (1, 2, 4), (1, 2, 5), (1, 3, 5), (1, 3, 6), (1, 4, 6),
        (2, 3, 4), (2, 3, 6), (2, 5, 6), (3, 4, 5), (4, 5, 6),
    ]
    return MonomialIdeal.from_generators(R, [tuple(int(v in face) for v in range(1, 7)) for face in nonfaces])


class TestLcmMultidegrees:
    def test_two_coprime_generators(self, R2):
        J = MonomialIdeal.from_generators(R2, [(1, 0), (0, 1)])
        assert lcm_multidegrees(J) == {(1, 0), (0, 1), (1, 1)}

    def test_dedupes(self, R3):
        J = MonomialIdeal.from_generators(
            R3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)]
        )
        lats = lcm_multidegrees(J)
        # all pairwise and triple lcms coincide at (1,1,1)
        assert lats == {(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)}

    def test_rejects_zero_and_unit(self, R2):
        with pytest.raises(ValueError):
            lcm_multidegrees(MonomialIdeal.from_generators(R2, []))
        with pytest.raises(ValueError):
            lcm_multidegrees(MonomialIdeal.from_generators(R2, [(0, 0)]))

    def test_scope_guard(self, R2):
        # an antichain of 21 incomparable monomials survives minimalization
        gens = [(a, MAX_GENERATORS - a) for a in range(MAX_GENERATORS + 1)]
        with pytest.raises(OracleScopeError):
            lcm_multidegrees(MonomialIdeal.from_generators(R2, gens))


class TestUpperKoszul:
    def test_void_when_outside(self, R2):
        J = MonomialIdeal.from_generators(R2, [(2, 0)])
        assert upper_koszul_complex(J, (1, 0)) == []

    def test_two_variables_disconnected_pair(self, R2):
        # J = (x1, x2) at b = (1,1): vertices {0} and {1} (the bitmasks
        # 0b01 and 0b10) but not the edge 0b11, so H~_0 has rank 1 and
        # beta_{2,(1,1)} = 1
        J = MonomialIdeal.from_generators(R2, [(1, 0), (0, 1)])
        faces = upper_koszul_complex(J, (1, 1))
        assert faces == [[0], [0b01, 0b10]]
        assert reduced_homology_ranks(upper_koszul_complex(J, (1, 1))) == [0, 1]

    def test_full_simplex_is_acyclic(self, R2):
        J = MonomialIdeal.from_generators(R2, [(1, 0)])
        ranks = reduced_homology_ranks(upper_koszul_complex(J, (2, 1)))
        assert all(r == 0 for r in ranks)

    def test_empty_face_only_contributes_h_minus_one(self, R3):
        # b = lcm of nothing reachable: complex is the empty-face point set?
        # here x^b itself lies in J but no reduced multidegree does, so the
        # complex is {empty face}, whose only homology is H~_{-1} = 1
        J = MonomialIdeal.from_generators(R3, [(1, 1, 1)])
        faces = upper_koszul_complex(J, (1, 1, 1))
        assert faces == [[0]]
        assert reduced_homology_ranks(upper_koszul_complex(J, (1, 1, 1))) == [1]

    def test_reduced_homology_of_circle(self):
        # hollow triangle: H~_{-1} = 0, H~_0 = 0, H~_1 = 1
        faces = [[0], [0b001, 0b010, 0b100], [0b011, 0b101, 0b110]]
        assert reduced_homology_ranks(faces) == [0, 0, 1]


class TestBettiTable:
    def test_koszul_two_variables(self, R2):
        J = MonomialIdeal.from_generators(R2, [(1, 0), (0, 1)])
        T = betti_table(J)
        assert T.entries == {(0, 0): 1, (1, 1): 2, (2, 2): 1}

    def test_two_generator_chain(self, R3):
        # S/(x1x2, x2x3): taylor complex is minimal
        J = MonomialIdeal.from_generators(R3, [(1, 1, 0), (0, 1, 1)])
        T = betti_table(J)
        assert T.entries == {(0, 0): 1, (1, 2): 2, (2, 3): 1}

    def test_curve_initial_ideal_regularity(self, curve_initial):
        T = betti_table(curve_initial)
        inv = invariants_from_betti(T)
        assert inv["reg"] == 2
        assert inv["astar"] == 1

    def test_generator_row(self):
        rng = random.Random(11)
        R = PolynomialRing(["x1", "x2", "x3"])
        done = 0
        while done < 20:
            J = random_monomial_ideal(rng, R)
            if J is None or J.is_unit():
                continue
            T = betti_table(J)
            from collections import Counter

            degs = Counter(sum(g) for g in J.gens)
            row1 = {j: r for (i, j), r in T.entries.items() if i == 1}
            assert row1 == dict(degs)
            done += 1

    def test_euler_characteristic_matches_hilbert_numerator(self):
        # alternating sum of the Betti table equals the Hilbert numerator,
        # an independent consistency check between the two engines
        rng = random.Random(13)
        names = ["x1", "x2", "x3", "x4"]
        done = 0
        while done < 30:
            n = rng.randint(2, 4)
            R = PolynomialRing(names[:n])
            J = random_monomial_ideal(rng, R)
            if J is None or J.is_unit():
                continue
            T = betti_table(J)
            assert T.k_polynomial() == hilbert_numerator(J)
            done += 1

    def test_large_exponents_match_hilbert_numerator(self):
        # (x^d y^d, y^d z^d, x^d z^d): a variable-by-variable pivot recursion
        # is as deep as d and overflows the stack at this size
        d = 1300
        R = PolynomialRing(["x", "y", "z"])
        J = MonomialIdeal.from_generators(R, [(d, d, 0), (0, d, d), (d, 0, d)])
        assert hilbert_numerator(J) == betti_table(J).k_polynomial()

    def test_projective_dimension_bound(self):
        rng = random.Random(23)
        R = PolynomialRing(["x1", "x2", "x3"])
        done = 0
        while done < 20:
            J = random_monomial_ideal(rng, R)
            if J is None or J.is_unit():
                continue
            T = betti_table(J)
            assert max(i for (i, _) in T.entries) <= R.n
            done += 1

    def test_char_p_agrees_in_small_cases(self):
        rng = random.Random(31)
        R = PolynomialRing(["x1", "x2", "x3"])
        done = 0
        while done < 15:
            J = random_monomial_ideal(rng, R, max_deg=3, max_gens=4)
            if J is None or J.is_unit():
                continue
            assert betti_table(J).entries == betti_table(J, field_char=32003).entries
            done += 1

    def test_characteristic_defaults_to_the_field(self):
        # reg(S/J) is 3 over GF(2) and 2 in characteristic 0
        J = rp2_ideal(PrimeField(2))
        assert invariants_from_betti(betti_table(J))["reg"] == 3
        assert invariants_from_betti(betti_table(J, field_char=0))["reg"] == 2

    @pytest.mark.parametrize("field_char", [1, 4, -2])
    def test_refuses_a_characteristic_neither_zero_nor_prime(self, field_char):
        # on RP^2, 1 gave beta_{3,6} = beta_{4,6} = 10, 4 a bare ValueError
        # from pow, and -2 the table over GF(2); the zero ideal, whose table
        # needs no rank, is refused too
        J = rp2_ideal(QQ)
        for ideal in (J, MonomialIdeal.from_generators(J.ring, [])):
            with pytest.raises(FieldError, match="neither 0 nor a prime"):
                betti_table(ideal, field_char)


class TestInvariantsFromBetti:
    def test_partial_thresholds(self, curve_initial):
        # dim S/J = 2: full invariants need t >= 2
        T = betti_table(curve_initial)
        d = krull_dimension(curve_initial)
        assert d == 2
        for t in range(d, curve_initial.n + 1):
            inv = invariants_from_betti(T, t=t)
            assert inv["reg_t"] == 2
            assert inv["astar_t"] == 1

    def test_t_zero_uses_last_column_only(self, R2):
        J = MonomialIdeal.from_generators(R2, [(1, 0), (0, 1)])
        inv = invariants_from_betti(betti_table(J), t=0)
        # only i >= n - 0 = 2 contributes: b_2 = 2
        assert inv["reg_t"] == 0
        assert inv["astar_t"] == 0

    def test_reports_max_generator_degree(self, curve_initial):
        inv = invariants_from_betti(betti_table(curve_initial))
        assert inv["d"] == 3

    def test_invariants_via_betti_reads_the_table(self, curve_initial):
        T = betti_table(curve_initial)
        for t in range(curve_initial.n + 1):
            inv = invariants_from_betti(T, t=t)
            rep = invariants_via_betti(curve_initial, t)
            assert rep.betti.entries == T.entries
            assert (rep.reg_quotient, rep.astar_quotient) == (inv["reg"], inv["astar"])
            assert (rep.reg_t_quotient, rep.astar_t_quotient) == (
                inv["reg_t"],
                inv["astar_t"],
            )
            assert rep.max_generator_degree == inv["d"]
            assert (rep.reg_ideal, rep.astar_ideal) == (inv["reg"] + 1, inv["astar"])
            assert rep.c is None and rep.t == t


def spied_oracle_run(monkeypatch, name, spied, args):
    """Run the CLI on the golden ideal `name` with `args`, and return the
    positional arguments of each call of the named `cmreg.linalg`
    functions, as {function: [args, ...]}."""
    seen = {}
    for function in spied:
        original, seen[function] = getattr(cmreg.linalg, function), []

        def spy(*a, _original=original, _calls=seen[function], **kwargs):
            _calls.append(a)
            return _original(*a, **kwargs)

        monkeypatch.setattr(cmreg.linalg, function, spy)
    path = os.path.join(GOLDEN_DIR, name + ".ideal")
    out, err = io.StringIO(), io.StringIO()
    assert run(["compute", "--input", path, "--json"] + args, out=out, err=err) == EXIT_OK
    return seen


class TestBoundaryEliminations:
    # perfbench/tracer.py reads the linalg metrics off the calls of
    # rank_int and rank_mod_p, and the size of each matrix off its first
    # positional argument; an elimination that goes around them reads 0
    @pytest.mark.parametrize(
        "name, expected",
        [
            # 115 boundary matrices at levels >= 3; cleared, they keep 916
            # of their 1407 rows
            ("oracle-gf2", {"rank_mod_p": (115, 916)}),
            # one d_3 with RP^2's 10 triangles, its top level: nothing cleared
            ("rp2-gf2", {"rank_mod_p": (1, 10)}),
            # over QQ the same d_3 over GF(2) first; that homology spans
            # H~_1 and H~_2, so d_3 is eliminated over QQ too
            ("rp2-qq", {"rank_mod_p": (1, 10), "rank_int": (1, 10)}),
        ],
        ids=["oracle-gf2", "rp2-gf2", "rp2-qq"],
    )
    def test_every_boundary_rank_goes_through_the_traced_functions(self, monkeypatch, name, expected):
        seen = spied_oracle_run(monkeypatch, name, ["rank_int", "rank_mod_p"], GOLDEN[name])
        assert {f: len(c) for f, c in seen.items() if c} == {f: calls for f, (calls, _) in expected.items()}
        for function, (_, rows) in expected.items():
            assert all(isinstance(args[0], list) for args in seen[function])
            assert sum(len(args[0]) for args in seen[function]) == rows

    @pytest.mark.parametrize(
        "name, normalizes", [("oracle-gf2", False), ("rp2-gf2", False), ("rp2-qq", True)]
    )
    def test_only_the_dict_kernel_normalizes_pivot_rows(self, monkeypatch, name, normalizes):
        # over GF(2) a pivot row is an int bitset and needs no canonical
        # multiple; over QQ every pivot row is one
        seen = spied_oracle_run(monkeypatch, name, ["normalized"], GOLDEN[name])
        assert bool(seen["normalized"]) == normalizes

    @pytest.mark.parametrize(
        "name, qq_rank",
        [
            # every K^b of this QQ ideal has GF(2) homology in at most one
            # degree, which is then its homology over QQ: nothing is
            # eliminated over QQ
            ("monomial", 0),
            # RP^2's d_3, whose GF(2) homology spans two degrees, in one
            # rank_int call, with one normalized pivot row per unit of its
            # rank 10
            ("rp2-qq", 10),
        ],
    )
    def test_qq_is_eliminated_only_where_gf2_homology_spans_two_degrees(self, monkeypatch, name, qq_rank):
        seen = spied_oracle_run(monkeypatch, name, ["rank_int", "normalized"], ["--method", "oracle", "--betti"])
        assert len(seen["rank_int"]) == bool(qq_rank)
        assert len(seen["normalized"]) == qq_rank
