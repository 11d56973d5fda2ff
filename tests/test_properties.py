"""Property tests on random monomial ideals over QQ: the c route against
the Betti oracle at every cutoff t, and reg and a* under a change of
coordinates.  Derandomized, so that every run draws the same examples."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from cmreg import MonomialIdeal, PolynomialRing, full_invariants, invariants_via_betti
from cmreg.regularity import random_invertible_matrix, transform_ideal

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=30)


@st.composite
def monomial_ideals(draw):
    """A nonzero proper monomial ideal: n <= 5 variables, at most 6
    generators of degree 1 to 4."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 6))
    # a generator of degree d is a list of the d variables it multiplies
    support = st.lists(st.integers(0, n - 1), min_size=1, max_size=4)
    supports = draw(st.lists(support, min_size=k, max_size=k))
    ring = PolynomialRing(["x%d" % (i + 1) for i in range(n)])
    gens = [tuple(support.count(i) for i in range(n)) for support in supports]
    return MonomialIdeal.from_generators(ring, gens)


@PROPERTY_SETTINGS
@given(monomial_ideals())
def test_c_route_matches_oracle_at_every_cutoff(J):
    for t in range(J.n + 1):
        rep = full_invariants(J, t=t)
        oracle = invariants_via_betti(J, t=t)
        assert (rep.reg_quotient, rep.astar_quotient) == (
            oracle.reg_t_quotient,
            oracle.astar_t_quotient,
        )


@PROPERTY_SETTINGS
@given(monomial_ideals(), st.integers(0, 2**32 - 1))
def test_reg_and_astar_survive_a_coordinate_change(J, seed):
    m = random_invertible_matrix(random.Random(seed), J.n, J.ring.field, bound=3)
    a = full_invariants(J)
    b = full_invariants(transform_ideal(J, m))
    assert (a.reg_quotient, a.astar_quotient) == (b.reg_quotient, b.astar_quotient)
