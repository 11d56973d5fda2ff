"""Property tests on random monomial ideals over QQ: the c route against
the Betti oracle at every cutoff t, and reg and a* under a change of
coordinates; and on integer polynomials: reducing mod p commutes with the
ring operations.  Derandomized, so that every run draws the same examples."""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmreg import (
    MonomialIdeal,
    PolynomialRing,
    PrimeField,
    full_invariants,
    invariants_via_betti,
    s_polynomial,
)
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


NAMES = ["x", "y", "z"]
QQ_RING = PolynomialRing(NAMES)

# up to 5 terms in 3 variables with integer coefficients in [-40, 40], so
# that sums and products cancel mod 2 and mod 32003 as well as over QQ
integer_polynomials = st.lists(
    st.tuples(st.integers(-40, 40), st.tuples(*[st.integers(0, 3)] * 3)),
    max_size=5,
).map(QQ_RING.from_terms)


def mod_p(f, ring):
    """The image in ring = GF(p)[x, y, z] of f over QQ, whose denominators
    are prime to p."""
    return ring.from_terms(
        (ring.field(int(c.numerator), int(c.denominator)), e) for c, e in f.terms
    )


@PROPERTY_SETTINGS
@given(st.sampled_from([2, 32003]), integer_polynomials, integer_polynomials, st.integers(-50, 50))
def test_reduction_mod_p_commutes_with_the_ring_operations(p, f, g, k):
    ring = PolynomialRing(NAMES, PrimeField(p))
    fp, gp = mod_p(f, ring), mod_p(g, ring)
    assert mod_p(f + g, ring) == fp + gp
    assert mod_p(f - g, ring) == fp - gp
    assert mod_p(-f, ring) == -fp
    assert mod_p(f * g, ring) == fp * gp
    assert mod_p(f.scale(k), ring) == fp.scale(k)
    for h in (fp + gp, fp - gp, fp * gp, fp.scale(k)):
        assert all(0 < c < p for c in h.coeffs.values())


@PROPERTY_SETTINGS
@given(st.sampled_from([2, 32003]), integer_polynomials, integer_polynomials)
def test_reduction_mod_p_commutes_with_s_polynomials(p, f, g):
    # the leading terms must survive the reduction for S(f, g) to keep its
    # meaning mod p
    assume(not f.is_zero() and not g.is_zero())
    assume(f.leading_coeff() % p and g.leading_coeff() % p)
    ring = PolynomialRing(NAMES, PrimeField(p))
    assert mod_p(s_polynomial(f, g), ring) == s_polynomial(mod_p(f, ring), mod_p(g, ring))
