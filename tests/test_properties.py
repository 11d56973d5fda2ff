"""Property tests on random monomial ideals over QQ: the c route against
the Betti oracle at every cutoff t, and reg and a* under a change of
coordinates; on random monomial ideals over QQ and GF(2), probed where
b_j meets or passes the generators' exponents: the upper Koszul complex
read off its facets against its definition; on random facet
sets over at most 7 vertices, over QQ, GF(2) and GF(3): reduced homology
with its two lowest boundary ranks counted against elimination at every
level; on random facet sets over at most 8 vertices, over QQ, GF(2) and
GF(3): each boundary rank, with the pivot faces of the map above cleared,
against the dense rank of the whole map; on random monomial ideals in 5
to 8 variables at oracle scale, in characteristics 0, 2 and 3: the
K-polynomial of the Betti table against the Hilbert numerator; on
integer polynomials: reducing mod p commutes with the ring operations; on sparse integer matrices over QQ and GF(p),
and on the boundary matrices of random facet sets over at most 8
vertices over QQ, GF(2) and GF(3): the elimination kernel's rank against
a dense elimination; on random homogeneous ideals over QQ, GF(2)
and GF(32003): Buchberger with a Hilbert target against Buchberger
without one; on at most n random forms over QQ, GF(2) and GF(32003):
their degree bound prod (1 - t^{d_i}) as a Hilbert target; on random
homogeneous ideals over QQ: Gin's c list against the degrees of Min(Gin);
on random monomials: the colon step of a Hilbert numerator against the
numerator from nothing; and the numerator every in(g I) of a retry or a
Gin draw keeps against one computed afresh; and on random homogeneous
ideals over QQ, GF(2) and GF(32003) in drawn coordinates: the minimal
leads of Buchberger's basis against the initial ideal of the reduced
basis.  Derandomized, so that every run draws the same examples."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cmreg.regularity
from cmreg import (
    Ideal,
    MathematicalFailure,
    MonomialIdeal,
    PolynomialRing,
    QQ,
    PrimeField,
    betti_table,
    full_invariants,
    generic_initial_ideal,
    hilbert_numerator,
    initial_ideal,
    invariants_via_betti,
    invariants_via_gin,
    reduced_groebner_basis,
    s_polynomial,
)
from cmreg.betti import (
    _boundary_matrix,
    lcm_multidegrees,
    reduced_homology_ranks,
    upper_koszul_complex,
)
from cmreg.groebner import _leading_ideal, buchberger, interreduce
from cmreg.linalg import rank
from cmreg.monomial_ideals import (
    _order_at_one,
    _padd,
    colon_step,
    complete_intersection_numerator,
    hilbert_function,
    hilbert_function_from_numerator,
)
from cmreg.regularity import (
    random_invertible_matrix,
    random_unitriangular_matrix,
    transform_ideal,
)

from conftest import gin_c_reference, monomials_of_degree

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


@st.composite
def ideals_and_multidegrees(draw):
    """A monomial ideal J in n <= 6 variables over QQ or GF(2) with up to 8
    generators of exponents <= 3, the zero and unit ideals included, and
    multidegrees b: every lcm of J's generators and a few random b, in J
    or not."""
    n = draw(st.integers(1, 6))
    field = draw(st.sampled_from([QQ, PrimeField(2)]))
    exponents = st.tuples(*[st.integers(0, 3)] * n)
    gens = draw(st.lists(exponents, max_size=8))
    J = MonomialIdeal.from_generators(PolynomialRing(["x%d" % i for i in range(n)], field), gens)
    bs = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), min_size=1, max_size=4))
    if not (J.is_zero() or J.is_unit()):
        bs += sorted(lcm_multidegrees(J))
    return J, bs


@st.composite
def ideals_and_probes(draw):
    """A monomial ideal J and multidegrees b as in ideals_and_multidegrees,
    and more b whose every exponent b_j is 0, some generator's g_j, one
    above every generator's, or any of 0 to 5."""
    J, bs = draw(ideals_and_multidegrees())

    def exponent(j):
        column = [g[j] for g in J.gens] or [0]
        return st.one_of(
            st.just(0), st.sampled_from(column), st.just(max(column) + 1), st.integers(0, 5)
        )

    probes = st.tuples(*[exponent(j) for j in range(J.n)])
    return J, bs + draw(st.lists(probes, min_size=1, max_size=6))


def mask_of(face):
    """A face given by its vertices, as the bitmask over the vertices."""
    return sum(1 << v for v in face)


def koszul_by_definition(J, b):
    """{sigma <= supp b : x^(b - e_sigma) in J}, by testing every sigma, as
    the list of its levels by size with the empty levels at the top cut,
    each face a bitmask and each level sorted."""
    support = [j for j, e in enumerate(b) if e > 0]
    levels = [
        sorted(
            mask_of(sigma)
            for sigma in combinations(support, k)
            if J.contains(tuple(e - (j in sigma) for j, e in enumerate(b)))
        )
        for k in range(len(support) + 1)
    ]
    while levels and not levels[-1]:
        levels.pop()
    return levels


@settings(derandomize=True, deadline=None, max_examples=200)
@given(ideals_and_probes())
def test_upper_koszul_complex_is_its_definition(case):
    J, bs = case
    for b in bs:
        assert upper_koszul_complex(J, b) == koszul_by_definition(J, b)


# the 6-vertex real projective plane: H~_1 = H~_2 = 1 over GF(2), and no
# homology over QQ or GF(3)
RP2_FACETS = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
]

# rank d_2 is the XOR rank of the edge masks: the 28 edges of K_8, whose
# vertex 7 lies outside the drawn range 0..6 and is the top vertex of the
# widest K^b (n <= 8); and a 4-cycle with no 2-faces beside an isolated
# vertex, where H~_0 = H~_1 = 1
K8_EDGES = list(combinations(range(8), 2))
CYCLE_AND_POINT = [(0, 1), (1, 2), (2, 3), (0, 3), (5,)]


def levels_of(facets):
    """A simplicial complex given by its facets, as its levels by size of
    bitmask faces, the way upper_koszul_complex gives them; no facet gives
    the void complex []."""
    return [
        sorted({mask_of(face) for facet in facets for face in combinations(facet, k)})
        for k in range(max(map(len, facets), default=-1) + 1)
    ]


def homology_by_elimination(levels, p):
    """H~_{k-1} for every level k, with every boundary rank eliminated."""
    ranks = [0] * (len(levels) + 1)
    for k in range(1, len(levels)):
        ranks[k] = rank(_boundary_matrix(levels[k]), p)
    return [len(levels[k]) - ranks[k] - ranks[k + 1] for k in range(len(levels))]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(st.sets(st.integers(0, 6), max_size=5), max_size=8))
@example(RP2_FACETS)
@example([])  # the void complex
@example([()])  # {empty face}
@example([(0,), (3,), (6,)])  # isolated vertices
@example([(0, 1, 2), (2, 3), (4, 5), (6,)])  # three components
@example(K8_EDGES)
@example(CYCLE_AND_POINT)
def test_counted_low_ranks_are_the_eliminated_ones(facets):
    levels = levels_of(facets)
    for p in (0, 2, 3):
        assert reduced_homology_ranks(levels, p) == homology_by_elimination(levels, p)
    if facets == K8_EDGES:  # H~_1 has 28 - (8 - 1) = 21 independent cycles
        assert all(reduced_homology_ranks(levels, p) == [0, 0, 21] for p in (0, 2, 3))
    if facets == CYCLE_AND_POINT:
        assert all(reduced_homology_ranks(levels, p) == [0, 1, 1] for p in (0, 2, 3))
    if facets == RP2_FACETS:
        assert reduced_homology_ranks(levels, 0) == reduced_homology_ranks(levels, 3) == [0, 0, 0, 0]
        assert reduced_homology_ranks(levels, 2) == [0, 0, 1, 1]


def oracle_work(J):
    """sum over the lcm lattice of 2^|supp b|: the subsets the oracle visits."""
    return sum(2 ** sum(1 for e in b if e) for b in lcm_multidegrees(J))


@st.composite
def oracle_scale_ideals(draw):
    """A monomial ideal in 5 to 8 variables over QQ with 4 to 12 drawn
    generators of degree 2 to 4 (fewer once minimalized), whose oracle work
    is at most 5000, so that some K^b reach level 3 and every table is
    quick."""
    n = draw(st.integers(5, 8))
    support = st.lists(st.integers(0, n - 1), min_size=2, max_size=4)
    supports = draw(st.lists(support, min_size=4, max_size=12))
    ring = PolynomialRing(["x%d" % (i + 1) for i in range(n)])
    J = MonomialIdeal.from_generators(ring, [tuple(s.count(i) for i in range(n)) for s in supports])
    assume(oracle_work(J) <= 5000)
    return J


# the Stanley-Reisner ideal of RP^2: its 10 minimal nonfaces are the
# triangles on its 6 vertices that are not facets
RP2_IDEAL = MonomialIdeal.from_generators(
    PolynomialRing(["x%d" % (i + 1) for i in range(6)]),
    [tuple(int(v in t) for v in range(6)) for t in combinations(range(6), 3) if t not in RP2_FACETS],
)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(oracle_scale_ideals())
@example(RP2_IDEAL)
def test_k_polynomial_is_the_hilbert_numerator_in_every_characteristic(J):
    # sum (-1)^i beta_{i,j} t^j is the numerator of the Hilbert series,
    # which does not depend on the field, while the Betti table may
    tables = {p: betti_table(J, field_char=p) for p in (0, 2, 3)}
    numerator = hilbert_numerator(J)
    for table in tables.values():
        assert table.k_polynomial() == numerator
    if J is RP2_IDEAL:
        assert tables[0].entries == tables[3].entries != tables[2].entries


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


@st.composite
def sparse_matrices(draw):
    """A characteristic (0 for QQ, or 2, 3, 32003), a sorted list of at most
    8 columns, drawn from 0..7 or sparsely from the oracle's face range
    0..255, and up to 8 sparse rows {column: value} over them, with entries
    up to +-1000 and stored zeros: the empty matrix and zero rows included,
    and dependent rows (repeats, multiples and sums of earlier rows)
    appended."""
    p = draw(st.sampled_from([0, 2, 3, 32003]))
    column = st.one_of(st.integers(0, 7), st.integers(0, 255))
    columns = sorted(draw(st.sets(column, min_size=1, max_size=8)))
    entry = st.one_of(st.integers(-3, 3), st.integers(-1000, 1000))
    rows = draw(st.lists(st.dictionaries(st.sampled_from(columns), entry), max_size=8))
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        a, c = draw(entry), draw(entry)
        cols = set(rows[i]) | set(rows[j])
        rows.append({k: a * rows[i].get(k, 0) + c * rows[j].get(k, 0) for k in cols})
    draw(st.randoms()).shuffle(rows)
    return p, columns, rows


def leading_columns(rows, columns, p):
    """The row space's leading columns, {largest column of v : v a nonzero
    vector in the row space}: the pivot columns of a dense Gaussian
    elimination over the columns taken largest first, in Fractions over QQ
    (p = 0) and on residues mod p over GF(p)."""
    columns = sorted(columns, reverse=True)
    if p:
        m = [[row.get(k, 0) % p for k in columns] for row in rows]
    else:
        m = [[Fraction(row.get(k, 0)) for k in columns] for row in rows]
    r, pivots = 0, set()
    for col in range(len(columns)):
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inverse = pow(m[r][col], -1, p) if p else 1 / m[r][col]
        for i in range(r + 1, len(m)):
            if not m[i][col]:
                continue
            f = m[i][col] * inverse
            m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            if p:
                m[i] = [a % p for a in m[i]]
        r += 1
        pivots.add(columns[col])
    return pivots


def dense_rank(rows, columns, p):
    """Rank by dense Gaussian elimination over the listed columns."""
    return len(leading_columns(rows, columns, p))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(sparse_matrices())
def test_sparse_rank_is_the_dense_rank(case):
    p, columns, rows = case
    copies = [dict(row) for row in rows]
    assert rank(rows, p) == dense_rank(rows, columns, p)
    assert rows == copies  # the kernel works on its own copies of the rows


@st.composite
def boundary_matrices(draw):
    """The columns (level k - 1) and rows of one boundary matrix d_k of a
    random complex on at most 8 vertices, in bitmask order."""
    facet = st.sets(st.integers(0, 7), min_size=1, max_size=6)
    levels = levels_of(draw(st.lists(facet, min_size=1, max_size=8)))
    k = draw(st.integers(1, len(levels) - 1))
    return levels[k - 1], _boundary_matrix(levels[k])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.one_of(sparse_matrices().map(lambda case: case[1:]), boundary_matrices()))
@example(([0, 3, 9], [{0: 2, 3: -4, 9: 0}]))  # every entry even
# -1 entries: rank 3 over QQ (det -2), but the rows sum to 0 mod 2
@example(([0, 1, 2], [{0: -1, 2: -1}, {1: -1, 2: 1}, {0: 1, 1: -1}]))
@example(([0, 200], [{0: 5}, {0: -1, 200: 3}]))  # a row at column 0
@example(([], []))  # the empty matrix
def test_pivot_columns_are_the_leading_columns_of_the_row_space(case):
    # clearing drops the level-k faces that were pivot columns of d_{k+1},
    # so the kernel must give these columns, not only their number
    columns, rows = case
    for p in (0, 2, 3, 32003):
        pivots = set()
        assert rank(rows, p, pivots) == len(pivots)
        assert pivots == leading_columns(rows, columns, p)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.lists(st.sets(st.integers(0, 7), max_size=6), max_size=8))
@example(RP2_FACETS)
def test_boundary_ranks_are_the_dense_ranks(facets):
    # boundary matrices in the bitmask order of upper_koszul_complex, whose
    # rows form the long pivot chains that random sparse rows do not
    levels = levels_of(facets)
    for k in range(1, len(levels)):
        rows = _boundary_matrix(levels[k])
        for p in (0, 2, 3):
            assert rank(rows, p) == dense_rank(rows, levels[k - 1], p)
    if facets == RP2_FACETS:
        d3 = _boundary_matrix(levels[3])
        assert rank(d3, 0) == rank(d3, 3) == 10
        assert rank(d3, 2) == 9


# the boundary of the 4-simplex, a 3-sphere: H~_3 = 1 in every field
SPHERE3_FACETS = list(combinations(range(5), 4))
# the 5-skeleton of the 7-simplex: H~_5 = C(7, 6) = 7 in every field, and
# clearing chains down from level 6 to level 3
SKELETON_FACETS = list(combinations(range(8), 6))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.lists(st.sets(st.integers(0, 7), max_size=7), max_size=8))
@example(RP2_FACETS)
@example(SPHERE3_FACETS)
@example(SKELETON_FACETS)
def test_clearing_keeps_every_boundary_rank(facets):
    # from the top level down, as reduced_homology_ranks does: d_k on the
    # level-k faces that were not pivot columns of d_{k+1} has the rank of
    # the whole d_k
    levels = levels_of(facets)
    for p in (0, 2, 3):
        ranks, cleared = {}, set()
        for k in range(len(levels) - 1, 2, -1):
            faces = [f for f in levels[k] if f not in cleared]
            pivots = set()
            ranks[k] = rank(_boundary_matrix(faces), p, pivots)
            whole = _boundary_matrix(levels[k])
            assert ranks[k] == dense_rank(whole, levels[k - 1], p)
            assert len(pivots) == ranks[k]
            assert pivots <= set(levels[k - 1])
            cleared = pivots
        homology = reduced_homology_ranks(levels, p)
        assert homology == homology_by_elimination(levels, p)
        if facets == RP2_FACETS:
            assert (ranks[3], homology) == ((9, [0, 0, 1, 1]) if p == 2 else (10, [0] * 4))
        if facets == SPHERE3_FACETS:
            assert homology == [0, 0, 0, 0, 1]
        if facets == SKELETON_FACETS:
            assert homology == [0] * 6 + [7]


@st.composite
def homogeneous_ideals(draw):
    """A nonzero homogeneous ideal in 3 variables over QQ, GF(2) or
    GF(32003): 1 to 3 generators of degree 1 to 3, each with at most 4
    terms and coefficients in [-5, 5]."""
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(32003)]))
    ring = PolynomialRing(["x", "y", "z"], field)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        monos = st.sampled_from(monomials_of_degree(3, draw(st.integers(1, 3))))
        terms = draw(st.lists(st.tuples(st.integers(-5, 5), monos), min_size=1, max_size=4))
        gens.append(ring.from_terms(terms))
    I = Ideal(ring, gens)
    assume(not I.is_zero())
    return I


@PROPERTY_SETTINGS
@given(homogeneous_ideals(), st.integers(0, 2**32 - 1))
def test_a_hilbert_target_leaves_the_reduced_basis_unchanged(I, seed):
    # the numerator of in(I) is a target for every g I: the two share their
    # Hilbert series
    target = hilbert_numerator(initial_ideal(reduced_groebner_basis(I), I.ring))
    m = random_invertible_matrix(random.Random(seed), 3, I.ring.field, bound=3)
    gens = list(transform_ideal(I, m).generators)
    assert interreduce(buchberger(gens, target)) == interreduce(buchberger(gens))


@st.composite
def few_forms(draw):
    """1 <= r <= n forms in n <= 4 variables over QQ, GF(2) or GF(32003),
    of degree 1 to 3 with at most 4 terms and coefficients in [-5, 5];
    sometimes the last is a multiple of the first, or the last two share a
    linear factor."""
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(32003)]))
    n = draw(st.integers(1, 4))
    ring = PolynomialRing(["x%d" % (i + 1) for i in range(n)], field)

    def form(degree):
        monos = st.sampled_from(monomials_of_degree(n, degree))
        terms = draw(st.lists(st.tuples(st.integers(-5, 5), monos), min_size=1, max_size=4))
        return ring.from_terms(terms)

    gens = [form(draw(st.integers(1, 3))) for _ in range(draw(st.integers(1, n)))]
    shape = draw(st.sampled_from(["free", "multiple", "shared factor"]))
    if shape == "multiple" and len(gens) > 1:
        gens[-1] = gens[0] * form(1)
    elif shape == "shared factor" and len(gens) > 1:
        factor = form(1)
        gens[-2:] = [g * factor for g in gens[-2:]]
    I = Ideal(ring, gens)
    assume(not I.is_zero())
    return I


@settings(derandomize=True, deadline=None, max_examples=100)
@given(few_forms())
def test_the_degree_bound_is_a_hilbert_target(I):
    # Froeberg: HS(S/I) >= prod (1 - t^{d_i}) / (1-t)^n for r <= n forms,
    # checked through reg(S/in(I)) + 2, where reg(S/in(I)) >= reg(S/I)
    gens = list(I.generators)
    bound = complete_intersection_numerator(g.degree() for g in gens)
    basis = interreduce(buchberger(gens))
    J = initial_ideal(basis, I.ring)
    top = invariants_via_betti(J).reg_quotient + 2
    for k in range(top + 1):
        assert hilbert_function_from_numerator(bound, I.ring.n, k) <= hilbert_function(J, k)
    assert interreduce(buchberger(gens, bound)) == basis


@st.composite
def qq_ideals(draw):
    """A nonzero homogeneous ideal over QQ in 2 to 4 variables: 2 to 4
    generators of degree 1 to 3, each with 1 to 3 terms and nonzero
    coefficients in [-3, 3]."""
    n = draw(st.integers(2, 4))
    ring = PolynomialRing(["x%d" % (i + 1) for i in range(n)])
    coeffs = st.integers(-3, 3).filter(bool)
    gens = []
    for _ in range(draw(st.integers(2, 4))):
        monos = st.sampled_from(monomials_of_degree(n, draw(st.integers(1, 3))))
        terms = draw(st.lists(st.tuples(coeffs, monos), min_size=1, max_size=3))
        gens.append(ring.from_terms(terms))
    I = Ideal(ring, gens)
    assume(not I.is_zero())
    return I


@PROPERTY_SETTINGS
@given(qq_ideals(), st.integers(0, 2**32 - 1))
def test_gin_c_list_is_read_off_the_generators_of_gin(I, seed):
    # Gin is strongly stable, so the c route on it gives, at every t,
    # c_i = max{deg u - 1 : u in Min(Gin), m(u) = n - i}
    for t in range(I.ring.n + 1):
        rep = invariants_via_gin(I, t=t, seed=seed)
        assert list(rep.c) == gin_c_reference(rep.gin.gin, t)


@st.composite
def monomial_lists(draw):
    """n <= 5 variables and 1 to 7 monomials in them, each exponent in
    [0, 3], in the order drawn: repeats, multiples and the monomial 1 may
    occur."""
    n = draw(st.integers(1, 5))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    return n, draw(st.lists(exps, min_size=1, max_size=7))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(monomial_lists())
def test_the_colon_step_is_the_numerator_from_nothing(case):
    # N(L + (m)) = N(L) - t^{deg m} N(L : m) for L spanned by the monomials
    # before m, up to 6 of them, minimal or not
    n, monos = case
    ring = PolynomialRing(["x%d" % (i + 1) for i in range(n)])
    num = [1]
    for j, m in enumerate(monos):
        num = colon_step(num, monos[:j], m)
        assert num == hilbert_numerator(MonomialIdeal.from_generators(ring, monos[: j + 1]))


coefficients = st.lists(st.integers(-5, 5), max_size=8)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(coefficients, coefficients, st.integers(0, 12), st.sampled_from([1, -1]))
@example([1, 2], [], 5, 1)  # q = 0 shifted past p
@example([1], [3, 0, 4], 4, -1)  # q shifted past p
def test_padd_is_the_coefficient_sum(p, q, shift, sign):
    # p + sign t^shift q, summed coefficient by coefficient, then trimmed;
    # neither argument is changed
    before = (list(p), list(q))
    size = max(len(p), len(q) + shift)
    naive = [
        (p[i] if i < len(p) else 0) + sign * (q[i - shift] if 0 <= i - shift < len(q) else 0)
        for i in range(size)
    ]
    while naive and naive[-1] == 0:
        naive.pop()
    assert _padd(p, q, shift, sign) == naive
    assert (p, q) == before


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=8), st.integers(0, 5))
def test_the_order_at_one_is_the_power_of_one_minus_t(q, k):
    # t = 1 is a root of q (1-t)^k of multiplicity exactly k when q(1) != 0
    assume(sum(q) != 0)
    num = list(q)
    while num[-1] == 0:
        num.pop()
    for _ in range(k):
        num = [a - b for a, b in zip(num + [0], [0] + num)]
    assert _order_at_one(num) == k


@PROPERTY_SETTINGS
@given(st.one_of(monomial_ideals(), qq_ideals()), st.integers(0, 2**32 - 1))
def test_every_drawn_initial_ideal_keeps_its_true_numerator(I, seed):
    # the retries of the c route and the Gin draws, the first on a copy of
    # I with no in(I) yet: each in(g I) found with a Hilbert target keeps
    # Buchberger's numerator of its leads, which must be the one computed
    # afresh on an ideal with its generators and nothing kept
    made = []
    original = cmreg.regularity._initial_of

    def spied(J, rows=None, drawn=None):
        target = cmreg.regularity._hilbert_target(J, drawn)
        gJ = original(J, rows, drawn)
        if rows is not None:
            made.append((gJ, gJ._hilbert, target))  # a later draw may fill it
        return gJ

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cmreg.regularity, "_initial_of", spied)
        for run in (full_invariants, generic_initial_ideal):
            copy = I if isinstance(I, MonomialIdeal) else Ideal(I.ring, I.generators)
            try:
                run(copy, seed=seed)
            except MathematicalFailure:
                pass
    for gJ, kept, target in made:
        assert (kept is None) == (target is None)
        if target is not None:
            assert list(kept) == hilbert_numerator(MonomialIdeal(gJ.ring, gJ.gens))


@st.composite
def drawn_coordinates(draw):
    """1 to 4 homogeneous forms in n <= 4 variables over QQ, GF(2) or
    GF(32003), of degree 1 to 3 with at most 4 terms and coefficients in
    [-5, 5], and a change of coordinates as the c route's retries draw it
    (unitriangular) or as its last retry and Gin draw it (dense)."""
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(32003)]))
    n = draw(st.integers(1, 4))
    ring = PolynomialRing(["x%d" % (i + 1) for i in range(n)], field)
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        monos = st.sampled_from(monomials_of_degree(n, draw(st.integers(1, 3))))
        terms = draw(st.lists(st.tuples(st.integers(-5, 5), monos), min_size=1, max_size=4))
        gens.append(ring.from_terms(terms))
    I = Ideal(ring, gens)
    assume(not I.is_zero())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        rows = random_unitriangular_matrix(rng, n)
    else:
        rows = random_invertible_matrix(rng, n, field, bound=5)
    return I, rows


@settings(derandomize=True, deadline=None, max_examples=150)
@given(drawn_coordinates())
def test_the_leads_of_buchbergers_basis_give_the_initial_ideal(case):
    # the minimal leads of any Groebner basis of g I span in(g I), with no
    # target or with in(I)'s numerator; a numerator is kept exactly when
    # there was a target, and it is the one computed afresh
    I, rows = case
    in_I = initial_ideal(reduced_groebner_basis(I), I.ring)
    in_gI = initial_ideal(reduced_groebner_basis(transform_ideal(I, rows)), I.ring)
    for target in (None, hilbert_numerator(in_I)):
        J = _leading_ideal(transform_ideal(I, rows), target)
        assert J == in_gI
        if target is None:
            assert J._hilbert is None
        else:
            assert list(J._hilbert) == hilbert_numerator(MonomialIdeal(J.ring, J.gens))
