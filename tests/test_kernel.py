"""The integer normal-form kernel against plain field arithmetic.

`reference_normal_form` is the same reduction in the field's own
arithmetic: it rewrites the order-largest term of what is left with the
first basis element whose lead divides it.  The kernel
must return exactly its remainder, not a scalar multiple, over QQ, GF(2)
and GF(32003).  The regression tests pin the pair order of `buchberger`,
with and without a Hilbert target (an initial ideal in other coordinates
or the degree bound of the generators), and guard against coefficient
growth in a coordinate change.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmreg import (
    QQ,
    Ideal,
    MonomialIdeal,
    Polynomial,
    PolynomialRing,
    PrimeField,
    hilbert_numerator,
    initial_ideal,
    normal_form,
    reduced_groebner_basis,
    s_polynomial,
)
from cmreg.groebner import buchberger
from cmreg.monomial_ideals import complete_intersection_numerator
from cmreg.orders import mono_divides, mono_lcm
from cmreg.regularity import random_invertible_matrix, transform_ideal

from conftest import monomials_of_degree, quartic_curve_ideal, spy_on_the_kernel

KERNEL_SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)

FIELDS = (QQ, PrimeField(2), PrimeField(32003))


def mono_div(a, b):
    """The quotient exponent vector a - b; requires x^b | x^a."""
    assert mono_divides(b, a)
    return tuple(x - y for x, y in zip(a, b))


def mono_coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def reference_normal_form(f, basis):
    """Full reduction of f against basis, in field arithmetic."""
    key = f.ring.key
    field = f.ring.field
    p = field.characteristic
    leads = [g.leading_term() for g in basis]
    remainder, work = {}, dict(f.coeffs)
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        for g, (lc, lm) in zip(basis, leads):
            if mono_divides(lm, e):
                scaled = (g * g.ring.monomial(mono_div(e, lm))).scale(field(c, lc))
                for e2, c2 in scaled.coeffs.items():
                    if e2 == e:
                        continue
                    acc = work.get(e2, 0) - c2
                    if p:
                        acc %= p
                    if acc == 0:
                        work.pop(e2, None)
                    else:
                        work[e2] = acc
                break
        else:
            remainder[e] = c
    return Polynomial(f.ring, remainder)


def reference_s_polynomial(f, g):
    cf, mf = f.leading_term()
    cg, mg = g.leading_term()
    lcm = mono_lcm(mf, mg)
    ring = f.ring
    return (f * ring.monomial(mono_div(lcm, mf))).scale(ring.field(1, cf)) - (
        g * ring.monomial(mono_div(lcm, mg))
    ).scale(ring.field(1, cg))


def reference_basis(generators):
    """The reduced monic Groebner basis, by Buchberger's algorithm with the
    reference reduction, the smallest lcm first and the coprime criterion
    only, then inter-reduction."""
    G = [g.monic() for g in generators]
    key = G[0].ring.key

    def lcm_key(pair):
        return key(mono_lcm(G[pair[0]].leading_monomial(), G[pair[1]].leading_monomial()))

    pairs = [(i, j) for j in range(len(G)) for i in range(j)]
    while pairs:
        i, j = pair = min(pairs, key=lcm_key)
        pairs.remove(pair)
        if mono_coprime(G[i].leading_monomial(), G[j].leading_monomial()):
            continue
        r = reference_normal_form(reference_s_polynomial(G[i], G[j]), G)
        if not r.is_zero():
            G.append(r.monic())
            pairs.extend((k, len(G) - 1) for k in range(len(G) - 1))
    G.sort(key=lambda g: key(g.leading_monomial()))
    kept = []
    for g in G:
        if not any(mono_divides(h.leading_monomial(), g.leading_monomial()) for h in kept):
            kept.append(g)
    reduced = [
        reference_normal_form(g, kept[:k] + kept[k + 1 :]).monic()
        for k, g in enumerate(kept)
    ]
    return sorted(reduced, key=lambda g: key(g.leading_monomial()))


@st.composite
def coefficients(draw, field):
    """A nonzero field element; over QQ a fraction with a small denominator."""
    p = field.characteristic
    num = draw(st.integers(-30, 30).filter(lambda v: v % p if p else v))
    if p:
        return field(num)
    return field(num, draw(st.integers(1, 7)))


@st.composite
def homogeneous(draw, ring, degree):
    monos = monomials_of_degree(ring.n, degree)
    size = draw(st.integers(1, min(6, len(monos))))
    chosen = draw(st.lists(st.sampled_from(monos), min_size=size, max_size=size, unique=True))
    return ring.from_terms((draw(coefficients(ring.field)), e) for e in chosen)


@st.composite
def reduction_problems(draw, mixed_degree=False):
    """(f, basis): a homogeneous f, or a sum of two degrees, and a list of
    non-monic homogeneous basis elements of degree 1 to 3 in drawn order."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(2, 4))
    ring = PolynomialRing(["x%d" % (i + 1) for i in range(n)], field)
    degree = draw(st.integers(2, 4))
    f = draw(homogeneous(ring, degree))
    if mixed_degree:
        f = f + draw(homogeneous(ring, draw(st.integers(0, degree - 1))))
    element = st.integers(1, 3).flatmap(lambda d: homogeneous(ring, d))
    basis = draw(st.lists(element, min_size=1, max_size=4))
    return f, basis


@KERNEL_SETTINGS
@given(reduction_problems())
def test_normal_form_matches_field_arithmetic(problem):
    f, basis = problem
    assert normal_form(f, basis) == reference_normal_form(f, basis)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(reduction_problems(mixed_degree=True))
def test_normal_form_of_mixed_degree(problem):
    f, basis = problem
    assert normal_form(f, basis) == reference_normal_form(f, basis)


@KERNEL_SETTINGS
@given(reduction_problems())
def test_s_polynomial_matches_field_arithmetic(problem):
    f, basis = problem
    for g in basis:
        assert s_polynomial(f, g) == reference_s_polynomial(f, g)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(reduction_problems())
def test_reduced_basis_matches_reference(problem):
    f, basis = problem
    generators = [f] + basis
    ideal = Ideal(f.ring, generators)
    assert reduced_groebner_basis(ideal) == reference_basis(generators)


def test_empty_and_zero_inputs():
    ring = PolynomialRing(["x", "y"], PrimeField(7))
    x, y = ring.gens()
    assert normal_form(ring.zero(), [x]).is_zero()
    assert normal_form(x * y, []) == x * y
    with pytest.raises(ValueError):
        normal_form(x, [ring.zero()])


@pytest.mark.parametrize("d", [4, 5, 6])
def test_coordinate_change_of_the_d_family(d):
    # in(g I) for a bound-1000 g has large coefficients on the way; the
    # Hilbert series of in(g I) is that of I, a monomial ideal
    ring = PolynomialRing(["x", "y", "z"])
    J = MonomialIdeal.from_generators(ring, [(d, d, 0), (0, d, d), (d, 0, d)])
    m = random_invertible_matrix(random.Random(d), 3, ring.field, bound=1000)
    gI = transform_ideal(J, m)
    in_gI = initial_ideal(reduced_groebner_basis(gI), ring)
    assert hilbert_numerator(in_gI) == hilbert_numerator(J)


def dense_quadrics():
    """Four quadrics in five variables, every monomial present, with
    coefficients in [-9, 9] from a fixed seed."""
    rng = random.Random(5)
    ring = PolynomialRing(["x%d" % (i + 1) for i in range(5)])
    monos = monomials_of_degree(5, 2)
    return Ideal(
        ring,
        [ring.from_terms((rng.randint(-9, 9) or 1, e) for e in monos) for _ in range(4)],
    )


@pytest.mark.parametrize(
    "ideal, with_bound, calls, zeros",
    [
        (quartic_curve_ideal(PolynomialRing(["x1", "x2", "x3", "x4"])), False, 4, 4),
        (quartic_curve_ideal(PolynomialRing(["x1", "x2", "x3", "x4"])), True, 4, 4),
        (dense_quadrics(), False, 29, 18),
        (dense_quadrics(), True, 11, 0),
    ],
    ids=["quartic-curve", "quartic-curve-bound", "dense-quadrics", "dense-quadrics-bound"],
)
def test_buchberger_pair_counts_are_pinned(monkeypatch, ideal, with_bound, calls, zeros):
    # the pair order (normal strategy, ties by index) and the coprime and
    # chain criteria decide how many S-polynomials are reduced and how many
    # reduce to zero; a change to either moves these counts.  The degree
    # bound prod (1 - t^{d_i}) is attained by the dense quadrics, a complete
    # intersection, so it skips every zero reduction; the quartic curve is
    # not one, and the bound skips none of its pairs
    degrees = [g.degree() for g in ideal.generators]
    target = complete_intersection_numerator(degrees) if with_bound else None
    results = spy_on_the_kernel(monkeypatch)
    buchberger(list(ideal.generators), target)
    assert (len(results), sum(results)) == (calls, zeros)


@pytest.mark.parametrize(
    "with_target, calls, zeros", [(False, 29, 18), (True, 11, 0)], ids=["no-target", "target"]
)
def test_buchberger_pair_counts_of_a_retry_are_pinned(monkeypatch, with_target, calls, zeros):
    # a retry of the dense quadrics in fixed coordinates; the Hilbert target,
    # the numerator of in(I) of the untransformed ideal, skips every pair
    # that would reduce to zero in a degree where the leads already span in(g I)
    ideal = dense_quadrics()
    rows = [[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 1, 1], [1, 0, 0, 0, 2]]
    in_I = initial_ideal(reduced_groebner_basis(ideal), ideal.ring)
    target = hilbert_numerator(in_I) if with_target else None
    results = spy_on_the_kernel(monkeypatch)
    buchberger(list(transform_ideal(ideal, rows).generators), target)
    assert (len(results), sum(results)) == (calls, zeros)
