"""Shared fixtures and independent brute-force oracles for the test suite."""

import itertools
import random

import pytest

import cmreg.groebner
import cmreg.monomial_ideals
from cmreg import NEG_INF, GinResult, Ideal, MonomialIdeal, PolynomialRing, m_index
from cmreg.monomial_ideals import minimalize

NAMES = ["x1", "x2", "x3", "x4"]


@pytest.fixture
def R4():
    return PolynomialRing(NAMES)


@pytest.fixture
def R2():
    return PolynomialRing(NAMES[:2])


@pytest.fixture
def R3():
    return PolynomialRing(NAMES[:3])


def quartic_curve_ideal(ring):
    """I = (x1x2 - x3x4, x1x3^2 - x2^3, x1^2x3 - x2^2x4, x1^3 - x2x4^2)."""
    x1, x2, x3, x4 = ring.gens()
    return Ideal(
        ring,
        [
            x1 * x2 - x3 * x4,
            x1 * x3 * x3 - x2 * x2 * x2,
            x1 * x1 * x3 - x2 * x2 * x4,
            x1 * x1 * x1 - x2 * x4 * x4,
        ],
    )


@pytest.fixture
def curve_ideal(R4):
    return quartic_curve_ideal(R4)


@pytest.fixture
def curve_initial(R4):
    return MonomialIdeal.from_generators(
        R4, [(1, 1, 0, 0), (0, 3, 0, 0), (2, 0, 1, 0), (3, 0, 0, 0)]
    )


def monomials_of_degree(n, d):
    """All exponent tuples of total degree d in n variables."""
    if n == 1:
        return [(d,)]
    out = []
    for first in range(d + 1):
        out.extend((first,) + rest for rest in monomials_of_degree(n - 1, d - first))
    return out


def standard_monomials(J, d):
    """All degree-d monomials outside J (exponent tuples), by brute force."""
    return [m for m in monomials_of_degree(J.n, d) if not J.contains(m)]


def count_standard_monomials(J, d):
    """Brute-force count of degree-d monomials outside J."""
    return len(standard_monomials(J, d))


def series_truncation(numerator, n, D):
    """Coefficients of numerator/(1-t)^n as a power series up to degree D."""
    series = list(numerator) + [0] * (D + 1 - len(numerator))
    series = series[: D + 1]
    for _ in range(n):
        acc = 0
        for i in range(D + 1):
            acc += series[i]
            series[i] = acc
    return series


def random_monomial_ideal(rng, ring, max_deg=4, max_gens=5):
    """A random proper nonzero monomial ideal, or None on a bad draw."""
    n = ring.n
    gens = [
        tuple(rng.randint(0, max_deg) for _ in range(n))
        for _ in range(rng.randint(1, max_gens))
    ]
    gens = [g for g in gens if any(g) and sum(g) <= max_deg]
    if not gens:
        return None
    J = MonomialIdeal.from_generators(ring, gens)
    return None if J.is_unit() else J


def random_homogeneous_ideal(rng, ring, max_deg=3, max_gens=4, coeff_bound=3):
    """A random homogeneous ideal with small integer coefficients."""
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        d = rng.randint(1, max_deg)
        monos = monomials_of_degree(ring.n, d)
        poly = ring.from_terms(
            (rng.randint(-coeff_bound, coeff_bound), rng.choice(monos))
            for _ in range(3)
        )
        if not poly.is_zero():
            gens.append(poly)
    if not gens:
        return None
    return Ideal(ring, gens)


def randomized_pivot_numerator(J, rng):
    """Independent Hilbert-numerator computation with a random pivot rule."""

    def padd(p, q):
        out = [0] * max(len(p), len(q))
        for i, c in enumerate(p):
            out[i] += c
        for i, c in enumerate(q):
            out[i] += c
        while out and out[-1] == 0:
            out.pop()
        return out

    def recurse(gens):
        if not gens:
            return [1]
        if any(not any(g) for g in gens):
            return []
        if all(sum(1 for e in g if e > 0) == 1 for g in gens):
            out = [1]
            for g in gens:
                out = padd(out, [-c for c in [0] * sum(g) + out])
            return out
        nvars = len(gens[0])
        candidates = sorted(
            {
                i
                for g in gens
                if sum(1 for e in g if e > 0) >= 2
                for i in range(nvars)
                if g[i] > 0
            }
        )
        pivot = rng.choice(candidates)
        plus = minimalize(
            [g for g in gens if g[pivot] == 0]
            + [tuple(1 if i == pivot else 0 for i in range(nvars))]
        )
        colon = minimalize(
            [
                g[:pivot] + (g[pivot] - 1,) + g[pivot + 1 :] if g[pivot] > 0 else g
                for g in gens
            ]
        )
        return padd(recurse(plus), [0] + recurse(colon))

    return recurse(list(J.gens))


def gin_c_reference(gin, t):
    """c_0, ..., c_t of a Borel-fixed ideal read off its minimal generators:
    c_i = max{deg u - 1 : u in Min(gin), m(u) = n - i}, -inf when no
    generator qualifies, and c_n = 0 closes the list."""
    n = gin.n
    c = [
        max((sum(u) - 1 for u in gin.gens if m_index(u) == n - i), default=NEG_INF)
        for i in range(min(t, n - 1) + 1)
    ]
    return c + [0] if t == n else c


def non_borel_draw(I, seed=0, bound=None):
    """A stand-in for generic_initial_ideal whose accepted draw is (x1*x2)
    in two variables: not Borel-fixed, and c_0 = +inf."""
    gin = MonomialIdeal.from_generators(I.ring, [(1, 1)])
    return GinResult(gin=gin, draws_agreed=2, borel_certified=True, draws_total=2)


def all_subsets(items):
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def seeded_rng(seed):
    return random.Random(seed)


def spy_on_the_kernel(monkeypatch):
    """Record, for each reduction the kernel runs, whether its remainder is
    zero: one per S-pair that Buchberger reduces, one per element that
    inter-reduction reduces."""
    results = []
    original = cmreg.groebner._reduce

    def counted(work, basis, p):
        remainder, scale = original(work, basis, p)
        results.append(not remainder)
        return remainder, scale

    monkeypatch.setattr(cmreg.groebner, "_reduce", counted)
    return results


def spy_on_numerators(monkeypatch):
    """Record the generators of each numerator computed from generators:
    every top-level call of `monomial_ideals._numerator`, not the calls the
    recursion makes on itself."""
    computed = []
    depth = [0]
    original = cmreg.monomial_ideals._numerator

    def spied(gens):
        if not depth[0]:
            computed.append(gens)
        depth[0] += 1
        try:
            return original(gens)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(cmreg.monomial_ideals, "_numerator", spied)
    return computed
