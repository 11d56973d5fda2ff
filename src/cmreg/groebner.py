"""Buchberger's algorithm: reduced Groebner bases and initial ideals.

Pair selection follows the normal strategy: the open pair whose lcm is
smallest in degrevlex comes first, ties broken by the pair's indices.  The
open pairs sit in a heap keyed that way, so each pair's lcm is computed
once.  The coprime-lead and chain criteria prune useless pairs.  The final
basis is inter-reduced and monic, hence unique for the ideal and order.

Normal forms run on an exact integer kernel.  A monomial x^e is held as
the tuple (-deg e, e_n, ..., e_1): multiplying monomials adds these tuples
entry by entry, and the smallest tuple is the degrevlex-largest monomial.
The terms still to reduce sit in a heap of such tuples, so each term's
order key is built once; a term that cancels stays in the heap and is
skipped when popped.  Over QQ the kernel is fraction-free: each basis
element reduces through its primitive integer multiple, a reduction step
multiplies what is left by lc / gcd(lc, c) instead of dividing by lc, and
the product of these factors (the scale) is divided out of the remainder
at the end through ``field(num, den)``.  The remainder is therefore exactly
the one field arithmetic gives, not a multiple of it.  Over GF(p) the
kernel works on residues mod p, with each basis element made monic.

Buchberger can be given a Hilbert target: a series that HS(S/I) is at
least in every degree, with equality for an initial ideal.  in(I) in other
coordinates is one, since an invertible linear change keeps the Hilbert
series (Traverso's Hilbert-driven Buchberger).  So is the degree bound
prod (1 - t^{d_i}) / (1-t)^n of r <= n forms of degrees d_i, attained
exactly by a complete intersection (Froeberg): dim I_k is the rank of
(f_1..f_r) from the sum of the S_{k-d_i} to S_k, at most its rank for
forms with indeterminate coefficients, which the exact Koszul complex of
x_1^{d_1}, ..., x_r^{d_r} pins at dim S_k minus the bound's k-th
coefficient.  The leads found so far span a monomial ideal L inside in(I),
so dim L_d <= dim in(I)_d <= dim S_d minus the target's coefficient.
Before reducing a pair of lcm degree d, the loop compares the two ends;
when they are equal the pair is skipped, because its S-polynomial lies in
I in degree d and a nonzero remainder would have a lead in in(I)_d outside
L_d.  Each nonzero remainder of degree d adds exactly one degree-d
monomial to L_d, its lead, so the gap is counted down within a degree and
L's Hilbert numerator is recomputed only when the degree changes and L has
grown.  Once the numerators of L and of the target agree, L = in(I) and
the basis is complete.  Only pairs whose normal form is zero are skipped,
so the basis returned is the same with or without a target.
"""

from heapq import heapify, heappop, heappush
from math import gcd, inf
from operator import add, le, sub

from .monomial_ideals import (
    InputError,
    MonomialIdeal,
    hilbert_function_from_numerator,
    hilbert_numerator,
)
from .orders import (
    mono_coprime,
    mono_div,
    mono_divides,
    mono_lcm,
)
from .rings import Polynomial, RingMismatchError, _check_same_ring


class NonHomogeneousError(InputError):
    pass


class Ideal:
    """A homogeneous ideal given by a finite generating set."""

    def __init__(self, ring, generators):
        gens = []
        for g in generators:
            if g.ring != ring:
                raise RingMismatchError("generator from a different ring")
            if g.is_zero():
                continue
            homog, _ = g.is_homogeneous()
            if not homog:
                raise NonHomogeneousError("generator %s is not homogeneous" % g)
            gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self._initials = {}  # g -> in(g I), identity (None) included: see regularity._initial_of

    def is_zero(self):
        return not self.generators

    def __repr__(self):
        return "Ideal(%s)" % ", ".join(str(g) for g in self.generators)


def _key(e):
    """The kernel's form of the monomial x^e: (-deg e, e_n, ..., e_1)."""
    return (-sum(e),) + e[::-1]


def _exps(k):
    """The exponent vector of a monomial in the kernel's form."""
    return k[:0:-1]


def _reducer(g):
    """g in the kernel's form, kept on g: (divisibility pattern, lead
    monomial, lead coefficient, tail).

    Over QQ the coefficients are those of g's primitive integer multiple
    with positive lead; over GF(p) they are the residues of g / lc(g), so
    the lead coefficient is 1.  The pattern is the lead monomial with its
    degree slot at -inf, so that it is <= a monomial entry by entry exactly
    when the lead divides it.
    """
    if g._reducer is None:
        lm = g.leading_monomial()
        if g.ring.field.characteristic:
            ints = g.monic().coeffs
        else:
            ints = g.ring.field.integers(g.coeffs)[1]
            content = gcd(*ints.values())
            if ints[lm] < 0:
                content = -content
            ints = {e: v // content for e, v in ints.items()}
        lead = _key(lm)
        tail = tuple((_key(e), v) for e, v in ints.items() if e != lm)
        g._reducer = ((-inf,) + lead[1:], lead, ints[lm], tail)
    return g._reducer


def normal_form(f, basis):
    """Fully reduce f against basis (nonzero polynomials, tried in order).

    Returns r with f - r in (basis) and no term of r divisible by any
    basis leading monomial.  Deterministic: the order-largest reducible
    term is rewritten first, by the first basis element whose lead
    divides it.  The result is the one exact field arithmetic gives;
    the reduction itself runs on integers (see the module docstring).
    """
    ring = f.ring
    field = ring.field
    p = field.characteristic
    for g in basis:
        _check_same_ring(f, g)
    reducers = [_reducer(g) for g in basis]
    den, ints = field.integers(f.coeffs)
    work = {_key(e): v for e, v in ints.items()}
    # work / (den * scale) is the polynomial still to reduce, and each
    # remainder term keeps the scale at which it left work
    heap = list(work)
    heapify(heap)
    scale = 1
    remainder = []
    while heap:
        k = heappop(heap)
        c = work.pop(k, 0)
        if not c:
            continue  # cancelled, or a second heap entry of a done term
        for pattern, lead, lc, tail in reducers:
            if all(map(le, pattern, k)):
                h = gcd(lc, c)
                if h != lc:
                    m = lc // h
                    for t in work:
                        work[t] *= m
                    scale *= m
                c //= h
                q = tuple(map(sub, k, lead))
                for tk, tc in tail:
                    t = tuple(map(add, q, tk))
                    v = work.get(t)
                    if v is None:
                        v = -c * tc
                        heappush(heap, t)
                    else:
                        v -= c * tc
                    if p:
                        v %= p
                    if v:
                        work[t] = v
                    else:
                        work.pop(t, None)
                break
        else:
            remainder.append((k, c, scale))
    return Polynomial(
        ring, {_exps(k): field(c, den * s) for k, c, s in remainder}
    )


def s_polynomial(f, g):
    """S(f, g) = (lcm/lt(f)) f - (lcm/lt(g)) g; leading terms cancel."""
    if f.is_zero() or g.is_zero():
        raise ValueError("S-polynomial of the zero polynomial")
    _check_same_ring(f, g)
    f, g = f.monic(), g.monic()
    mf, mg = f.leading_monomial(), g.leading_monomial()
    lcm_fg = mono_lcm(mf, mg)
    qf = mono_div(lcm_fg, mf)
    qg = mono_div(lcm_fg, mg)
    coeffs = {tuple(map(add, e, qf)): c for e, c in f.coeffs.items() if e != mf}
    for e, c in g.coeffs.items():
        if e != mg:
            t = tuple(map(add, e, qg))
            coeffs[t] = coeffs.get(t, 0) - c
    return f.ring.from_coeffs(coeffs)


def buchberger(generators, target=None):
    """Complete a list of nonzero polynomials to a Groebner basis.

    target, when given, is a Hilbert target for the ideal I the generators
    span: HS(S/I) is at least this series, with equality for an in(g I).
    It is a Hilbert numerator, or a MonomialIdeal in(g I) standing for its
    numerator.  For r <= n forms of degrees d_i, prod (1 - t^{d_i}) is one:
    dim I_k is at most the rank of the same map for forms with
    indeterminate coefficients, which the exact Koszul complex of
    x_1^{d_1}, ..., x_r^{d_r} makes dim S_k minus the bound's k-th
    coefficient.  A target only skips pairs with a zero normal form (see
    the module docstring), so the result is the same either way; one that
    exceeds the series of S/(leads) in some degree is refused with an
    InputError.
    """
    G = [g.monic() for g in generators if not g.is_zero()]
    if not G:
        return []
    ring = G[0].ring
    key = ring.key
    leads = [g.leading_monomial() for g in G]
    # open pairs (i, j), i < j, popped by (key of their lcm, i, j)
    pairs = set()
    heap = []

    def add_pairs(j):
        for i in range(j):
            lcm_ij = mono_lcm(leads[i], leads[j])
            heappush(heap, (key(lcm_ij), i, j, lcm_ij))
            pairs.add((i, j))

    for j in range(1, len(G)):
        add_pairs(j)
    goal = hilbert_numerator(target) if isinstance(target, MonomialIdeal) else target
    counted = 0  # len(leads) when the numerator of <leads> was taken
    degree = None  # the lcm degree of the pairs being reduced
    gap = 0  # dim S_degree - [target]_degree - dim <leads>_degree
    while heap:
        _, i, j, lcm_ij = heappop(heap)
        pairs.discard((i, j))
        if goal is not None:
            d = sum(lcm_ij)
            if d != degree:
                if len(leads) > counted:
                    counted = len(leads)
                    have = hilbert_numerator(MonomialIdeal.from_generators(ring, leads))
                    if have == goal:
                        break
                degree = d
                gap = hilbert_function_from_numerator(
                    have, ring.n, d
                ) - hilbert_function_from_numerator(goal, ring.n, d)
                if gap < 0:
                    raise InputError(
                        "the target is not a Hilbert target of this ideal: it "
                        "exceeds the series of S/(leads) in degree %d" % d
                    )
            if not gap:
                continue
        if mono_coprime(leads[i], leads[j]):
            continue
        # chain criterion: some k with lead_k | lcm and both side pairs done
        if any(
            k != i
            and k != j
            and mono_divides(leads[k], lcm_ij)
            and (min(i, k), max(i, k)) not in pairs
            and (min(j, k), max(j, k)) not in pairs
            for k in range(len(G))
        ):
            continue
        s = normal_form(s_polynomial(G[i], G[j]), G)
        if not s.is_zero():
            s = s.monic()
            G.append(s)
            leads.append(s.leading_monomial())
            add_pairs(len(G) - 1)
            gap -= 1
    return G


def interreduce(G):
    """Reduce a Groebner basis to the unique reduced monic form."""
    if not G:
        return []
    key = G[0].ring.key
    # drop elements whose lead is divisible by another surviving lead
    G = sorted(G, key=lambda g: key(g.leading_monomial()))
    kept = []
    for g in G:
        lm = g.leading_monomial()
        if not any(mono_divides(h.leading_monomial(), lm) for h in kept):
            kept.append(g)
    reduced = []
    for idx, g in enumerate(kept):
        others = kept[:idx] + kept[idx + 1 :]
        r = normal_form(g, others).monic()
        reduced.append(r)
    reduced.sort(key=lambda g: key(g.leading_monomial()))
    return reduced


def reduced_groebner_basis(ideal, target=None):
    """The unique reduced monic Groebner basis of a homogeneous ideal;
    target, if known, is a Hilbert target for it: in(g ideal) for an
    invertible linear change g, or a numerator that HS(S/ideal) is at
    least (see buchberger)."""
    if not isinstance(ideal, Ideal):
        raise TypeError("expected an Ideal")
    return interreduce(buchberger(list(ideal.generators), target))


def initial_ideal(gb, ring=None):
    """The monomial ideal of leading monomials of a reduced basis."""
    if not gb:
        if ring is None:
            raise ValueError("need a ring for the zero ideal")
        return MonomialIdeal.from_generators(ring, [])
    ring = gb[0].ring
    return MonomialIdeal.from_generators(ring, [g.leading_monomial() for g in gb])
