"""Buchberger's algorithm: reduced Groebner bases and initial ideals.

Pair selection follows the normal strategy: the open pair whose lcm is
smallest in degrevlex comes first, ties broken by the pair's indices.  The
open pairs sit in a heap keyed that way, so each pair's lcm is computed
once.  The coprime-lead and chain criteria prune useless pairs.  The final
basis is inter-reduced and monic, hence unique for the ideal and order.
The minimal leads of any Groebner basis span the initial ideal, so
_leading_ideal reads in(I) off Buchberger's basis as it stands: no
inter-reduction and no field value.  The c route and Gin read in(g I) for
each drawn g that way, and only in(I) itself comes from the reduced basis.

Buchberger and inter-reduction run on one exact integer kernel.  A
monomial x^e is held as the tuple (-deg e, e_n, ..., e_1): multiplying
monomials adds these tuples entry by entry, and the smallest tuple is the
degrevlex-largest monomial.  A basis element lives only in the kernel's
form (pattern, lead, lc, tail) from the moment it is found, with the
coefficients of its canonical integer multiple `fields.normalized`
(one rule for QQ and GF(p)).  The S-polynomial of two elements is built
from their integer tails, as lcm(lc_f, lc_g) times the field one.  The
kernel reduces it: the terms still to reduce sit in a heap of monomial
tuples, so each term's order key is built once, and a term that cancels
stays in the heap and is skipped when popped.  Over QQ the kernel is
fraction-free: a reduction step multiplies what is left by lc / gcd(lc, c)
instead of dividing by lc, and each remainder term keeps the product of
these factors (the scale) at which it left.  A nonzero remainder, each term
lifted to the final scale, becomes the next basis element directly.
Inter-reduction reduces each minimal element's tail by the other elements
through the same kernel, and only then are field values made: one
`field(num, den)` per term of each returned element.  `normal_form` and
`s_polynomial` give library callers the same kernel on field values; a
remainder is exactly the one field arithmetic gives, not a multiple of it.

Buchberger can be given a Hilbert target: the numerator of a series that
HS(S/I) is at least in every degree, with equality for an initial ideal.
The numerator of in(I) in other coordinates is one, since an invertible
linear change keeps the Hilbert series (Traverso's Hilbert-driven
Buchberger).  So is the numerator of the degree bound
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
monomial to L_d, its lead, so the gap is counted down within a degree.
L's Hilbert numerator takes one colon step per new lead m,
N(L + (m)) = N(L) - t^{deg m} N(L : m), on the small ideal L : m.  Once the
numerators of L and of the target agree, L = in(I) and the basis is
complete; either way the last numerator is that of in(I), which
reduced_groebner_basis keeps on the Ideal and _leading_ideal on the
monomial ideal it returns.  Only pairs whose normal form is zero are
skipped, so the basis is the same with or without a target.
"""

from heapq import heapify, heappop, heappush
from math import gcd, inf
from operator import add, itemgetter, le, neg, sub

from .fields import normalized
from .monomial_ideals import (
    InputError,
    MonomialIdeal,
    colon_step,
    hilbert_function_from_numerator,
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
        self._initial = None  # in(I), filled by regularity._initial_of
        self._hilbert = None  # N(t) of S/I, kept by reduced_groebner_basis for in(I)

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


def _element(lead, lc, tail):
    """A basis element in the kernel's form: (divisibility pattern, lead
    monomial, lead coefficient, tail).  The pattern is the lead monomial
    with its degree slot at -inf, so that it is <= a monomial entry by entry
    exactly when the lead divides it."""
    return (-inf,) + lead[1:], lead, lc, tail


def _reducer(g):
    """The nonzero polynomial g in the kernel's form, with the coefficients
    of its canonical integer multiple (`normalized`)."""
    lm = g.leading_monomial()
    field = g.ring.field
    ints = normalized(field.integers(g.coeffs)[1], lm, field.characteristic)
    tail = tuple((_key(e), v) for e, v in ints.items() if e != lm)
    return _element(_key(lm), ints[lm], tail)


def _reduce(work, basis, p):
    """The kernel: fully reduce work, a {monomial: integer} dict in the
    kernel's form (consumed), by basis elements in the kernel's form, tried
    in order.  The order-largest reducible term is rewritten first, by the
    first element whose lead divides it.

    Returns (remainder, scale).  remainder lists the terms (monomial, c, s),
    order-largest first, of the normal form sum c/s x^k of work; each s
    divides scale, so the terms c * (scale // s) are scale times it.  Over
    GF(p) every element is monic and scale is 1.
    """
    # work / scale is the polynomial still to reduce, and each remainder
    # term keeps the scale at which it left work
    heap = list(work)
    heapify(heap)
    scale = 1
    remainder = []
    while heap:
        k = heappop(heap)
        c = work.pop(k, 0)
        if not c:
            continue  # cancelled, or a second heap entry of a done term
        for pattern, lead, lc, tail in basis:
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
    return remainder, scale


def _s_work(f, g, p):
    """The S-polynomial of two basis elements in the kernel's form, as a
    work dict: lcm(lc_f, lc_g) times the S-polynomial of f/lc_f and
    g/lc_g, built from the integer tails (the leads cancel)."""
    _, lead_f, lc_f, tail_f = f
    _, lead_g, lc_g, tail_g = g
    m = tuple(map(max, lead_f[1:], lead_g[1:]))
    lcm_fg = (-sum(m),) + m
    h = gcd(lc_f, lc_g)
    mf, mg = lc_g // h, lc_f // h
    qf = tuple(map(sub, lcm_fg, lead_f))
    qg = tuple(map(sub, lcm_fg, lead_g))
    work = {tuple(map(add, qf, k)): mf * c for k, c in tail_f}
    for k, c in tail_g:
        t = tuple(map(add, qg, k))
        v = work.get(t, 0) - mg * c
        if p:
            v %= p
        if v:
            work[t] = v
        else:
            work.pop(t, None)
    return work


def _from_remainder(remainder, scale, p):
    """The basis element of a nonzero remainder of `_reduce`: its terms
    lifted to the final scale, then `normalized`."""
    lead = remainder[0][0]
    ints = normalized({k: c * (scale // s) for k, c, s in remainder}, lead, p)
    lc = ints.pop(lead)
    return _element(lead, lc, tuple(ints.items()))


def _monic(ring, lead, terms):
    """The monic polynomial with leading monomial lead and other terms
    (monomial, num, den) of value num / den: one field value per term."""
    field = ring.field
    coeffs = {_exps(lead): field(1)}
    for k, num, den in terms:
        coeffs[_exps(k)] = field(num, den)
    return Polynomial(ring, coeffs)


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
    for g in basis:
        _check_same_ring(f, g)
    den, ints = field.integers(f.coeffs)
    remainder, _ = _reduce(
        {_key(e): v for e, v in ints.items()},
        [_reducer(g) for g in basis],
        field.characteristic,
    )
    return Polynomial(ring, {_exps(k): field(c, den * s) for k, c, s in remainder})


def s_polynomial(f, g):
    """S(f, g) = (lcm/lt(f)) f - (lcm/lt(g)) g; leading terms cancel."""
    if f.is_zero() or g.is_zero():
        raise InputError("S-polynomial of the zero polynomial")
    _check_same_ring(f, g)
    field = f.ring.field
    a, b = _reducer(f), _reducer(g)
    den = a[2] * b[2] // gcd(a[2], b[2])
    return Polynomial(
        f.ring,
        {_exps(k): field(c, den) for k, c in _s_work(a, b, field.characteristic).items()},
    )


def _buchberger(ring, G, target):
    """Complete the basis elements G (kernel form, nonzero, a list that
    grows in place) to a Groebner basis; see buchberger."""
    p = ring.field.characteristic
    # open pairs (i, j), i < j, popped by (degrevlex key of their lcm, i, j):
    # the negated kernel form of a monomial orders as its degrevlex key
    pairs = set()
    heap = []
    have = [1]  # with a target: the Hilbert numerator of the leads of G

    def add_element(j):
        # open the pairs (i, j), i < j; with a target, G[j]'s lead joins the
        # leads by one colon step
        nonlocal have
        lead_j = G[j][1][1:]
        leads = [g[1][1:] for g in G[:j]]
        for i, lead_i in enumerate(leads):
            m = tuple(map(max, lead_i, lead_j))
            lcm_ij = (-sum(m),) + m
            heappush(heap, (tuple(map(neg, lcm_ij)), i, j, lcm_ij))
            pairs.add((i, j))
        if target is not None:
            have = colon_step(have, leads, lead_j)

    for j in range(len(G)):
        add_element(j)
    degree = None  # the lcm degree of the pairs being reduced
    gap = 0  # dim S_degree - [target]_degree - dim <leads>_degree
    while heap:
        _, i, j, lcm_ij = heappop(heap)
        pairs.discard((i, j))
        if target is not None:
            d = -lcm_ij[0]
            if d != degree:
                if have == target:
                    break
                degree = d
                gap = hilbert_function_from_numerator(
                    have, ring.n, d
                ) - hilbert_function_from_numerator(target, ring.n, d)
                if gap < 0:
                    raise InputError(
                        "the target is not a Hilbert target of this ideal: it "
                        "exceeds the series of S/(leads) in degree %d" % d
                    )
            if not gap:
                continue
        if not any(map(min, G[i][1][1:], G[j][1][1:])):
            continue  # coprime leads
        # chain criterion: some k with lead_k | lcm and both side pairs done
        if any(
            k != i
            and k != j
            and all(map(le, G[k][0], lcm_ij))
            and (min(i, k), max(i, k)) not in pairs
            and (min(j, k), max(j, k)) not in pairs
            for k in range(len(G))
        ):
            continue
        remainder, scale = _reduce(_s_work(G[i], G[j], p), G, p)
        if remainder:
            G.append(_from_remainder(remainder, scale, p))
            add_element(len(G) - 1)
            gap -= 1
    return G, have


def buchberger(generators, target=None):
    """Complete a list of nonzero polynomials to a Groebner basis, made
    monic.

    target, when given, is a Hilbert target for the ideal I the generators
    span: the numerator of a series that HS(S/I) is at least, such as the
    Hilbert numerator of any in(g I), which attains it.  For r <= n forms
    of degrees d_i, prod (1 - t^{d_i}) is one:
    dim I_k is at most the rank of the same map for forms with
    indeterminate coefficients, which the exact Koszul complex of
    x_1^{d_1}, ..., x_r^{d_r} makes dim S_k minus the bound's k-th
    coefficient.  A target only skips pairs with a zero normal form (see
    the module docstring), so the result is the same either way; one that
    exceeds the series of S/(leads) in some degree is refused with an
    InputError.
    """
    generators = [g for g in generators if not g.is_zero()]
    if not generators:
        return []
    ring = generators[0].ring
    G, _ = _buchberger(ring, [_reducer(g) for g in generators], target)
    return [_monic(ring, lead, ((k, c, lc) for k, c in tail)) for _, lead, lc, tail in G]


def _interreduce(ring, G):
    """The reduced monic basis of a Groebner basis in the kernel's form."""
    p = ring.field.characteristic
    # drop elements whose lead is divisible by another surviving lead; the
    # kernel form of a monomial is largest where its degrevlex key is least
    kept = []
    for g in sorted(G, key=itemgetter(1), reverse=True):
        if not any(all(map(le, h[0], g[1])) for h in kept):
            kept.append(g)
    reduced = []
    for idx, (_, lead, lc, tail) in enumerate(kept):
        # no other lead divides this one, so only the tail reduces
        remainder, _ = _reduce(dict(tail), kept[:idx] + kept[idx + 1 :], p)
        reduced.append(_monic(ring, lead, ((k, c, s * lc) for k, c, s in remainder)))
    return reduced


def interreduce(G):
    """Reduce a Groebner basis to the unique reduced monic form."""
    if not G:
        return []
    return _interreduce(G[0].ring, [_reducer(g) for g in G])


def _groebner_basis(ideal, target):
    """Buchberger on an Ideal with its Hilbert target (or None): a Groebner
    basis in the kernel's form, not inter-reduced, and the Hilbert
    numerator of its leads, which is that of in(ideal)."""
    return _buchberger(ideal.ring, [_reducer(g) for g in ideal.generators], target)


def reduced_groebner_basis(ideal, target=None):
    """The unique reduced monic Groebner basis of a homogeneous ideal;
    target, if known, is a Hilbert target for it: the Hilbert numerator of
    in(g ideal) for an invertible linear change g, or one that HS(S/ideal)
    is at least (see buchberger)."""
    if not isinstance(ideal, Ideal):
        raise TypeError("expected an Ideal")
    G, have = _groebner_basis(ideal, target)
    if target is not None:
        ideal._hilbert = tuple(have)
    return _interreduce(ideal.ring, G)


def _leading_ideal(ideal, target):
    """in(ideal), the minimal leads of Buchberger's basis: no inter-reduction
    and no field value.  With a target it keeps the leads' numerator."""
    G, have = _groebner_basis(ideal, target)
    J = MonomialIdeal.from_generators(ideal.ring, [_exps(g[1]) for g in G])
    if target is not None:
        J._hilbert = tuple(have)
    return J


def initial_ideal(gb, ring=None):
    """The monomial ideal of leading monomials of a reduced basis."""
    if not gb:
        if ring is None:
            raise InputError("need a ring for the zero ideal")
        return MonomialIdeal.from_generators(ring, [])
    ring = gb[0].ring
    return MonomialIdeal.from_generators(ring, [g.leading_monomial() for g in gb])
