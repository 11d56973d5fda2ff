"""Buchberger's algorithm: reduced Groebner bases and initial ideals.

Pair selection follows the normal strategy (smallest lcm in the active
order first); the coprime-lead and chain criteria prune useless pairs.
The final basis is inter-reduced and monic, hence unique for the ideal
and order.
"""

from .monomial_ideals import MonomialIdeal
from .orders import (
    mono_coprime,
    mono_div,
    mono_divides,
    mono_lcm,
)


class NonHomogeneousError(ValueError):
    pass


class Ideal:
    """A homogeneous ideal given by a finite generating set."""

    def __init__(self, ring, generators):
        gens = []
        for g in generators:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
            if g.is_zero():
                continue
            homog, _ = g.is_homogeneous()
            if not homog:
                raise NonHomogeneousError("generator %s is not homogeneous" % g)
            gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)

    def is_zero(self):
        return not self.generators

    def __repr__(self):
        return "Ideal(%s)" % ", ".join(str(g) for g in self.generators)


def normal_form(f, basis):
    """Fully reduce f against basis (nonzero polynomials, tried in order).

    Returns r with f - r in (basis) and no term of r divisible by any
    basis leading monomial.  Deterministic: the order-largest reducible
    term is rewritten first.
    """
    leads = [g.leading_term() for g in basis]
    ring = f.ring
    remainder = {}
    work = dict(f.coeffs)
    key = ring.key
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        for g, (lc, lm) in zip(basis, leads):
            if mono_divides(lm, e):
                q = mono_div(e, lm)
                scaled = g.mul_term(c / lc, q)
                # subtract; the leading terms cancel by construction
                zero = ring.field.zero
                for e2, c2 in scaled.coeffs.items():
                    if e2 == e:
                        continue
                    acc = work.get(e2, zero) - c2
                    if acc == zero:
                        work.pop(e2, None)
                    else:
                        work[e2] = acc
                break
        else:
            remainder[e] = c
    from .rings import Polynomial

    return Polynomial(ring, remainder)


def s_polynomial(f, g):
    """S(f, g) = (lcm/lt(f)) f - (lcm/lt(g)) g; leading terms cancel."""
    if f.is_zero() or g.is_zero():
        raise ValueError("S-polynomial of the zero polynomial")
    cf, mf = f.leading_term()
    cg, mg = g.leading_term()
    lcm = mono_lcm(mf, mg)
    one = f.ring.field.one
    return f.mul_term(one / cf, mono_div(lcm, mf)) - g.mul_term(
        one / cg, mono_div(lcm, mg)
    )


def buchberger(generators):
    """Complete a list of nonzero polynomials to a Groebner basis."""
    G = [g.monic() for g in generators if not g.is_zero()]
    if not G:
        return []
    ring = G[0].ring
    key = ring.key
    leads = [g.leading_monomial() for g in G]
    pairs = {(i, j) for i in range(len(G)) for j in range(i + 1, len(G))}

    def lcm_of(p):
        return mono_lcm(leads[p[0]], leads[p[1]])

    while pairs:
        pair = min(pairs, key=lambda p: (key(lcm_of(p)), p))
        pairs.discard(pair)
        i, j = pair
        if mono_coprime(leads[i], leads[j]):
            continue
        lcm_ij = lcm_of(pair)
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
            new = len(G)
            G.append(s)
            leads.append(s.leading_monomial())
            pairs.update((m, new) for m in range(new))
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


def reduced_groebner_basis(ideal):
    """The unique reduced monic Groebner basis of a homogeneous ideal."""
    if not isinstance(ideal, Ideal):
        raise TypeError("expected an Ideal")
    return interreduce(buchberger(list(ideal.generators)))


def initial_ideal(gb, ring=None):
    """The monomial ideal of leading monomials of a reduced basis."""
    if not gb:
        if ring is None:
            raise ValueError("need a ring for the zero ideal")
        return MonomialIdeal.from_generators(ring, [])
    ring = gb[0].ring
    return MonomialIdeal.from_generators(ring, [g.leading_monomial() for g in gb])
