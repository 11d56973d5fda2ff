"""Graded Betti numbers of monomial ideals via upper-Koszul simplicial
homology on the lcm lattice, and the resolution read-offs of regularity,
the a*-invariant and their partial versions.

This is a verification oracle, deliberately restricted to desk scale
(n <= 8, at most 20 generators).
"""

from itertools import combinations

from .linalg import rank
from .monomial_ideals import NEG_INF, InputError, MonomialIdeal
from .orders import mono_lcm

MAX_GENERATORS = 20
MAX_VARIABLES = 8


class OracleScopeError(InputError):
    pass


def _check_scope(J):
    if len(J.gens) > MAX_GENERATORS or J.n > MAX_VARIABLES:
        raise OracleScopeError(
            "oracle limited to %d generators in %d variables"
            % (MAX_GENERATORS, MAX_VARIABLES)
        )


def lcm_multidegrees(J):
    """lcms of all nonempty subsets of the minimal generators, deduplicated."""
    if J.is_zero() or J.is_unit():
        raise ValueError("oracle needs a proper nonzero ideal")
    _check_scope(J)
    acc = set()
    for g in J.gens:
        acc |= {mono_lcm(v, g) for v in acc}
        acc.add(g)
    return acc


def upper_koszul_complex(J, b):
    """Faces of K^b(J) = {sigma : x^(b - e_sigma) in J}, grouped by dimension.

    Returns a list faces[d] of sorted vertex tuples for d = -1 .. len(V)-1
    (index shifted by one: faces[0] is the empty face level).
    """
    b = tuple(b)
    if not J.contains(b):
        return []  # void complex
    vertices = [i for i, e in enumerate(b) if e > 0]
    by_dim = [[()]]
    for size in range(1, len(vertices) + 1):
        level = []
        for sigma in combinations(vertices, size):
            reduced = list(b)
            for v in sigma:
                reduced[v] -= 1
            if J.contains(tuple(reduced)):
                level.append(sigma)
        if not level:
            break
        by_dim.append(level)
    return by_dim


def _boundary_matrix(lower, upper):
    """Boundary matrix from faces `upper` (dim d) to `lower` (dim d-1)."""
    index = {f: i for i, f in enumerate(lower)}
    rows = []
    for face in upper:
        row = [0] * len(lower)
        for k in range(len(face)):
            sub = face[:k] + face[k + 1 :]
            row[index[sub]] = (-1) ** k
        rows.append(row)
    return rows


def reduced_homology_ranks(by_dim, field_char=0):
    """Reduced homology ranks of a simplicial complex given by faces per
    dimension (including the empty face level at index 0)."""
    if not by_dim:
        return []
    counts = [len(level) for level in by_dim]
    boundary_ranks = [0] * (len(by_dim) + 1)
    for d in range(1, len(by_dim)):
        mat = _boundary_matrix(by_dim[d - 1], by_dim[d])
        boundary_ranks[d] = rank(mat, field_char)
    # homology in dimension d (faces level d+1): ker - im
    ranks = []
    for d in range(len(by_dim) - 1):
        level = d + 1
        ranks.append(counts[level] - boundary_ranks[level] - boundary_ranks[level + 1])
    return ranks


def upper_koszul_homology(J, b, field_char=0):
    """Reduced homology ranks of K^b(J); ranks[d] is dim H~_d."""
    return reduced_homology_ranks(upper_koszul_complex(J, b), field_char)


class BettiTable:
    """Graded Betti numbers beta_{i,j}(S/J) as a map (i, j) -> rank."""

    def __init__(self, entries, n):
        self.entries = {k: v for k, v in entries.items() if v}
        self.n = n

    def column_max_degrees(self):
        """b_i = max{j : beta_{i,j} != 0}, as a dict over occurring i."""
        out = {}
        for (i, j) in self.entries:
            out[i] = max(out.get(i, j), j)
        return out

    def k_polynomial(self):
        """Coefficients of sum_{i,j} (-1)^i beta_{i,j} t^j."""
        top = max((j for (_, j) in self.entries), default=0)
        coeffs = [0] * (top + 1)
        for (i, j), rank in self.entries.items():
            coeffs[j] += (-1) ** i * rank
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return coeffs

    def __repr__(self):
        items = sorted(self.entries.items())
        return "BettiTable(%s)" % ", ".join(
            "b[%d,%d]=%d" % (i, j, r) for (i, j), r in items
        )


def betti_table(J, field_char=None):
    """Betti table of S/J for a monomial ideal J, with ranks taken in
    characteristic `field_char` (by default that of J's field).

    Rows i = 0, 1 are filled combinatorially from the minimal generators;
    homology supplies i >= 2.
    """
    if not isinstance(J, MonomialIdeal):
        raise TypeError("expected a MonomialIdeal")
    entries = {(0, 0): 1}
    if J.is_zero():
        return BettiTable(entries, J.n)
    if field_char is None:
        field_char = J.ring.field.characteristic
    for g in J.gens:
        key = (1, sum(g))
        entries[key] = entries.get(key, 0) + 1
    for b in lcm_multidegrees(J):  # refuses the unit ideal and J beyond scope
        ranks = upper_koszul_homology(J, b, field_char)
        j = sum(b)
        # beta_{i,b}(S/J) = H~_{i-2}(K^b) for i >= 2
        for d, r in enumerate(ranks):
            i = d + 2
            if r and i >= 2:
                entries[(i, j)] = entries.get((i, j), 0) + r
    return BettiTable(entries, J.n)


def invariants_from_betti(table, t=None):
    """Resolution read-offs from a Betti table of S/J.

    With b_i = max{j : beta_{i,j} != 0}:
      reg(S/J)    = max_i (b_i - i)
      a*(S/J)     = max_i b_i - n
      reg_t(S/J)  = max{b_i - i : i >= n - t}
      a*_t(S/J)   = max{b_i : i >= n - t} - n
    Returns a dict with keys reg, astar, reg_t, astar_t, d (max generator
    degree of J, from the i = 1 row).
    """
    n = table.n
    b = table.column_max_degrees()
    reg = max(bi - i for i, bi in b.items())
    astar = max(b.values()) - n
    result = {"reg": reg, "astar": astar}
    if t is not None:
        tail = {i: bi for i, bi in b.items() if i >= n - t}
        result["reg_t"] = max((bi - i for i, bi in tail.items()), default=NEG_INF)
        result["astar_t"] = (max(tail.values()) - n) if tail else NEG_INF
    gen_degrees = [j for (i, j) in table.entries if i == 1]
    result["d"] = max(gen_degrees) if gen_degrees else NEG_INF
    return result
