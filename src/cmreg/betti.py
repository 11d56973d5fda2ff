"""Graded Betti numbers of monomial ideals via the simplicial homology of
upper Koszul complexes, each read off its facets, on the lcm lattice, and
the resolution read-offs of regularity, the a*-invariant and their partial
versions.

A face of an upper Koszul complex is an int bitmask over the variables (bit
j for the variable of index j).

This is a verification oracle, deliberately restricted to desk scale
(n <= 8, at most 20 generators).
"""

from .fields import FieldError, is_prime
from .linalg import _xor_pivots, rank
from .monomial_ideals import NEG_INF, InputError, MonomialIdeal
from .orders import mono_divides, mono_lcm

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
        raise InputError("oracle needs a proper nonzero ideal")
    _check_scope(J)
    acc = set()
    for g in J.gens:
        acc |= {mono_lcm(v, g) for v in acc}
        acc.add(g)
    return acc


def upper_koszul_complex(J, b):
    """Faces of K^b(J) = {sigma subset of supp b : x^(b - e_sigma) in J}, as
    bitmasks over the variables.

    K^b is generated by T_g = {j : g_j < b_j} for the minimal generators g
    dividing x^b, read off one scan of J.gens.  Returns [] (the void
    complex) when there is none, and otherwise faces[k], the sorted k-bit
    submasks of some T_g, for k = 0 .. max |T_g| (faces[0] = [0], the empty
    face).
    """
    if len(b) != J.n:
        raise InputError("multidegree from a different ring")
    tops = {
        sum(1 << j for j, (e, c) in enumerate(zip(g, b)) if e < c)
        for g in J.gens
        if mono_divides(g, b)
    }
    faces = {0} if tops else set()
    for top in tops:
        s = top
        while s:  # the nonempty submasks of top, from top down
            faces.add(s)
            s = (s - 1) & top
    levels = [[] for _ in range(max((t.bit_count() for t in tops), default=-1) + 1)]
    for s in sorted(faces):
        levels[s.bit_count()].append(s)
    return levels


def _boundary_matrix(upper):
    """Boundary matrix from faces `upper` (dim d) to the faces of dim d-1,
    as sparse rows {column: value}, one per face of `upper`, each column
    the bitmask of its face: the k-th facet of a face, with sign (-1)^k,
    drops its k-th lowest bit."""
    rows = []
    for face in upper:
        row, sign, rest = {}, 1, face
        while rest:
            low = rest & -rest
            row[face ^ low] = sign
            sign, rest = -sign, rest ^ low
        rows.append(row)
    return rows


def reduced_homology_ranks(by_dim, field_char=0):
    """Reduced homology ranks of a simplicial complex given by its faces,
    bitmasks over the vertices, level by level (level k holds the faces
    with k vertices, so level 0 is the empty face 0): the list of H~_{k-1} for k = 0 .. len(by_dim) - 1,
    starting at H~_{-1}, which is 1 for {empty face} and 0 otherwise.
    The void complex [] has no homology, and gives [].

    The two lowest boundary ranks are taken outside `linalg.rank`, and both
    hold over every field:
      rank d_1 = 1 if there is a vertex, else 0: d_1 sends every vertex to
        the empty face with coefficient 1;
      rank d_2 = V - c, for V vertices and c connected components of the
        1-skeleton: the transpose of d_2 sends a function f on the vertices
        to the function f(v) - f(u) on the edges uv, so its kernel is the
        functions constant on each component, of dimension c in every
        characteristic.  Over GF(2) the boundary u + v of an edge uv is its
        own bitmask, so this is the XOR rank of the edge masks.
    Every higher boundary rank is computed by `linalg.rank`, from the top
    level down, with clearing (Chen-Kerber 2011; Bauer-Kerber-Reininghaus,
    "Clear and compress", 2014): d_k is built without the level-k faces
    that were pivot columns of d_{k+1}.  This is exact over every field.
    The pivot row of d_{k+1} at a column sigma is a combination of
    boundaries, so a cycle z = c sigma + (faces before sigma) with c != 0.
    These cycles have distinct largest faces, so a nonzero combination of
    them keeps a pivot face, and the faces left span a complement of them
    in level k.  Since d_k sends every z to 0, it has the same image on
    the faces left as on all of level k.

    Over QQ the ranks are first taken over GF(2), and returned when that
    homology is nonzero in at most one degree.  By the universal coefficient
    theorem, dim H~_i(K; GF(2)) = r_i + t_i + t_{i-1}, where r_i is the rank
    of H~_i(K; ZZ) = dim H~_i(K; QQ) and t_i the number of its cyclic
    summands of even order.  If only degree i is nonzero over GF(2), then
    t_j = 0 for j != i (from degree j) and t_i = 0 (from degree i + 1), so
    both fields give the same homology.  Otherwise (RP^2, a 4-cycle beside
    a point) the QQ ranks are eliminated.  GF(p) for odd p has no such
    certificate, since GF(2) does not see p-torsion.
    """
    if field_char == 0:
        mod2 = _homology(by_dim, 2)
        if sum(map(bool, mod2)) <= 1:
            return mod2
    return _homology(by_dim, field_char)


def _homology(by_dim, field_char):
    # reduced_homology_ranks with every rank in characteristic field_char;
    # a separate function, so that a traced reduced_homology_ranks is one
    # span per complex
    counts = [len(level) for level in by_dim]
    # boundary_ranks[k] = rank of the boundary map from level k to level k-1
    boundary_ranks = [0] * (len(by_dim) + 1)
    if len(by_dim) > 1:  # then some face, so level 1, has a vertex
        boundary_ranks[1] = 1
    if len(by_dim) > 2:
        boundary_ranks[2] = len(_xor_pivots(by_dim[2]))
    cleared = set()  # the level-k faces that were pivot columns of d_{k+1}
    for k in range(len(by_dim) - 1, 2, -1):
        faces = [f for f in by_dim[k] if f not in cleared]
        cleared = set()
        boundary_ranks[k] = rank(_boundary_matrix(faces), field_char, cleared)
    # H~_{k-1} = ker - im at level k
    return [counts[k] - boundary_ranks[k] - boundary_ranks[k + 1] for k in range(len(by_dim))]


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
    characteristic `field_char` (by default that of J's field); FieldError
    for a `field_char` that is neither 0 nor a prime.

    Row i = 0 is beta_{0,0} = 1; homology supplies every row i >= 1, row 1
    (the minimal generators) from H~_{-1}.
    """
    if not isinstance(J, MonomialIdeal):
        raise TypeError("expected a MonomialIdeal")
    if field_char not in (None, 0) and not is_prime(field_char):
        raise FieldError("characteristic %d is neither 0 nor a prime" % field_char)
    entries = {(0, 0): 1}
    if J.is_zero():
        return BettiTable(entries, J.n)
    if field_char is None:
        field_char = J.ring.field.characteristic
    for b in lcm_multidegrees(J):  # refuses the unit ideal and J beyond scope
        ranks = reduced_homology_ranks(upper_koszul_complex(J, b), field_char)
        j = sum(b)
        # beta_{i,b}(S/J) = H~_{i-2}(K^b), and ranks starts at H~_{-1}
        for i, r in enumerate(ranks, 1):
            if r:
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
    result["d"] = b.get(1, NEG_INF)
    return result
