"""Expected answers from a second route, and the check of a job's answer.

An answer is {"reg", "astar", "dim", "partial"}: reg(R/I), a*(R/I),
dim(R/I), and the list of (reg_t, a*_t) of R/I for t = 0 .. dim.  The
c-invariants themselves depend on the coordinates once the c route has
retried, so what is checked of a reported c list is the partial invariants
it determines.  Values are ints or the strings "-inf" / "+inf", as in the
CLI's JSON.  A complete-intersection job adds "numerator": the Hilbert
numerator of the monomial ideal the job printed (in(I) or Gin).
"""

import json
from itertools import combinations

from cmreg.betti import betti_table, invariants_from_betti
from cmreg.monomial_ideals import MonomialIdeal
from cmreg.parser import parse_input
from cmreg.regularity import invariants_via_gin
from workloads import minimal_generators

GIN_SEED = 1  # the jobs run with --seed 0; the Gin draws must differ

# Betti numbers over QQ and over GF(ORACLE_QQ_CHAR) agree unless the upper
# Koszul complexes have homology with ORACLE_QQ_CHAR-torsion, which complexes
# on at most 8 vertices do not have.  Ranks mod p are a different routine
# from the exact integer ranks the CLI takes over QQ.
ORACLE_QQ_CHAR = 32003


def ext(v):
    if v == float("inf"):
        return "+inf"
    if v == float("-inf"):
        return "-inf"
    return int(v)


def _num(v):
    return {"-inf": float("-inf"), "+inf": float("inf")}.get(v, v)


def monomial_dimension(J):
    """dim S/J: the most variables a face of J's support complex can hold,
    i.e. the largest F such that no generator is supported inside F."""
    supports = [frozenset(i for i, e in enumerate(g) if e) for g in J.gens]
    for size in range(J.n, -1, -1):
        for face in combinations(range(J.n), size):
            if not any(s <= set(face) for s in supports):
                return size
    return -1


def partial_from_c(c, dim):
    """(reg_t, a*_t) for t = 0 .. dim from a c list."""
    c = [_num(v) for v in c]
    return [
        [ext(max(c[: t + 1])), ext(max(v - i for i, v in enumerate(c[: t + 1])))]
        for t in range(dim + 1)
    ]


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _trimmed(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def hilbert_numerator(gens):
    """Coefficients of N(t) with HS(S/J) = N(t)/(1-t)^n, for J generated by
    the exponent tuples `gens`, by N(J + (m)) = N(J) - t^deg(m) N(J : m).
    Written here, not taken from cmreg, so that it is a second route."""
    memo = {}

    def numerator(gs):
        if gs in memo:
            return memo[gs]
        if not gs:
            return [1]
        *rest, m = gs
        colon = tuple(minimal_generators(tuple(max(a - b, 0) for a, b in zip(g, m)) for g in rest))
        shifted = [0] * sum(m) + numerator(colon)
        base = numerator(tuple(rest))
        out = [
            (base[k] if k < len(base) else 0) - (shifted[k] if k < len(shifted) else 0)
            for k in range(max(len(base), len(shifted)))
        ]
        memo[gs] = out = _trimmed(out)
        return out

    return numerator(tuple(minimal_generators(tuple(g) for g in gens)))


def _from_oracle(J, characteristic):
    table = betti_table(J, field_char=characteristic)
    dim = monomial_dimension(J)
    full = invariants_from_betti(table)
    partial = []
    for t in range(dim + 1):
        inv = invariants_from_betti(table, t=t)
        partial.append([ext(inv["reg_t"]), ext(inv["astar_t"])])
    return {"reg": ext(full["reg"]), "astar": ext(full["astar"]), "dim": dim, "partial": partial}


def _complete_intersection(n, degrees):
    """R/I for I generated by a regular sequence of forms of these degrees:
    Cohen-Macaulay of dim n - r, so every H^i_m(R/I) with i < dim vanishes,
    reg = sum(d_i - 1), a* = a_dim = reg - dim, and the Hilbert numerator is
    prod(1 - t^d_i)."""
    dim = n - len(degrees)
    reg = sum(d - 1 for d in degrees)
    numerator = [1]
    for d in degrees:
        numerator = _poly_mul(numerator, [1] + [0] * (d - 1) + [-1])
    partial = [["-inf", "-inf"]] * dim + [[reg, reg - dim]]
    return {"reg": reg, "astar": reg - dim, "dim": dim, "partial": partial, "numerator": numerator}


def expected_answer(job):
    """The answer the job must give, by the job's second route."""
    doc = parse_input(job["text"])
    ring = doc.ring
    characteristic = ring.field.characteristic
    if job["expect"] == "oracle":
        if any(len(g.coeffs) != 1 for g in doc.generators):
            raise ValueError("oracle route needs a monomial input")
        gens = [next(iter(g.coeffs)) for g in doc.generators]
        answer = _from_oracle(MonomialIdeal.from_generators(ring, gens), characteristic or ORACLE_QQ_CHAR)
    elif job["expect"] == "ci":
        degrees = [sum(next(iter(g.coeffs))) for g in doc.generators]
        answer = _complete_intersection(len(ring.names), degrees)
    elif job["expect"] == "gin":
        rep = invariants_via_gin(doc.ideal(), seed=GIN_SEED)
        dim = monomial_dimension(rep.gin.gin)
        answer = {
            "reg": ext(rep.reg_quotient),
            "astar": ext(rep.astar_quotient),
            "dim": dim,
            "partial": partial_from_c([ext(v) for v in rep.c], dim),
        }
    else:
        raise ValueError("unknown route %r" % job["expect"])
    if job["method"] == "oracle":
        del answer["partial"]  # the oracle report has no c list
    return answer


def job_answer(stdout, method):
    """Everything expected_answer can ask of a job's CLI JSON."""
    rep = json.loads(stdout)["methods"][method]
    answer = {"reg": rep["reg_quotient"], "astar": rep["astar_quotient"], "dim": rep["dim_quotient"]}
    if "c" in rep:
        answer["partial"] = partial_from_c(rep["c"], rep["dim_quotient"])
    printed = rep.get("initial_ideal", rep.get("gin"))
    if printed is not None:
        answer["numerator"] = hilbert_numerator(m["exponents"] for m in printed)
    return answer


def answer_problem(expected, answer):
    """None if the answer agrees with the expected one, else what differs."""
    wrong = [k for k in expected if answer.get(k) != expected[k]]
    if wrong:
        return "; ".join("%s %s, expected %s" % (k, answer.get(k), expected[k]) for k in wrong)
    return None
