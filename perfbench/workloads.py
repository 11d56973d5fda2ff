"""Seeded inputs for the cmreg benchmark.

Every job is made from the workload name and the seed alone, without
importing cmreg, so the same seed gives byte-identical ideal files on every
commit.  A job is a dict:

    name    file-safe job name, unique within the workload
    text    the ideal file
    args    extra `cmreg compute` arguments (the route)
    method  the route the job runs: "c", "gin" or "oracle"
    expect  the second route that gives the expected answer:
            "oracle"    Betti oracle of the monomial input, at the file's
                        characteristic (GF(32003) for a QQ file)
            "ci"        closed form for a complete intersection, for the
                        dense ideals (generic forms, fewer than variables);
                        the printed in(I) or Gin must have its Hilbert
                        numerator prod(1 - t^d_i)
            "gin"       Monte Carlo Gin with an independent seed (QQ only)
    defect  None, or the known defect that makes the job fail at the commit
            that introduced the benchmark; the job stays in the workload
            and counts as failed until the defect is fixed
"""

import random
from itertools import combinations

WORKLOADS = ("dense-qq", "dense-gfp", "coords", "oracle")

GFP = "GF(32003)"
COEFF_BOUND = 9

# (variables, generator degrees) of the dense ideals, in pass order; the jobs
# are short (0.1-0.4 s over QQ) so that a run makes many attempts at each
DENSE_SHAPES = ((5, (2, 2, 2, 2)), (4, (3, 3, 3)), (5, (2, 3, 3))) * 2

# (x^d y^d, y^d z^d, x^d z^d): every c_i is +inf in the given coordinates
D_FAMILY = (4, 5, 6)
D_DEFECT = 1300

SPARSE_JOBS, SPARSE_VARS, SPARSE_TERMS = 3, 6, 5
GIN_SHAPES = ((5, (2, 2, 2)), (4, (2, 2, 3)))

# random monomial ideals for the oracle workload: variables per job, and the
# band of sum_b 2^|supp b| over the lcm lattice, which tracks oracle time
ORACLE_VARS = (6, 7, 8, 6, 7, 8, 7, 8) * 2
ORACLE_GENS = 14
ORACLE_WORK = (3500, 4000)

ORACLE_ARGS = ["--method", "oracle", "--betti"]

# the 6-vertex triangulation of the real projective plane
RP2_FACETS = (
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6),
)


def jobs(workload, seed):
    """The job list of one pass over the workload, made from the seed."""
    if workload in ("dense-qq", "dense-gfp"):
        field = "QQ" if workload == "dense-qq" else GFP
        return _dense_jobs(random.Random("dense:%d" % seed), field)
    if workload == "coords":
        return _coords_jobs(random.Random("coords:%d" % seed))
    if workload == "oracle":
        return _oracle_jobs(random.Random("oracle:%d" % seed))
    raise ValueError("unknown workload %r (choose from %s)" % (workload, ", ".join(WORKLOADS)))


def _job(name, text, expect, args=(), defect=None):
    method = args[list(args).index("--method") + 1] if "--method" in args else "c"
    return {"name": name, "text": text, "args": list(args), "method": method, "expect": expect, "defect": defect}


def _dense_jobs(rng, field):
    out = []
    for k, (n, degrees) in enumerate(DENSE_SHAPES):
        # drawn before the field is used, so both fields get the same integers
        text = _ideal_text(n, field, [_dense_form(rng, n, d) for d in degrees])
        name = "%s-in%d-%d" % ("".join(map(str, degrees)), n, k)
        out.append(_job(name, text, "ci"))
    return out


def _coords_jobs(rng):
    out = [_job("dfam-%d" % d, _d_family(d), "oracle") for d in D_FAMILY]
    for k in range(SPARSE_JOBS):
        out.append(_job("sparse-%d" % k, _sparse_text(rng, SPARSE_VARS), "gin"))
    for k, (n, degrees) in enumerate(GIN_SHAPES):
        forms = [_dense_form(rng, n, d) for d in degrees]
        out.append(_job("gin-%d" % k, _ideal_text(n, "QQ", forms), "ci", ["--method", "gin"]))
    return out


def _oracle_jobs(rng):
    out = []
    for k, n in enumerate(ORACLE_VARS):
        field = "QQ" if k % 2 == 0 else "GF(2)"
        gens = _banded_monomial_ideal(rng, n)
        text = _ideal_text(n, field, [[(1, g)] for g in gens])
        out.append(_job("mono-%d" % k, text, "oracle", ORACLE_ARGS))
    nonfaces = [c for c in combinations(range(1, 7), 3) if c not in RP2_FACETS]
    rp2 = [[(1, tuple(int(i + 1 in c) for i in range(6)))] for c in nonfaces]
    out.append(
        _job(
            "rp2-gf2",
            _ideal_text(6, "GF(2)", rp2),
            "oracle",
            ORACLE_ARGS,
            defect="the oracle ignores the characteristic: reg 2 where GF(2) gives 3",
        )
    )
    out.append(
        _job(
            "dfam-%d" % D_DEFECT,
            _d_family(D_DEFECT),
            "oracle",
            ORACLE_ARGS,
            defect="the Hilbert numerator recursion raises RecursionError",
        )
    )
    return out


# ---------------------------------------------------------------------------
# ideal files


def _names(n):
    return ["x%d" % (i + 1) for i in range(n)]


def _monomial(names, exps):
    factors = [v if e == 1 else "%s^%d" % (v, e) for v, e in zip(names, exps) if e]
    return "*".join(factors) or "1"


def _poly(names, terms):
    out = []
    for c, exps in terms:
        body = _monomial(names, exps)
        if abs(c) != 1:
            body = "%d*%s" % (abs(c), body)
        sign = "-" if c < 0 else "+"
        out.append(("-" + body if c < 0 else body) if not out else "%s %s" % (sign, body))
    return " ".join(out)


def _ideal_text(n, field, polys):
    names = _names(n)
    lines = ["ring: %s" % " ".join(names), "field: %s" % field, "ideal:"]
    lines.extend(_poly(names, terms) for terms in polys)
    return "\n".join(lines) + "\n"


def _d_family(d):
    text = "ring: x y z\nfield: QQ\nideal:\n"
    return text + "x^{d}*y^{d}\ny^{d}*z^{d}\nx^{d}*z^{d}\n".format(d=d)


def _exponents(n, d):
    """All exponent tuples of total degree d in n variables."""
    if n == 1:
        return [(d,)]
    return [(a,) + rest for a in range(d + 1) for rest in _exponents(n - 1, d - a)]


def _coeff(rng):
    return rng.choice([c for c in range(-COEFF_BOUND, COEFF_BOUND + 1) if c])


def _dense_form(rng, n, d):
    """A form of degree d in which every monomial appears."""
    return [(_coeff(rng), e) for e in _exponents(n, d)]


def _sparse_text(rng, n):
    """Three sparse quadrics; the first is x_n times a binomial, so x_n is a
    zero divisor on a component of positive dimension and the c route has to
    leave the given coordinates."""
    last = _unit(n, n - 1)
    i, j = rng.sample(range(n - 1), 2)
    first = [(_coeff(rng), _mono_mul(last, _unit(n, i))), (_coeff(rng), _mono_mul(last, _unit(n, j)))]
    quadrics = _exponents(n, 2)
    others = [[(_coeff(rng), e) for e in rng.sample(quadrics, SPARSE_TERMS)] for _ in range(2)]
    return _ideal_text(n, "QQ", [first] + others)


def _unit(n, i):
    return tuple(int(k == i) for k in range(n))


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# monomial ideals with a bounded amount of oracle work


def minimal_generators(gens):
    """The minimal generators of the monomial ideal the exponent tuples generate."""
    gens = sorted(set(gens), key=sum)
    kept = []
    for g in gens:
        if not any(all(a <= b for a, b in zip(m, g)) for m in kept):
            kept.append(g)
    return kept


def _oracle_work(gens):
    """sum over the lcm lattice of 2^|supp b|: the subsets the oracle visits."""
    lcms = set()
    for g in gens:
        lcms |= {tuple(map(max, b, g)) for b in lcms}
        lcms.add(g)
    return sum(2 ** sum(1 for e in b if e) for b in lcms)


def _banded_monomial_ideal(rng, n):
    lo, hi = ORACLE_WORK
    for _ in range(10000):
        drawn = []
        for _ in range(ORACLE_GENS):
            e = [0] * n
            for _ in range(rng.randint(2, 4)):
                e[rng.randrange(n)] += 1
            drawn.append(tuple(e))
        gens = minimal_generators(drawn)
        if lo <= _oracle_work(gens) <= hi:
            return gens
    raise RuntimeError("no monomial ideal in the work band")
