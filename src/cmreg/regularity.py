"""Regularity and a*-invariants of homogeneous ideals.

The main route computes the substitution invariants c_i of the initial
ideal under degrevlex: c_i is the top degree of the quotient of the
ideal obtained by setting the last i variables to 0 and then the next
variable to 1.  Then

    reg_t(R/I)  = max{c_i : i <= t}         (all c_i finite)
    a*_t(R/I)   = max{c_i - i : i <= t}

and the ideal-side values are shifted by one in reg.  A +inf value of
some c_i means the variable sequence fails filter-regularity there; a
random change of coordinates repairs it.

The second route computes the generic initial ideal Gin(I) by Monte
Carlo (two agreeing random coordinate changes plus a Borel-fixedness
certificate) and reads the invariants off the c route on the accepted
draw; an infinite c_i there fails the route.

The third route reads them off the graded Betti table of S/in(I).
"""

import random
from typing import NamedTuple, Optional

from .betti import BettiTable, betti_table, invariants_from_betti
from .groebner import Ideal, _leading_ideal, initial_ideal, reduced_groebner_basis
from .monomial_ideals import (
    NEG_INF,
    POS_INF,
    CharacteristicError,
    InputError,
    MathematicalFailure,
    MonomialIdeal,
    complete_intersection_numerator,
    hilbert_numerator,
    is_borel_fixed,
    krull_dimension,
    quotient_top_degree,
)
from .rings import _check_change, _substitute, matrix_is_invertible

RETRY_CAP = 5  # random coordinate changes before the c route gives up
RETRY_ENTRY_BOUND = 3  # entry bound of the c route's unitriangular retries
DENSE_ENTRY_BOUND = 1000  # default entry bound of the dense random matrices
DRAW_CAP = 8  # random draws before the Gin route gives up


class FilterRegularityFailure(MathematicalFailure):
    """Some c_i = +inf: variable i fails filter-regularity.

    `retries` is the number of random coordinate changes tried before
    giving up.
    """

    def __init__(self, index):
        self.index = index
        self.retries = 0
        super().__init__(
            "filter-regularity fails at substitution index %d (c_%d = +inf)"
            % (index, index)
        )


class GinAgreementError(MathematicalFailure):
    """Random draws did not stabilize within the draw cap."""

    def __init__(self, candidates, draws):
        self.candidates = candidates
        self.draws = draws
        super().__init__(
            "no two of %d random draws agreed on a Borel-fixed initial ideal; "
            "candidates: %s" % (draws, candidates)
        )


class GinResult(NamedTuple):
    gin: MonomialIdeal
    draws_agreed: int
    borel_certified: bool
    draws_total: int


class RegularityReport(NamedTuple):
    """The invariants at cutoff t.  The c and Gin routes put reg_t and a*_t
    in reg_quotient and astar_quotient; the oracle (c is None) puts the full
    reg and a* there and reg_t, a*_t in reg_t_quotient, astar_t_quotient."""

    t: int
    c: Optional[tuple]
    reg_ideal: object
    astar_ideal: object
    reg_quotient: object
    astar_quotient: object
    dim_quotient: int
    method: str
    initial_ideal: Optional[MonomialIdeal] = None
    gin: Optional[GinResult] = None
    generic_retries: int = 0
    betti: Optional[BettiTable] = None
    reg_t_quotient: object = None
    astar_t_quotient: object = None
    max_generator_degree: object = None

    @property
    def is_full(self):
        return self.t >= self.dim_quotient


def _check_input(J, t):
    """Refuse the unit ideal and a cutoff t outside [0, n] (None passes)."""
    if t is not None and not 0 <= t <= J.n:
        raise InputError("t must be in [0, %d]" % J.n)
    if J.is_unit():
        raise InputError("the unit ideal has no regularity invariants")


def _hilbert_target(I, drawn=None):
    """Buchberger's Hilbert target for every in(g I) of an Ideal or a
    MonomialIdeal I.  All of them have the Hilbert series of I, so the
    target is the numerator of one already known: I itself when monomial,
    in(I) once computed, or else drawn, an in(g' I) the caller computed.
    Before any is known, an Ideal of r <= n generators of degrees d_i has
    the degree bound prod (1 - t^{d_i}): HS(S/I) is at least that series,
    with equality exactly for a complete intersection (see buchberger).
    More generators get no target, since their product bounds nothing.
    in(I) and an in(g' I) found with a target keep Buchberger's numerator
    of their leads, so reading theirs computes nothing."""
    known = I if isinstance(I, MonomialIdeal) else I._initial or drawn
    if known is not None:
        return hilbert_numerator(known)
    if len(I.generators) <= I.ring.n:
        return complete_intersection_numerator(g.degree() for g in I.generators)
    return None


def _initial_of(I, rows=None, drawn=None):
    """in(g I) under degrevlex, for an Ideal or a MonomialIdeal and the
    change of coordinates g given by rows (None: the identity).  in(I) is
    kept on an Ideal, so that the routes share it; in(g I) for a drawn g
    is computed when asked and never kept.  in(I) is read off the reduced
    basis, in(g I) off the minimal leads of Buchberger's basis, with no
    inter-reduction.  Buchberger's target is _hilbert_target(I, drawn);
    with one, the numerator of its leads is kept on in(g I)."""
    if rows is None and isinstance(I, MonomialIdeal):
        return I
    if rows is None and I._initial is not None:
        return I._initial
    target = _hilbert_target(I, drawn)
    if rows is not None:
        return _leading_ideal(_transformed(I, rows), target)
    J = initial_ideal(reduced_groebner_basis(I, target), I.ring)
    J._hilbert = I._hilbert
    I._initial = J
    return J


def c_invariants(I, t=None):
    """The substitution invariants c_0, ..., c_t of in(I), at t (default n).

    Indices run up to n; the index-n entry is the degree-0 contribution
    of the residue field (0 for every proper ideal), which closes the
    list so that t = dim(R/I) always yields the full invariants.
    """
    J = _initial_of(I)
    n = J.n
    _check_input(J, t)
    if t is None:
        t = n
    values = []
    for i in range(min(t, n - 1) + 1):
        J_i = J.set_vars_zero(i)
        J_tilde = J_i.set_var_one()
        values.append(quotient_top_degree(J_i, J_tilde))
    if t == n:
        values.append(0)
    return values


def invariants_from_c(c_values, t, nonzero_ideal=True):
    """Partial invariants from a c-list; raises on a +inf entry."""
    window = c_values[: t + 1]
    for i, v in enumerate(window):
        if v == POS_INF:
            raise FilterRegularityFailure(i)
    reg_q = max(window, default=NEG_INF)
    astar_q = max((v - i for i, v in enumerate(window)), default=NEG_INF)
    return _with_ideal_side(reg_q, astar_q, nonzero_ideal)


def _with_ideal_side(reg_q, astar_q, nonzero_ideal):
    """(reg(I), a*(I), reg(R/I), a*(R/I)) from the quotient's values."""
    if nonzero_ideal:
        return reg_q + 1, astar_q, reg_q, astar_q
    return NEG_INF, NEG_INF, reg_q, astar_q


def _check_bound(bound):
    if bound < 1:
        raise InputError("the random matrix entry bound must be at least 1")


def random_invertible_matrix(rng, n, field, bound=DENSE_ENTRY_BOUND):
    """A random integer matrix, redrawn until invertible over the field."""
    _check_bound(bound)
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if matrix_is_invertible(field, rows):
            return rows


def random_unitriangular_matrix(rng, n):
    """The change x_j -> x_j + sum_{i<j} a_ji x_i with random integers a_ji
    in [-RETRY_ENTRY_BOUND, RETRY_ENTRY_BOUND]: ones on the diagonal and
    zeros above it, so it has determinant 1 over every field."""
    b = RETRY_ENTRY_BOUND
    return [[rng.randint(-b, b) if i < j else int(i == j) for i in range(n)] for j in range(n)]


def transform_ideal(I, rows):
    """Apply an invertible linear change of coordinates to every generator
    of an Ideal or a MonomialIdeal; the matrix is tested once for all of
    them."""
    _check_change(I.ring, rows)
    return _transformed(I, rows)


def _transformed(I, rows):
    """transform_ideal with no test of the matrix, for the routes' own
    changes: a unitriangular retry has determinant 1 over every field, and
    random_invertible_matrix has tested every dense draw."""
    if isinstance(I, MonomialIdeal):
        gens = [I.ring.monomial(g) for g in I.gens]
    else:
        gens = I.generators
    return Ideal(I.ring, [_substitute(g, rows) for g in gens])


def full_invariants(I, use_generic=True, seed=0, t=None, bound=DENSE_ENTRY_BOUND):
    """Regularity report for a proper homogeneous ideal.

    Computes c-invariants at t = dim(R/I) (where the maxima stabilize,
    so the values are the full reg and a*).  On filter-regularity
    failure, retries in random coordinates when use_generic is set; reg
    and a* are coordinate-invariant, so the retried values are faithful.
    The first RETRY_CAP - 1 changes are unitriangular with small entries,
    which keeps coefficients small; the last is a dense draw with entries
    in [-bound, bound].  Each pass computes one initial ideal: in(I)
    itself, then in(g I) for each random change g.
    """
    _check_bound(bound)
    J0 = _initial_of(I)
    _check_input(J0, t)
    dim = krull_dimension(J0)
    t_eff = dim if t is None else t
    nonzero = bool(J0.gens)
    rng = random.Random(seed)
    J = J0
    retries = 0
    while True:
        c = tuple(c_invariants(J, t_eff))
        try:
            reg_i, astar_i, reg_q, astar_q = invariants_from_c(
                c, t_eff, nonzero_ideal=nonzero
            )
            break
        except FilterRegularityFailure as exc:
            if not use_generic or retries >= RETRY_CAP:
                exc.retries = retries
                raise
            retries += 1
            if retries < RETRY_CAP:
                m = random_unitriangular_matrix(rng, I.ring.n)
            else:
                m = random_invertible_matrix(rng, I.ring.n, I.ring.field, bound)
            J = _initial_of(I, m)
    return RegularityReport(
        t=t_eff,
        c=c,
        reg_ideal=reg_i,
        astar_ideal=astar_i,
        reg_quotient=reg_q,
        astar_quotient=astar_q,
        dim_quotient=dim,
        method="c",
        initial_ideal=J0,
        generic_retries=retries,
    )


def generic_initial_ideal(I, seed=0, bound=DENSE_ENTRY_BOUND):
    """Gin(I) by Monte Carlo: accept when two independent random
    coordinate changes give the same initial ideal and it is Borel-fixed."""
    _check_bound(bound)
    ring = I.ring
    if ring.field.characteristic != 0:
        raise CharacteristicError(
            "generic initial ideals require characteristic 0"
        )
    rng = random.Random(seed)
    seen = {}
    draws = 0
    while draws < DRAW_CAP:
        m = random_invertible_matrix(rng, ring.n, ring.field, bound)
        # the first draw's numerator is every later draw's target
        J = _initial_of(I, m, next(iter(seen), None))
        draws += 1
        seen[J] = seen.get(J, 0) + 1
        if seen[J] >= 2 and is_borel_fixed(J):
            return GinResult(
                gin=J,
                draws_agreed=seen[J],
                borel_certified=True,
                draws_total=draws,
            )
    raise GinAgreementError(list(seen), draws)


def invariants_via_gin(I, t=None, seed=0, bound=DENSE_ENTRY_BOUND):
    """Regularity report of the c route on Gin(I), at t (default n).

    A Borel-fixed initial ideal in characteristic 0 is strongly stable, so
    its c_i are finite and give reg_t and a*_t exactly (Bayer-Stillman).
    An infinite c_i on the accepted draw fails the route.
    """
    result = generic_initial_ideal(I, seed=seed, bound=bound)
    try:
        report = full_invariants(result.gin, use_generic=False, t=result.gin.n if t is None else t)
    except FilterRegularityFailure as exc:
        raise MathematicalFailure("the accepted Gin draw has no finite c list: %s" % exc) from exc
    return report._replace(method="gin", initial_ideal=None, gin=result)


def invariants_via_betti(I, t=None):
    """Regularity report of S/in(I), for an Ideal or a MonomialIdeal, read
    off the Betti table of S/in(I) in the characteristic of I's field, with
    reg_t and a*_t at t (default n).  Raises OracleScopeError beyond the
    oracle's scope."""
    J = _initial_of(I)
    _check_input(J, t)
    t_eff = J.n if t is None else t
    table = betti_table(J)
    if J._hilbert is None:  # the K-polynomial is J's Hilbert numerator
        J._hilbert = tuple(table.k_polynomial())
    inv = invariants_from_betti(table, t=t_eff)
    reg_i, astar_i, reg_q, astar_q = _with_ideal_side(
        inv["reg"], inv["astar"], bool(J.gens)
    )
    return RegularityReport(
        t=t_eff,
        c=None,
        reg_ideal=reg_i,
        astar_ideal=astar_i,
        reg_quotient=reg_q,
        astar_quotient=astar_q,
        dim_quotient=krull_dimension(J),
        method="oracle",
        betti=table,
        reg_t_quotient=inv["reg_t"],
        astar_t_quotient=inv["astar_t"],
        max_generator_degree=inv["d"],
    )
