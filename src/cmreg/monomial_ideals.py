"""Monomial ideal combinatorics.

Minimal generating sets, variable substitutions x_i = 0 or 1, Hilbert
series numerators N(t) with HS(S/J) = N(t)/(1-t)^n, top degrees of
ideal quotients, Krull dimension and the Borel-fixedness test.

Extended integers use the floats -inf/+inf alongside Python ints; the
conventions -inf < k < +inf and -inf + k = -inf come for free.
"""

from itertools import accumulate
from math import factorial

from .orders import mono_divides

NEG_INF = float("-inf")
POS_INF = float("inf")


class InputError(ValueError):
    """The input is outside what a route can answer: a bad file, a wrong
    field, an out-of-range cutoff t, the unit ideal, or the oracle's scope."""


class CharacteristicError(InputError):
    """A characteristic-0-only method was requested over a prime field."""


class MathematicalFailure(RuntimeError):
    """A route could not certify an answer for a valid input."""


def exponent_vector(exps, n):
    """exps as a tuple; an InputError unless it has n entries, none negative."""
    exps = tuple(exps)
    if len(exps) != n or any(e < 0 for e in exps):
        raise InputError("bad exponent vector %r" % (exps,))
    return exps


def minimalize(gens):
    """Divisibility-minimal antichain generating the same monomial ideal."""
    gens = sorted(set(tuple(g) for g in gens), key=sum)
    minimal = []
    for g in gens:
        if not any(mono_divides(m, g) for m in minimal):
            minimal.append(g)
    return minimal


class MonomialIdeal:
    """A monomial ideal by its minimal generators, canonically sorted."""

    # _hilbert keeps hilbert_numerator(J), which the routes read several times
    __slots__ = ("ring", "gens", "_hilbert")

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = tuple(sorted(minimalize(gens), key=ring.key, reverse=True))
        self._hilbert = None

    @classmethod
    def from_generators(cls, ring, gens):
        """The ideal of gens, each checked to be an exponent vector of ring."""
        return cls(ring, [exponent_vector(g, ring.n) for g in gens])

    @property
    def n(self):
        return self.ring.n

    def is_zero(self):
        return not self.gens

    def is_unit(self):
        return len(self.gens) == 1 and not any(self.gens[0])

    def contains(self, mono):
        """True iff some minimal generator divides the monomial."""
        mono = tuple(mono)
        if len(mono) != self.n:
            raise InputError("monomial from a different ring")
        return any(mono_divides(g, mono) for g in self.gens)

    def set_vars_zero(self, i):
        """Substitute the last i variables by 0; result lives in n-i variables."""
        if not 0 <= i <= self.n - 1:
            raise InputError("i must be in [0, %d]" % (self.n - 1))
        if i == 0:
            return self
        keep = self.n - i
        survivors = [g[:keep] for g in self.gens if not any(g[keep:])]
        return MonomialIdeal.from_generators(self.ring.drop_last(i), survivors)

    def set_var_one(self):
        """Substitute the last variable by 1; same ring, may become the unit ideal."""
        gens = [g[:-1] + (0,) for g in self.gens]
        return MonomialIdeal.from_generators(self.ring, gens)

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.ring == other.ring and self.gens == other.gens

    def __hash__(self):
        return hash((self.ring, self.gens))

    def __repr__(self):
        if not self.gens:
            return "(0)"
        return "(%s)" % ", ".join(self.ring.format_monomial(g) for g in self.gens)


# ---------------------------------------------------------------------------
# univariate integer polynomials in t, as coefficient lists


def _padd(p, q, shift=0, sign=1):
    """p + sign * t^shift * q, trimmed."""
    out = list(p) + [0] * (len(q) + shift - len(p))
    for i, c in enumerate(q, shift):
        out[i] += sign * c
    while out and out[-1] == 0:
        out.pop()
    return out


def _order_at_one(num):
    """The multiplicity of t = 1 as a root of a trimmed num, 0 for num = 0.
    (1-t) divides num iff its coefficients sum to 0, and the quotient is
    then the prefix sums of num, again trimmed."""
    k = 0
    while num and sum(num) == 0:
        num, k = list(accumulate(num[:-1])), k + 1
    return k


def hilbert_numerator(J):
    """Coefficients of N(t) with HS(S/J) = N(t)/(1-t)^n, by `_numerator`.

    The result is kept on J, so it is computed once per ideal; an in(g I)
    found by Buchberger with a Hilbert target arrives with it kept, and the
    oracle route keeps its Betti table's K-polynomial, the same numerator.
    """
    if J._hilbert is None:
        J._hilbert = tuple(_numerator(J.gens))
    return list(J._hilbert)


def _colon(gens, m):
    """Minimal generators of L : m for L spanned by the monomials gens,
    minimal or not: the max(g - m, 0)."""
    return minimalize([tuple(max(a - b, 0) for a, b in zip(g, m)) for g in gens])


def colon_step(num, gens, m):
    """N(L + (m)) = N(L) - t^{deg m} N(L : m) from num = N(L), for L spanned
    by the monomials gens, minimal or not, and a monomial m (Bigatti, JPAA
    119, 1997)."""
    return _padd(num, _numerator(_colon(gens, m)), sum(m), -1)


def complete_intersection_numerator(degrees):
    """Coefficients of the product of (1 - t^d) over the degrees d: the
    Hilbert numerator of S/I for a complete intersection I of forms of
    these degrees.  For any r <= n forms of these degrees HS(S/I) is at
    least this numerator over (1-t)^n (Froeberg, Math. Scand. 56, 1985; see
    groebner.buchberger); for r > n the product bounds nothing."""
    out = [1]
    for d in degrees:
        out = _padd(out, out, d, -1)
    return out


def _numerator(gens):
    """N(t) of the monomial ideal with minimal generators gens.

    Pivot recursion N(J) = N(J + (p)) + t^k N(J : p) on a power p = x_i^k
    of a most-frequent variable (Bigatti's pivot).  Taking k as the least
    positive exponent of x_i in a mixed generator keeps the depth
    independent of the exponents.
    """
    mixed = [g for g in gens if sum(1 for e in g if e > 0) >= 2]
    if not mixed:  # (0), the unit ideal, or powers of distinct variables
        return complete_intersection_numerator(sum(g) for g in gens)
    # pivot among variables of mixed generators only, so both branches shrink
    nvars = len(gens[0])
    mixed_support = {i for g in mixed for i in range(nvars) if g[i] > 0}
    counts = {i: sum(1 for g in gens if g[i] > 0) for i in mixed_support}
    pivot = max(mixed_support, key=lambda i: (counts[i], -i))
    k = min(g[pivot] for g in mixed if g[pivot] > 0)
    p = tuple(k if i == pivot else 0 for i in range(nvars))
    plus = minimalize([g for g in gens if g[pivot] < k] + [p])
    return _padd(_numerator(plus), _numerator(_colon(gens, p)), k)


def quotient_top_degree(J_sub, J_sup):
    """Top nonzero degree of J_sup/J_sub, i.e. a(J_sup/J_sub).

    Requires J_sub contained in J_sup.  Returns -inf when the ideals are
    equal, +inf when the quotient has infinitely many nonzero graded
    pieces, and the exact top degree otherwise.
    """
    if J_sub.ring != J_sup.ring:
        raise InputError("ideals from different rings")
    if J_sub.gens == J_sup.gens:
        return NEG_INF  # equal ideals: no numerator needed
    for g in J_sub.gens:
        if not J_sup.contains(g):
            raise InputError("containment J_sub <= J_sup violated")
    diff = _padd(hilbert_numerator(J_sub), hilbert_numerator(J_sup), sign=-1)
    if not diff:
        return NEG_INF
    # the quotient's series is diff / (1-t)^n = q (1-t)^(k-n), k the order at
    # 1: a polynomial of degree deg q + k - n = deg diff - n when k >= n
    return POS_INF if _order_at_one(diff) < J_sub.n else len(diff) - 1 - J_sub.n


def krull_dimension(J):
    """dim(S/J) = n minus the multiplicity of t = 1 in the numerator."""
    if J.is_unit():
        return -1  # the zero ring, by convention
    return J.n - _order_at_one(hilbert_numerator(J))


def is_borel_fixed(J):
    """Single-step exchange criterion for Borel-fixedness (char 0 only).

    True iff for every minimal generator x^A, every j with A_j > 0 and
    every i < j, the exchange x^A x_i / x_j stays in J.
    """
    if J.ring.field.characteristic != 0:
        raise CharacteristicError("Borel-fixedness criterion requires characteristic 0")
    for g in J.gens:
        for j in range(J.n):
            if g[j] == 0:
                continue
            for i in range(j):
                swapped = list(g)
                swapped[j] -= 1
                swapped[i] += 1
                if not J.contains(tuple(swapped)):
                    return False
    return True


# ---------------------------------------------------------------------------
# Hilbert function and polynomial from the numerator


def _binom_poly(a, k):
    """binomial(a, k) as the polynomial a(a-1)...(a-k+1)/k!, any integer a:
    k! divides a product of k consecutive integers."""
    num = 1
    for i in range(k):
        num *= a - i
    return num // factorial(k)


def _series_sum(num, n, m):
    """sum_j c_j binomial(m - j + n - 1, n - 1) over the terms c_j t^j of
    num, each binomial as a polynomial in m."""
    return sum(c * _binom_poly(m - j + n - 1, n - 1) for j, c in enumerate(num))


def hilbert_function_from_numerator(num, n, m):
    """The coefficient of t^m in num(t)/(1-t)^n: for the Hilbert numerator
    of a monomial ideal J in n variables, dim of the degree-m piece of S/J."""
    if m < 0:
        return 0
    return _series_sum(num[: m + 1], n, m)


def hilbert_function(J, m):
    """dim of the degree-m piece of S/J (coefficient of t^m in N/(1-t)^n)."""
    return hilbert_function_from_numerator(hilbert_numerator(J), J.n, m)


def hilbert_polynomial_value(J, m):
    """Value at m of the Hilbert polynomial of S/J: the series sum over the
    whole numerator.  A factor (1-t) of the numerator acts on the binomials
    as the difference f(m) - f(m-1), which takes binomial(m + e, e) to
    binomial(m + e - 1, e - 1) and the constant 1 to 0; so no power of
    (1-t) needs stripping, and a quotient of dimension 0 gets 0."""
    return _series_sum(hilbert_numerator(J), J.n, m)

