"""Polynomial rings over exact fields, with homogeneous polynomial arithmetic.

A ring fixes the variable names and the coefficient field; monomials are
ordered by degrevlex.  Polynomials are immutable; internally a dict mapping
exponent tuples to nonzero coefficients, exposed as a term list sorted
descending in degrevlex.
"""

from operator import add

from .fields import QQ
from .linalg import rank
from .monomial_ideals import InputError, exponent_vector
from .orders import degrevlex_key


class RingMismatchError(InputError):
    pass


class PolynomialRing:
    """k[x_1, ..., x_n] under the degrevlex order."""

    key = staticmethod(degrevlex_key)

    def __init__(self, names, field=QQ):
        names = tuple(names)
        if not names:
            raise InputError("need at least one variable")
        if len(set(names)) != len(names):
            raise InputError("variable names must be distinct")
        self.names = names
        self.field = field

    @property
    def n(self):
        return len(self.names)

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        return self.from_terms([(c, (0,) * self.n)])

    def gens(self):
        return [self.variable(i) for i in range(self.n)]

    def variable(self, i):
        e = [0] * self.n
        e[i] = 1
        return self.monomial(tuple(e))

    def monomial(self, exps):
        return Polynomial(self, {exponent_vector(exps, self.n): self.field(1)})

    def from_terms(self, terms):
        """Build a polynomial from (coeff, exps) pairs, collecting duplicates."""
        coeffs = {}
        for c, e in terms:
            e = exponent_vector(e, self.n)
            coeffs[e] = coeffs.get(e, 0) + (self.field(c) if isinstance(c, int) else c)
        return self.from_coeffs(coeffs)

    def from_coeffs(self, coeffs):
        """The polynomial with the {exps: value} coefficients given: each
        value reduced mod p over GF(p), and zero values dropped.  Every
        polynomial built from accumulated coefficients ends here."""
        p = self.field.characteristic
        if p:
            return Polynomial(self, {e: v for e, c in coeffs.items() if (v := c % p)})
        return Polynomial(self, {e: c for e, c in coeffs.items() if c})

    def drop_last(self, i):
        """The subring on the first n-i variables, same field."""
        if not 0 <= i <= self.n - 1:
            raise InputError("cannot drop %d of %d variables" % (i, self.n))
        if i == 0:
            return self
        return PolynomialRing(self.names[: self.n - i], self.field)

    def format_monomial(self, exps):
        if not any(exps):
            return "1"
        parts = []
        for name, e in zip(self.names, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append("%s^%d" % (name, e))
        return "*".join(parts)

    def __eq__(self, other):
        return (
            isinstance(other, PolynomialRing)
            and self.names == other.names
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.names, self.field))

    def __repr__(self):
        return "%s[%s]" % (self.field.name, ", ".join(self.names))


def _check_same_ring(f, g):
    if f.ring != g.ring:
        raise RingMismatchError("polynomials from different rings")


class Polynomial:
    """An element of a PolynomialRing; immutable."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = coeffs

    @property
    def terms(self):
        """Terms (coeff, exps) sorted descending in degrevlex."""
        key = self.ring.key
        return tuple(
            (self.coeffs[e], e)
            for e in sorted(self.coeffs, key=key, reverse=True)
        )

    def is_zero(self):
        return not self.coeffs

    def leading_term(self):
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading term")
        e = max(self.coeffs, key=self.ring.key)
        return self.coeffs[e], e

    def leading_monomial(self):
        return self.leading_term()[1]

    def leading_coeff(self):
        return self.leading_term()[0]

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(sum(e) for e in self.coeffs)

    def is_homogeneous(self):
        """Return (True, d) if all terms have total degree d, else (False, None).

        The zero polynomial is homogeneous of every degree; reported as
        (True, None).
        """
        degs = {sum(e) for e in self.coeffs}
        if not degs:
            return True, None
        if len(degs) == 1:
            return True, degs.pop()
        return False, None

    def __add__(self, other):
        _check_same_ring(self, other)
        coeffs = dict(self.coeffs)
        for e, c in other.coeffs.items():
            coeffs[e] = coeffs.get(e, 0) + c
        return self.ring.from_coeffs(coeffs)

    def __neg__(self):
        return self.ring.from_coeffs({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        _check_same_ring(self, other)
        return self.ring.from_coeffs(_times(self.coeffs, other.coeffs))

    def scale(self, c):
        """Multiply by a scalar."""
        c = self.ring.field(c) if isinstance(c, int) else c
        return self.ring.from_coeffs({e: k * c for e, k in self.coeffs.items()})

    def monic(self):
        if not self.coeffs:
            return self
        lc = self.leading_coeff()
        if lc == 1:
            return self
        return self.scale(self.ring.field(1, lc))

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring, frozenset(self.coeffs.items())))

    def __str__(self):
        if not self.coeffs:
            return "0"
        ring = self.ring
        out = []
        for c, e in self.terms:
            mono = ring.format_monomial(e)
            mag = str(c)
            neg = mag.startswith("-")  # a residue never prints with a sign
            mag = mag[1:] if neg else mag
            if mono == "1":
                body = mag
            elif mag == "1":
                body = mono
            else:
                body = "%s*%s" % (mag, mono)
            if not out:
                out.append("-" + body if neg else body)
            else:
                out.append(("- " if neg else "+ ") + body)
        return " ".join(out)

    __repr__ = __str__


def matrix_is_invertible(field, rows):
    """Exact invertibility test of a square integer matrix over the field."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    return rank([dict(enumerate(row)) for row in rows], field.characteristic) == n


def apply_linear_change(f, rows):
    """Substitute x_j -> (row j of the matrix) . (x_1, ..., x_n).

    The matrix must be invertible over the coefficient field; degree and
    homogeneity are preserved.
    """
    _check_change(f.ring, rows)
    return _substitute(f, rows)


def _check_change(ring, rows):
    """Refuse a matrix that is not n x n, or not invertible over the field."""
    n = ring.n
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InputError("matrix must be %d x %d" % (n, n))
    if not matrix_is_invertible(ring.field, rows):
        raise InputError("singular change of coordinates")


def _substitute(f, rows):
    """apply_linear_change with no test of the matrix, for a caller that has
    made `_check_change` once for all its polynomials.  The expansion runs on
    f's coefficients in the field's integer form; each result enters the
    field once, at the end."""
    ring = f.ring
    n = ring.n
    den, ints = ring.field.integers(f.coeffs)
    # powers[i][e] = (image of x_i)^e, for the exponents e > 0 f uses
    powers = [
        {e: _power_of_form(row, e) for e in {exps[i] for exps in ints} if e}
        for i, row in enumerate(rows)
    ]
    result = {}
    for exps, c in ints.items():
        term = {(0,) * n: c}
        for i, e in enumerate(exps):
            if e:
                term = _times(term, powers[i][e])
        for t, v in term.items():
            result[t] = result.get(t, 0) + v
    return Polynomial(ring, {t: c for t, v in result.items() if (c := ring.field(v, den))})


def _power_of_form(row, e):
    """(row . x)^e as {exponent tuple: integer}, by the multinomial theorem:
    the coefficient of x^k is the product over the row's support of
    C(left, k_j) row[j]^k_j, where left is e minus the k_i of the variables
    before j.  The recurrence C(left, k + 1) = C(left, k) (left - k) / (k + 1)
    steps through the binomials, so the work is proportional to the number
    of terms."""
    support = [j for j, a in enumerate(row) if a]
    pows = {j: [row[j] ** k for k in range(e + 1)] for j in support}
    last = support.pop()
    exps = [0] * len(row)
    out = {}

    def expand(s, left, coeff):
        if s == len(support):
            exps[last] = left
            out[tuple(exps)] = coeff * pows[last][left]
            return
        j, pow_j, binom = support[s], pows[support[s]], 1
        for k in range(left + 1):
            exps[j] = k
            expand(s + 1, left - k, coeff * binom * pow_j[k])
            binom = binom * (left - k) // (k + 1)

    expand(0, e, 1)
    return out


def _times(a, b):
    """The product of two polynomials held as {exponent tuple: integer}."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out
