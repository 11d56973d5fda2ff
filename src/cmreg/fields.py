"""Exact coefficient fields: the rationals and prime fields GF(p).

A value of QQ is a fractions.Fraction; a value of GF(p) is a plain int in
[0, p), and polynomial arithmetic reduces mod p when the characteristic is
nonzero.  `field(num, den)` is the way in for both fields, and every
division goes through it; `field.integers` gives values in integer form,
and `normalized` the one canonical integer multiple of a vector.
"""

from fractions import Fraction as _mpq  # the name --version and perfbench's stamp read
from math import gcd, lcm

from .monomial_ideals import InputError


class FieldError(InputError):
    pass


class RationalField:
    """The field of exact rationals, characteristic 0."""

    characteristic = 0
    name = "QQ"

    def __call__(self, num, den=1):
        if den == 0:
            raise FieldError("zero denominator")
        return _mpq(num, den)

    def integers(self, coeffs):
        """(den, {e: c * den}) for a dict of values: the numerators over
        their least common denominator."""
        den = lcm(*(c.denominator for c in coeffs.values()))
        return den, {e: c.numerator * (den // c.denominator) for e, c in coeffs.items()}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


def normalized(values, lead, p):
    """The canonical multiple of the vector values, a dict {key: integer}
    nonzero at the key lead: over QQ (p = 0) the primitive integer one with
    a positive lead, over GF(p) the residues of the one with lead 1."""
    if p:
        inv = pow(values[lead], -1, p)
        return {k: v * inv % p for k, v in values.items()}
    content = gcd(*values.values())
    if values[lead] < 0:
        content = -content
    return {k: v // content for k, v in values.items()}


# the smallest strong pseudoprime to all the bases: Miller-Rabin with them
# decides primality exactly below it
PRIME_BOUND = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(p):
    """Deterministic Miller-Rabin; FieldError for p >= PRIME_BOUND."""
    if p >= PRIME_BOUND:
        raise FieldError("%d is too large: GF(p) needs p < %d" % (p, PRIME_BOUND))
    if p < 2:
        return False
    for q in _BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The prime field GF(p)."""

    def __init__(self, p):
        if not is_prime(p):
            raise FieldError("%d is not prime" % p)
        self.p = p
        self.characteristic = p
        self.name = "GF(%d)" % p

    def __call__(self, num, den=1):
        if den % self.p == 0:
            raise FieldError("zero denominator in GF(%d)" % self.p)
        return num * pow(den, -1, self.p) % self.p

    def integers(self, coeffs):
        """(1, coeffs): a value is already its own residue."""
        return 1, coeffs

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return self.name


QQ = RationalField()
