"""Exact coefficient fields: the rationals and prime fields GF(p).

Rational arithmetic uses gmpy2.mpq when available (much faster than
fractions.Fraction); both keep values in lowest terms with positive
denominator automatically.

No other module reads a value's representation: `field.integers` gives
values in integer form, and `field(num, den)` is the way back.
"""

from math import lcm

try:
    from gmpy2 import mpq as _mpq
except ImportError:  # pragma: no cover
    from fractions import Fraction as _mpq


class FieldError(ValueError):
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
        den = lcm(*(int(c.denominator) for c in coeffs.values()))
        return den, {e: int(c.numerator) * (den // int(c.denominator)) for e, c in coeffs.items()}

    @property
    def zero(self):
        return _mpq(0)

    @property
    def one(self):
        return _mpq(1)

    def format(self, c):
        return str(c)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class GFElement:
    """A residue class modulo a prime p."""

    __slots__ = ("val", "p")

    def __init__(self, val, p):
        self.val = val % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise FieldError("mixed characteristics")
            return other.val
        if isinstance(other, int):
            return other % self.p
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return GFElement(self.val + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return GFElement(self.val - v, self.p)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return GFElement(v - self.val, self.p)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return GFElement(self.val * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        if v == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return GFElement(self.val * pow(v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        if self.val == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return GFElement(v * pow(self.val, -1, self.p), self.p)

    def __neg__(self):
        return GFElement(-self.val, self.p)

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            return self.val == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.val, self.p))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return "%d" % self.val


def is_prime(p):
    """Deterministic Miller-Rabin, valid for p < 3.3e24."""
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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
        e = GFElement(num, self.p)
        if den != 1:
            e = e / den
        return e

    def integers(self, coeffs):
        """(1, {e: residue of c}) for a dict of values."""
        return 1, {e: c.val for e, c in coeffs.items()}

    @property
    def zero(self):
        return GFElement(0, self.p)

    @property
    def one(self):
        return GFElement(1, self.p)

    def format(self, c):
        return str(c.val)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return self.name


QQ = RationalField()
