"""Plain-text ideal files.

Format (whitespace-insensitive, '#' comments to end of line):

    ring: x1 x2 x3 x4
    field: QQ            # or GF(32003)
    ideal:
    x1*x2 - x3*x4
    x1*x3^2 - x2^3

One polynomial per line, terms joined by '+' or '-' (the first may carry a
sign).  A term is an optional coefficient, an integer or (over QQ only)
num/den, followed by any number of factors name or name^e; '*' between them
is optional, and a term may be a constant.  Every polynomial must be
homogeneous.  An error on a polynomial line names its line and column.
"""

import re
from typing import NamedTuple

from .fields import QQ, PrimeField
from .groebner import Ideal
from .monomial_ideals import InputError
from .rings import PolynomialRing


class ParseError(InputError):
    def __init__(self, message, line, col=None):
        self.line = line
        self.col = col
        where = "line %d" % line if col is None else "line %d, column %d" % (line, col)
        super().__init__("%s: %s" % (where, message))


class InputDocument(NamedTuple):
    ring: PolynomialRing
    generators: list

    def ideal(self):
        return Ideal(self.ring, self.generators)


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME)
# a term: a sign (optional on the first term only), then an optional num or
# num/den, then any run of '*' and name or name^e; a den or e left out
# matches as the empty string, so that its absence can be reported
_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-]?)\s*(?:(?P<num>\d+)(?:\s*(?P<slash>/)\s*(?P<den>\d*))?)?"
    r"(?P<factors>(?:\s*(?:\*|%s(?:\s*\^\s*\d*)?))*)\s*" % _NAME
)
_FACTOR_RE = re.compile(r"(?P<name>%s)(?:\s*\^\s*(?P<exp>\d*))?" % _NAME)
# int() refuses longer digit strings on interpreters with Python's default
# conversion limit, and 3.10.0-3.10.6 have no limit: a fixed bound refuses
# the same inputs on every supported interpreter
MAX_DIGITS = 4300
_LONG_DIGITS_RE = re.compile(r"\d{%d}" % (MAX_DIGITS + 1))
_TOO_LONG = 10**MAX_DIGITS  # the least number of more than MAX_DIGITS digits


def _unexpected(line, pos):
    return "unexpected %s" % (repr(line[pos]) if pos < len(line) else "end of line")


def _parse_polynomial(line, lineno, ring, var_index):
    """The homogeneous polynomial written on one line."""
    coeffs, cols = {}, {}
    pos = 0
    while pos < len(line):
        m = _TERM_RE.match(line, pos)
        if pos and not m["sign"]:
            raise ParseError(_unexpected(line, pos), lineno, pos + 1)
        den = 1
        if m["slash"]:
            if ring.field.characteristic:
                raise ParseError("rational coefficients need field QQ", lineno, m.start("slash") + 1)
            if not m["den"]:
                raise ParseError("expected a denominator", lineno, m.start("den") + 1)
            den = int(m["den"])
            if den == 0:
                raise ParseError("zero denominator", lineno, m.start("den") + 1)
        factors = list(_FACTOR_RE.finditer(m["factors"]))
        if m["num"] is None and not factors:
            # nothing but '*' (or nothing at all) after the sign
            at = m.start("factors")
            raise ParseError(_unexpected(line, at), lineno, at + 1)
        exps = [0] * ring.n
        for f in factors:
            col = m.start("factors") + f.start() + 1
            if f["name"] not in var_index:
                raise ParseError("undeclared variable %r" % f["name"], lineno, col)
            if f["exp"] == "":
                raise ParseError("expected an exponent", lineno, col + len(f[0]))
            exps[var_index[f["name"]]] += int(f["exp"] or 1)
        num = int(m["num"] or 1)
        e = tuple(exps)
        coeffs[e] = coeffs.get(e, 0) + ring.field(-num if m["sign"] == "-" else num, den)
        cols.setdefault(e, m.start("sign") + 1)
        pos = m.end()
    for e, c in coeffs.items():
        # terms on one monomial can sum to a number no single term reaches
        if max(abs(c.numerator), c.denominator) >= _TOO_LONG:
            raise ParseError(
                "the terms on one monomial sum to a coefficient of more than %d digits" % MAX_DIGITS,
                lineno,
                cols[e],
            )
    poly = ring.from_coeffs(coeffs)
    degrees = [sum(e) for e in poly.coeffs]
    if len(set(degrees)) > 1:
        # the witness: the first term whose degree differs from the first term's
        col = next(cols[e] for e, d in zip(poly.coeffs, degrees) if d != degrees[0])
        raise ParseError(
            "polynomial is not homogeneous (terms of degrees %d and %d)"
            % (min(degrees), max(degrees)),
            lineno,
            col,
        )
    return poly


def _strip_comment(line):
    return line.split("#", 1)[0]


def _digits_checked(content):
    """The (line number, line) pairs of content in order, refusing a line
    with a run of more than MAX_DIGITS digits at the run's column."""
    for lineno, line in content:
        m = _LONG_DIGITS_RE.search(line)
        if m:
            raise ParseError("a run of more than %d digits" % MAX_DIGITS, lineno, m.start() + 1)
        yield lineno, line


def _header(it, lineno, key, what):
    """The next content line's number and its text after `key`, stripped."""
    try:
        lineno, line = next(it)
    except StopIteration:
        raise ParseError("expected %s" % what, lineno) from None
    line = line.lstrip()
    if not line.startswith(key):
        raise ParseError("expected %s" % what, lineno)
    return lineno, line[len(key) :].strip()


def parse_input(text):
    """Parse an ideal file into an InputDocument."""
    # each line keeps its leading blanks, so that a column counts from the
    # first character of the line as written
    content = [
        (i + 1, line)
        for i, raw in enumerate(text.splitlines())
        if (line := _strip_comment(raw).rstrip())
    ]
    if not content:
        raise ParseError("empty input", 1)
    it = _digits_checked(content)

    lineno, names = _header(it, 1, "ring:", "'ring:' declaration")
    names = names.split()
    if not names:
        raise ParseError("no variables declared", lineno)
    for name in names:
        if not _NAME_RE.fullmatch(name):
            raise ParseError("bad variable name %r" % name, lineno)
    if len(set(names)) != len(names):
        raise ParseError("duplicate variable names", lineno)

    lineno, spec = _header(it, lineno, "field:", "'field:' declaration")
    if spec == "QQ":
        field = QQ
    else:
        # GF(p) or GFp: a parenthesis only with its partner
        m = re.fullmatch(r"GF\s*(\()?\s*(\d+)\s*(?(1)\))", spec)
        if not m:
            raise ParseError("unknown field %r (use QQ or GF(p))" % spec, lineno)
        try:
            field = PrimeField(int(m.group(2)))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None

    lineno, rest = _header(it, lineno, "ideal:", "'ideal:' section")
    if rest:
        raise ParseError("expected 'ideal:' section", lineno)

    ring = PolynomialRing(names, field)
    var_index = {name: i for i, name in enumerate(names)}
    generators = []
    for lineno, line in it:
        poly = _parse_polynomial(line, lineno, ring, var_index)
        if not poly.is_zero():
            generators.append(poly)
    return InputDocument(ring=ring, generators=generators)
