"""Plain-text ideal files.

Format (whitespace-insensitive, '#' comments to end of line):

    ring: x1 x2 x3 x4
    field: QQ            # or GF(32003)
    ideal:
    x1*x2 - x3*x4
    x1*x3^2 - x2^3

One polynomial per line; a term is an optional integer or rational
coefficient followed by variable factors, '*' between factors optional.
Every polynomial must be homogeneous.
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


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[\^*/+\-])"
)


def _tokenize(text, lineno):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r" % text[pos], lineno, pos + 1)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos + 1))
        pos = m.end()
    return tokens


class _PolyParser:
    def __init__(self, ring, var_index, tokens, lineno):
        self.ring = ring
        self.var_index = var_index
        self.tokens = tokens
        self.lineno = lineno
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of polynomial", self.lineno)
        self.pos += 1
        return tok

    def fail(self, message):
        tok = self.peek()
        col = tok[2] if tok else None
        raise ParseError(message, self.lineno, col)

    def parse(self):
        terms = []
        sign = 1
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in "+-":
            self.next()
            sign = -1 if tok[1] == "-" else 1
        terms.append(self.term(sign))
        while self.peek() is not None:
            kind, text, _ = self.next()
            if kind != "op" or text not in "+-":
                self.fail("expected '+' or '-' between terms")
            terms.append(self.term(-1 if text == "-" else 1))
        return self.ring.from_terms(terms)

    def term(self, sign):
        num, den = 1, 1
        exps = [0] * self.ring.n
        saw_factor = False
        tok = self.peek()
        if tok and tok[0] == "int":
            self.next()
            num = int(tok[1])
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "/":
                if self.ring.field.characteristic != 0:
                    self.fail("rational coefficients need field QQ")
                self.next()
                dtok = self.next()
                if dtok[0] != "int":
                    raise ParseError("expected denominator", self.lineno, dtok[2])
                den = int(dtok[1])
                if den == 0:
                    raise ParseError("zero denominator", self.lineno, dtok[2])
            saw_factor = True
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "*":
                self.next()
        while True:
            tok = self.peek()
            if tok is None or (tok[0] == "op" and tok[1] in "+-"):
                break
            if tok[0] == "op" and tok[1] == "*":
                self.next()
                continue
            if tok[0] != "name":
                self.fail("expected a variable")
            self.next()
            if tok[1] not in self.var_index:
                raise ParseError("undeclared variable %r" % tok[1], self.lineno, tok[2])
            idx = self.var_index[tok[1]]
            power = 1
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "^":
                self.next()
                etok = self.next()
                if etok[0] != "int":
                    raise ParseError("expected exponent", self.lineno, etok[2])
                power = int(etok[1])
            exps[idx] += power
            saw_factor = True
        if not saw_factor:
            self.fail("empty term")
        coeff = self.ring.field(sign * num, den)
        return coeff, tuple(exps)


def _strip_comment(line):
    return line.split("#", 1)[0]


def parse_input(text):
    """Parse an ideal file into an InputDocument."""
    lines = text.splitlines()
    content = [
        (i + 1, stripped)
        for i, raw in enumerate(lines)
        if (stripped := _strip_comment(raw).strip())
    ]
    if not content:
        raise ParseError("empty input", 1)
    it = iter(content)

    lineno, line = next(it)
    if not line.startswith("ring:"):
        raise ParseError("expected 'ring:' declaration", lineno)
    names = line[len("ring:") :].split()
    if not names:
        raise ParseError("no variables declared", lineno)
    for name in names:
        if not _NAME_RE.fullmatch(name):
            raise ParseError("bad variable name %r" % name, lineno)
    if len(set(names)) != len(names):
        raise ParseError("duplicate variable names", lineno)

    try:
        lineno, line = next(it)
    except StopIteration:
        raise ParseError("expected 'field:' declaration", lineno) from None
    if not line.startswith("field:"):
        raise ParseError("expected 'field:' declaration", lineno)
    spec = line[len("field:") :].strip()
    if spec == "QQ":
        field = QQ
    else:
        m = re.fullmatch(r"GF\s*\(?\s*(\d+)\s*\)?", spec)
        if not m:
            raise ParseError("unknown field %r (use QQ or GF(p))" % spec, lineno)
        try:
            field = PrimeField(int(m.group(1)))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None

    try:
        lineno, line = next(it)
    except StopIteration:
        raise ParseError("expected 'ideal:' section", lineno) from None
    if line != "ideal:":
        raise ParseError("expected 'ideal:' section", lineno)

    ring = PolynomialRing(names, field)
    var_index = {name: i for i, name in enumerate(names)}
    generators = []
    for lineno, line in it:
        tokens = _tokenize(line, lineno)
        poly = _PolyParser(ring, var_index, tokens, lineno).parse()
        homog, _ = poly.is_homogeneous()
        if not homog:
            degs = sorted({sum(e) for e in poly.coeffs})
            raise ParseError(
                "polynomial is not homogeneous (terms of degrees %d and %d)"
                % (degs[0], degs[-1]),
                lineno,
            )
        if not poly.is_zero():
            generators.append(poly)
    return InputDocument(ring=ring, generators=generators)
