"""Text grammars for polynomials, Lie expressions, and wreath elements.

Polynomial:      terms joined by + or -; a term is an optional integer or
                 p/q coefficient followed by *-separated x<k>^<e> factors,
                 e.g.  3/2*x1^2*x2 - x3
Lie expression:  x<k> atoms, [a,b,...,c] left-normed brackets whose entries
                 are again expressions, rational scalars with *, and a
                 postfix ad(<polynomial>), e.g.  [x2,x1,x2] - [x2,x1,x1]
Wreath element:  u<k>*( <polynomial> ) terms and rational multiples of v<k>,
                 joined by + or -, e.g.  u1*( x2 ) - u2*( x1 ) + 2*v1

All parsers report the position of the first offending character.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .lie import Ad, Bracket, LieExpr, Scale, Sum, Var
from .polynomials import Polynomial
from .wreath import WreathElement

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<var>[uvx])(?P<varidx>\d+)
      | (?P<ad>ad)
      | (?P<int>\d+)
      | (?P<sym>[-+*/^\[\](),])
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group("ws") is None:
            if m.group("var") is not None:
                tokens.append(("var", (m.group("var"), int(m.group("varidx"))), pos))
            elif m.group("ad") is not None:
                tokens.append(("ad", "ad", pos))
            elif m.group("int") is not None:
                tokens.append(("int", int(m.group("int")), pos))
            else:
                tokens.append((m.group("sym"), m.group("sym"), pos))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _TokenStream:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def value(self):
        return self.tokens[self.i][1]

    def pos(self) -> int:
        return self.tokens[self.i][2]

    def advance(self):
        tok = self.tokens[self.i]
        if tok[0] != "end":
            self.i += 1
        return tok

    def expect(self, kind: str):
        if self.peek() != kind:
            raise ParseError(f"expected {kind!r}", self.pos())
        return self.advance()

    def fail(self, message: str):
        raise ParseError(message, self.pos())


_SIGNS = {"+": 1, "-": -1}


def _signed_terms(ts: _TokenStream, parse_term):
    """Parse ``[+|-] term ((+|-) term)*`` into a list of (sign, term) pairs."""
    sign = _SIGNS[ts.advance()[0]] if ts.peek() in _SIGNS else 1
    terms = []
    while True:
        terms.append((sign, parse_term(ts)))
        if ts.peek() not in _SIGNS:
            return terms
        sign = _SIGNS[ts.advance()[0]]


def _parse_rational(ts: _TokenStream) -> Fraction:
    num = ts.expect("int")[1]
    if ts.peek() == "/":
        ts.advance()
        den_pos = ts.pos()
        den = ts.expect("int")[1]
        if den == 0:
            raise ParseError("zero denominator", den_pos)
        return Fraction(num, den)
    return Fraction(num)


def _parse_poly_factor(ts: _TokenStream, nvars: int):
    if ts.peek() != "var" or ts.value()[0] != "x":
        ts.fail("expected a variable x<k>")
    pos = ts.pos()
    _, idx = ts.advance()[1]
    if not 1 <= idx <= nvars:
        raise ParseError(f"variable x{idx} outside 1..{nvars}", pos)
    exponent = 1
    if ts.peek() == "^":
        ts.advance()
        exponent = ts.expect("int")[1]
    return idx, exponent


def _parse_poly_term(ts: _TokenStream, nvars: int) -> Polynomial:
    coeff = Fraction(1)
    factors = []
    if ts.peek() == "int":
        coeff = _parse_rational(ts)
        while ts.peek() == "*":
            ts.advance()
            factors.append(_parse_poly_factor(ts, nvars))
    elif ts.peek() == "var":
        factors.append(_parse_poly_factor(ts, nvars))
        while ts.peek() == "*":
            ts.advance()
            factors.append(_parse_poly_factor(ts, nvars))
    else:
        ts.fail("expected a polynomial term")
    mono = [0] * nvars
    for idx, e in factors:
        mono[idx - 1] += e
    return Polynomial(nvars, {tuple(mono): coeff})


def _parse_poly(ts: _TokenStream, nvars: int) -> Polynomial:
    total = Polynomial.zero(nvars)
    for sign, term in _signed_terms(ts, lambda ts: _parse_poly_term(ts, nvars)):
        total = total + term * sign
    return total


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    ts = _TokenStream(text)
    poly = _parse_poly(ts, nvars)
    if ts.peek() != "end":
        ts.fail("trailing input after polynomial")
    return poly


def _parse_lie_atom(ts: _TokenStream, n: int) -> LieExpr:
    kind = ts.peek()
    if kind == "var":
        letter, idx = ts.value()
        if letter != "x":
            ts.fail(f"expected x<k>, got {letter}{idx}")
        pos = ts.pos()
        ts.advance()
        if not 1 <= idx <= n:
            raise ParseError(f"variable x{idx} outside 1..{n}", pos)
        return Var(idx)
    if kind == "[":
        pos = ts.pos()
        ts.advance()
        entries = [_parse_lie_expr(ts, n)]
        while ts.peek() == ",":
            ts.advance()
            entries.append(_parse_lie_expr(ts, n))
        ts.expect("]")
        if len(entries) < 2:
            raise ParseError("a bracket needs at least two entries", pos)
        node = entries[0]
        for entry in entries[1:]:
            node = Bracket(node, entry)
        return node
    if kind == "(":
        ts.advance()
        node = _parse_lie_expr(ts, n)
        ts.expect(")")
        return node
    ts.fail("expected x<k>, '[' or '('")


def _parse_lie_postfix(ts: _TokenStream, n: int) -> LieExpr:
    node = _parse_lie_atom(ts, n)
    while ts.peek() == "ad":
        ts.advance()
        ts.expect("(")
        poly = _parse_poly(ts, n)
        ts.expect(")")
        node = Ad(node, poly)
    return node


def _parse_lie_term(ts: _TokenStream, n: int) -> LieExpr:
    if ts.peek() == "int":
        pos = ts.pos()
        coeff = _parse_rational(ts)
        if ts.peek() == "*":
            ts.advance()
            return Scale(coeff, _parse_lie_postfix(ts, n))
        if coeff == 0:
            return Sum(())
        raise ParseError("a nonzero constant is not a Lie element", pos)
    return _parse_lie_postfix(ts, n)


def _parse_lie_expr(ts: _TokenStream, n: int) -> LieExpr:
    parts = [
        term if sign == 1 else Scale(-1, term)
        for sign, term in _signed_terms(ts, lambda ts: _parse_lie_term(ts, n))
    ]
    return parts[0] if len(parts) == 1 else Sum(parts)


def parse_lie_expr(text: str, n: int) -> LieExpr:
    ts = _TokenStream(text)
    expr = _parse_lie_expr(ts, n)
    if ts.peek() != "end":
        ts.fail("trailing input after expression")
    return expr


def _parse_wreath_term(ts: _TokenStream, n: int):
    """A ``[c*]u<k>*( poly )`` or ``[c*]v<k>`` term as (index, coefficient, poly or None)."""
    coeff = Fraction(1)
    if ts.peek() == "int":
        coeff = _parse_rational(ts)
        ts.expect("*")
    if ts.peek() != "var":
        ts.fail("expected u<k> or v<k>")
    letter, idx = ts.value()
    pos = ts.pos()
    if not 1 <= idx <= n:
        raise ParseError(f"index {idx} outside 1..{n}", pos)
    ts.advance()
    if letter == "v":
        return idx, coeff, None
    if letter != "u":
        raise ParseError("x-variables cannot appear at the top level here", pos)
    ts.expect("*")
    ts.expect("(")
    poly = _parse_poly(ts, n)
    ts.expect(")")
    return idx, coeff, poly


def parse_wreath(text: str, n: int) -> WreathElement:
    """Parse the textual wreath format back into an element."""
    ts = _TokenStream(text)
    upart = [Polynomial.zero(n) for _ in range(n)]
    vpart = [Fraction(0)] * n
    if ts.peek() == "int" and ts.value() == 0 and ts.tokens[ts.i + 1][0] == "end":
        return WreathElement(n)
    terms = _signed_terms(ts, lambda ts: _parse_wreath_term(ts, n))
    if ts.peek() != "end":
        ts.fail("expected '+', '-' or end of input")
    for sign, (idx, coeff, poly) in terms:
        if poly is None:
            vpart[idx - 1] += sign * coeff
        else:
            upart[idx - 1] = upart[idx - 1] + poly * (sign * coeff)
    return WreathElement(n, tuple(upart), tuple(vpart))
