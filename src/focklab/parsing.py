"""Text grammar for symbols.

Expressions are sums of products of complex literals, powers of ``z`` and
``exp(<linear in z>)``, e.g. ``(1+2i)*z^2*exp((0.5-1i)*z) + 3``.  The
imaginary unit is written ``i`` or as a numeric suffix (``2i``, ``1.5i``).
Division is allowed by (nonzero) constants only, exponents must be small
nonnegative integers, and the argument of ``exp`` must be a polynomial of
degree at most one, so that every well-formed expression lands inside the
poly-exp symbol class.  ``render`` writes a canonical form that parses back
to the identical function.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass

from . import symbols
from .errors import ParseError
from .symbols import EntireFunction

_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<number>(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?i?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r")"
)

_MAX_POWER = 64
# parentheses, exp( and unary signs nest by recursion; the bound keeps the
# recursion far inside the interpreter's stack limit
_MAX_NESTING = 64


@dataclass(frozen=True)
class _Token:
    kind: str  # number | imag | name | op | end
    text: str
    position: int
    value: float = 0.0


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            offending = pos + len(text[pos:]) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", offending)
        if m.group("number"):
            raw = m.group("number")
            imag = raw.endswith("i")
            value = float(raw[:-1] if imag else raw)
            if not math.isfinite(value):
                raise ParseError(f"literal {raw!r} is not a finite number", m.start("number"))
            tokens.append(_Token("imag" if imag else "number", raw, m.start(), value))
        elif m.group("name"):
            name = m.group("name")
            if name == "i":
                tokens.append(_Token("imag", name, m.start(), 1.0))
            else:
                tokens.append(_Token("name", name, m.start()))
        else:
            tokens.append(_Token("op", m.group("op"), m.start()))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def take(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.take()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}, found {tok.text or 'end of input'!r}", tok.position)

    def parse(self) -> EntireFunction:
        value = self.expression()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"trailing input {tok.text!r}", tok.position)
        return value

    def expression(self) -> EntireFunction:
        value = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take().text
            rhs = self.term()
            value = symbols.add(value, rhs if op == "+" else symbols.negate(rhs))
        return value

    def term(self) -> EntireFunction:
        value = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.take()
            rhs = self.unary()
            if op.text == "*":
                value = symbols.mul(value, rhs)
            else:
                divisor = symbols.constant_value(rhs)
                if divisor is None or divisor == 0:
                    raise ParseError("division is allowed by nonzero constants only", op.position)
                value = symbols.scale(value, 1.0 / divisor)
        return value

    def unary(self) -> EntireFunction:
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError(f"expression nests deeper than {_MAX_NESTING} levels",
                             self.peek().position)
        if self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take().text
            value = self.unary()
            value = symbols.negate(value) if op == "-" else value
        else:
            value = self.power()
        self.depth -= 1
        return value

    def power(self) -> EntireFunction:
        base = self.atom()
        while self.peek().kind == "op" and self.peek().text == "^":
            caret = self.take()
            tok = self.take()
            if tok.kind != "number" or int(tok.value) != tok.value or tok.value < 0:
                raise ParseError("exponent must be a nonnegative integer", tok.position)
            n = int(tok.value)
            if n > _MAX_POWER:
                raise ParseError(f"exponent exceeds the cap {_MAX_POWER}", caret.position)
            result = symbols.ONE
            for _ in range(n):
                result = symbols.mul(result, base)
            base = result
        return base

    def atom(self) -> EntireFunction:
        tok = self.take()
        if tok.kind == "number":
            return symbols.constant(tok.value)
        if tok.kind == "imag":
            return symbols.constant(complex(0.0, tok.value))
        if tok.kind == "name":
            if tok.text == "z":
                return symbols.variable()
            if tok.text == "exp":
                self.expect_op("(")
                arg = self.expression()
                self.expect_op(")")
                return _exp_of(arg, tok.position)
            raise ParseError(f"unknown name {tok.text!r}", tok.position)
        if tok.kind == "op" and tok.text == "(":
            value = self.expression()
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected token {tok.text or 'end of input'!r}", tok.position)


def _exp_of(arg: EntireFunction, position: int) -> EntireFunction:
    if arg.is_zero:
        return symbols.ONE
    if len(arg.terms) == 1 and abs(arg.terms[0].rate) <= symbols.TOL_SYM and arg.terms[0].degree <= 1:
        coeffs = arg.terms[0].coeffs
        shift = coeffs[0]
        rate = coeffs[1] if len(coeffs) > 1 else 0j
        try:
            factor = cmath.exp(shift)
        except OverflowError:
            raise ParseError("exp of the argument's constant part overflows", position) from None
        return symbols.exp_term(rate, factor)
    raise ParseError("argument of exp must be a polynomial of degree at most one", position)


def parse_symbol(text: str) -> EntireFunction:
    """Parse an expression in the documented grammar into canonical form."""
    if not text.strip():
        raise ParseError("empty symbol expression", 0)
    return _Parser(text).parse()


def parse_complex(text: str) -> complex:
    """A constant in the same grammar, e.g. ``0.5-1i`` or ``-0.25``."""
    value = symbols.constant_value(parse_symbol(text))
    if value is None:
        raise ParseError("expected a constant expression", 0)
    return value


def parse_affine(text: str) -> symbols.AffineMap:
    """An affine map given as ``a,b`` with complex literals for each part."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError("affine map must be written as 'a,b'", 0)
    return symbols.AffineMap(parse_complex(parts[0]), parse_complex(parts[1]))


def parse_radii(text: str) -> tuple[float, ...]:
    """Comma-separated radii, each a finite nonnegative real, e.g. ``2,4,8``."""
    try:
        radii = tuple(float(part) for part in text.split(","))
    except ValueError:
        radii = (math.nan,)
    if not all(0.0 <= r < math.inf for r in radii):
        raise ParseError(f"radii {text!r} are not finite nonnegative numbers", 0)
    return radii


def _format_real(x: float) -> str:
    return repr(float(x))


def _format_complex(c: complex) -> str:
    sign = "+" if c.imag >= 0 or c.imag != c.imag else "-"
    return f"({_format_real(c.real)}{sign}{_format_real(abs(c.imag))}i)"


def render(f: EntireFunction) -> str:
    """Canonical text for a symbol; parse_symbol(render(f)) reproduces f exactly."""
    if f.is_zero:
        return "0"
    parts = []
    for term in f.terms:
        pieces = []
        for k, c in enumerate(term.coeffs):
            if c == 0:
                continue
            lit = _format_complex(c)
            if k == 0:
                pieces.append(lit)
            elif k == 1:
                pieces.append(f"{lit}*z")
            else:
                pieces.append(f"{lit}*z^{k}")
        poly = " + ".join(pieces)
        if abs(term.rate) > 0.0:
            parts.append(f"({poly}) * exp({_format_complex(term.rate)}*z)")
        else:
            parts.append(f"({poly})")
    return " + ".join(parts)
