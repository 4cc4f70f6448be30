"""Text grammar for symbols.

Expressions are sums of products of complex literals, powers of ``z`` and
``exp(<linear in z>)``, e.g. ``(1+2i)*z^2*exp((0.5-1i)*z) + 3``.  The
imaginary unit is written ``i`` or as a numeric suffix (``2i``, ``1.5i``).
Division is allowed by (nonzero) constants only, exponents must be small
nonnegative integers, and the argument of ``exp`` must be a polynomial of
degree at most one, so that every well-formed expression lands inside the
poly-exp symbol class.  ``render`` writes a canonical form that parses back
to the identical function.

A subexpression free of ``z`` folds to a plain ``complex`` (``0j`` for the
zero function) by the same float operations and admissibility checks that
``symbols.add``, ``scale`` and ``mul`` apply to constant symbols; it becomes
a symbol only where it meets one that depends on ``z``, or at the end.
"""

from __future__ import annotations

import cmath
import math
import re

from . import symbols
from .errors import ParseError
from .symbols import EntireFunction

_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?i?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>\S)"
    r")"
)

_MAX_POWER = 64
# parentheses, exp( and unary signs nest by recursion; the bound keeps the
# recursion far inside the interpreter's stack limit
_MAX_NESTING = 64

# a token is (kind, text, position, value) with kind number | imag | name | op | end
_Token = tuple[str, str, int, float]
_Value = complex | EntireFunction  # complex while free of z


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, token = m.lastgroup, m.group(m.lastgroup)
        if kind == "bad":
            raise ParseError(f"unexpected character {token!r}", m.start(kind))
        if kind == "number":
            imag = token.endswith("i")
            value = float(token[:-1] if imag else token)
            if not math.isfinite(value):
                raise ParseError(f"literal {token!r} is not a finite number", m.start(kind))
            tokens.append(("imag" if imag else "number", token, m.start(), value))
        elif token == "i":
            tokens.append(("imag", token, m.start(), 1.0))
        else:
            tokens.append((kind, token, m.start(), 0.0))
    tokens.append(("end", "", len(text), 0.0))
    return tokens


def _lift(v: _Value) -> EntireFunction:
    return symbols.constant(v) if isinstance(v, complex) else v


def _add(f: _Value, g: _Value) -> _Value:
    if not (isinstance(f, complex) and isinstance(g, complex)):
        return symbols.add(_lift(f), _lift(g))
    if f == 0 or g == 0:
        return g if f == 0 else f
    # symbols._canonical's merge: a sum within the rounding error of its
    # summands' moduli is zero, unless that bound overflows
    moduli, s = abs(f) + abs(g), f + g
    if moduli < math.inf and abs(s) <= symbols._EPS * moduli:
        return 0j
    return symbols._check_finite(s, "coefficient")


def _scale(f: _Value, c: complex) -> _Value:
    c = symbols._check_finite(c, "scalar")
    if not isinstance(f, complex):
        return symbols.scale(f, c)
    return 0j if c == 0 or f == 0 else symbols._check_finite(c * f, "coefficient")


def _mul(f: _Value, g: _Value) -> _Value:
    if not (isinstance(f, complex) and isinstance(g, complex)):
        return symbols.mul(_lift(f), _lift(g))
    return 0j if f == 0 or g == 0 else symbols._check_finite(0j + f * g, "coefficient")


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    def take(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, position, _ = self.take()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}, found {text or 'end of input'!r}", position)

    def parse(self) -> _Value:
        value = self.expression()
        kind, text, position, _ = self.tokens[self.index]
        if kind != "end":
            raise ParseError(f"trailing input {text!r}", position)
        return value

    def expression(self) -> _Value:
        value = self.term()
        # only op tokens have the text of an operator
        while self.tokens[self.index][1] in ("+", "-"):
            op = self.take()[1]
            rhs = self.term()
            value = _add(value, rhs if op == "+" else _scale(rhs, -1.0))
        return value

    def term(self) -> _Value:
        value = self.unary()
        while self.tokens[self.index][1] in ("*", "/"):
            _, op, position, _ = self.take()
            rhs = self.unary()
            if op == "*":
                value = _mul(value, rhs)
            else:
                divisor = rhs if isinstance(rhs, complex) else symbols.constant_value(rhs)
                if divisor is None or divisor == 0:
                    raise ParseError("division is allowed by nonzero constants only", position)
                value = _scale(value, 1.0 / divisor)
        return value

    def unary(self) -> _Value:
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError(f"expression nests deeper than {_MAX_NESTING} levels",
                             self.tokens[self.index][2])
        if self.tokens[self.index][1] in ("+", "-"):
            op = self.take()[1]
            value = self.unary()
            value = _scale(value, -1.0) if op == "-" else value
        else:
            value = self.power()
        self.depth -= 1
        return value

    def power(self) -> _Value:
        base = self.atom()
        while self.tokens[self.index][1] == "^":
            caret = self.take()[2]
            kind, _, position, exponent = self.take()
            if kind != "number" or int(exponent) != exponent or exponent < 0:
                raise ParseError("exponent must be a nonnegative integer", position)
            n = int(exponent)
            if n > _MAX_POWER:
                raise ParseError(f"exponent exceeds the cap {_MAX_POWER}", caret)
            result = 1 + 0j if isinstance(base, complex) else symbols.ONE
            for _ in range(n):
                result = _mul(result, base)
            base = result
        return base

    def atom(self) -> _Value:
        kind, text, position, value = self.take()
        if kind == "number":
            return complex(value)
        if kind == "imag":
            return complex(0.0, value)
        if kind == "name":
            if text == "z":
                return symbols.variable()
            if text == "exp":
                self.expect_op("(")
                arg = self.expression()
                self.expect_op(")")
                return _exp_of(arg, position)
            raise ParseError(f"unknown name {text!r}", position)
        if text == "(":
            value = self.expression()
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected token {text or 'end of input'!r}", position)


def _exp_of(arg: _Value, position: int) -> _Value:
    shift, rate = (arg if isinstance(arg, complex) else 0j), 0j
    if not isinstance(arg, complex) and arg.terms:
        t = arg.terms[0]
        if len(arg.terms) > 1 or abs(t.rate) > symbols.TOL_SYM or t.degree > 1:
            raise ParseError("argument of exp must be a polynomial of degree at most one", position)
        shift, rate = t.coeffs[0], (t.coeffs[1] if t.degree else 0j)
    if shift == 0 and rate == 0:
        return 1 + 0j
    try:
        factor = cmath.exp(shift)
    except OverflowError:
        raise ParseError("exp of the argument's constant part overflows", position) from None
    return factor if rate == 0 else symbols.exp_term(rate, factor)


def _parse(text: str) -> _Value:
    if not text.strip():
        raise ParseError("empty symbol expression", 0)
    return _Parser(text).parse()


def parse_symbol(text: str) -> EntireFunction:
    """Parse an expression in the documented grammar into canonical form."""
    return _lift(_parse(text))


def parse_complex(text: str) -> complex:
    """A constant in the same grammar, e.g. ``0.5-1i`` or ``-0.25``."""
    value = _parse(text)
    value = (value or 0j) if isinstance(value, complex) else symbols.constant_value(value)
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
