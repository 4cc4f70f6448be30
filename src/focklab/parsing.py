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
``symbols.add``, ``scale`` and ``mul`` apply to constant symbols.  One that
depends on ``z`` is a tuple of canonical ``PolyExpTerm``, combined by the
term helpers that those three functions wrap, so the parser and the symbol
class share one canonical rule and one check per term.  The
``EntireFunction`` wraps the final value.
"""

from __future__ import annotations

import cmath
import math
import re

from . import symbols
from .errors import ParseError
from .symbols import EntireFunction, PolyExpTerm

# the alternatives are disjoint; operators, the commonest, are tried first
_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<op>[-+*/^()])"
    r"|(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?i?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<bad>\S)"
    r")"
)

_MAX_POWER = 64
# parentheses, exp( and unary signs nest by recursion; the bound keeps the
# recursion far inside the interpreter's stack limit
_MAX_NESTING = 64

# a token is (kind, text, position, value) with kind number | imag | name | op | end
_Token = tuple[str, str, int, float]
# complex while free of z, else a tuple of canonical terms
_Value = complex | tuple[PolyExpTerm, ...]
_VARIABLE = (PolyExpTerm((0j, 1 + 0j), 0j),)
_ONE = (PolyExpTerm((1 + 0j,), 0j),)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN.finditer(text):
        # group 1 op, 2 number, 3 name, 4 bad; a token's position includes
        # the whitespace before it, an error's does not
        group = m.lastindex
        if group == 1:
            tokens.append(("op", m[1], m.start(), 0.0))
        elif group == 2:
            token = m[2]
            imag = token[-1] == "i"
            value = float(token[:-1] if imag else token)
            if not math.isfinite(value):
                raise ParseError(f"literal {token!r} is not a finite number", m.start(2))
            tokens.append(("imag" if imag else "number", token, m.start(), value))
        elif group == 3:
            token = m[3]
            tokens.append(("imag", token, m.start(), 1.0) if token == "i" else ("name", token, m.start(), 0.0))
        else:
            raise ParseError(f"unexpected character {m[4]!r}", m.start(4))
    tokens.append(("end", "", len(text), 0.0))
    return tokens


def _lift(v: _Value) -> tuple[PolyExpTerm, ...]:
    if not isinstance(v, complex):
        return v
    return (PolyExpTerm((v,), 0j),) if v else ()


def _add(f: _Value, g: _Value) -> _Value:
    if not (isinstance(f, complex) and isinstance(g, complex)):
        return symbols._canonical(_lift(f) + _lift(g))
    if f == 0 or g == 0:
        return g if f == 0 else f
    s = f + g
    return 0j if symbols._is_noise(s, abs(f) + abs(g), 2) else symbols._check_finite(s, "coefficient")


def _scale(f: _Value, c: complex) -> _Value:
    c = symbols._check_finite(c, "scalar")
    if not isinstance(f, complex):
        return symbols._scale(f, c)
    return 0j if c == 0 or f == 0 else symbols._check_finite(c * f, "coefficient")


def _mul(f: _Value, g: _Value) -> _Value:
    if not (isinstance(f, complex) and isinstance(g, complex)):
        return symbols._mul(_lift(f), _lift(g))
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
        value = self.factor()
        while self.tokens[self.index][1] in ("*", "/"):
            _, op, position, _ = self.take()
            rhs = self.factor()
            if op == "*":
                value = _mul(value, rhs)
            else:
                divisor = rhs if isinstance(rhs, complex) else symbols._constant_value(rhs)
                if divisor is None or divisor == 0:
                    raise ParseError("division is allowed by nonzero constants only", position)
                value = _scale(value, 1.0 / divisor)
        return value

    def factor(self) -> _Value:
        """A signed factor, an atom with its powers; one nesting level each."""
        self.depth += 1
        kind, text, position, value = self.tokens[self.index]
        self.index += 1
        if self.depth > _MAX_NESTING:
            raise ParseError(f"expression nests deeper than {_MAX_NESTING} levels", position)
        if kind == "op" and text in ("+", "-"):
            value = self.factor()
            self.depth -= 1
            return _scale(value, -1.0) if text == "-" else value
        if kind == "number":
            base = complex(value)
        elif kind == "imag":
            base = complex(0.0, value)
        elif text == "z" and kind == "name":
            base = _VARIABLE
        elif text == "exp" and kind == "name":
            self.expect_op("(")
            arg = self.expression()
            self.expect_op(")")
            base = _exp_of(arg, position)
        elif kind == "name":
            raise ParseError(f"unknown name {text!r}", position)
        elif text == "(":
            base = self.expression()
            self.expect_op(")")
        else:
            raise ParseError(f"unexpected token {text or 'end of input'!r}", position)
        while self.tokens[self.index][1] == "^":
            caret = self.take()[2]
            kind, _, position, exponent = self.take()
            if kind != "number" or int(exponent) != exponent or exponent < 0:
                raise ParseError("exponent must be a nonnegative integer", position)
            n = int(exponent)
            if n > _MAX_POWER:
                raise ParseError(f"exponent exceeds the cap {_MAX_POWER}", caret)
            result = 1 + 0j if isinstance(base, complex) else _ONE
            for _ in range(n):
                result = _mul(result, base)
            base = result
        self.depth -= 1
        return base


def _exp_of(arg: _Value, position: int) -> _Value:
    shift, rate = (arg if isinstance(arg, complex) else 0j), 0j
    if not isinstance(arg, complex) and arg:
        coeffs, t_rate = arg[0]
        if len(arg) > 1 or abs(t_rate) > symbols.TOL_SYM or len(coeffs) > 2:
            raise ParseError("argument of exp must be a polynomial of degree at most one", position)
        shift, rate = coeffs[0], (coeffs[1] if len(coeffs) > 1 else 0j)
    if shift == 0 and rate == 0:
        return 1 + 0j
    try:
        factor = cmath.exp(shift)
    except OverflowError:
        raise ParseError("exp of the argument's constant part overflows", position) from None
    return factor if rate == 0 else symbols._canonical((symbols._term((factor,), rate),))


def _parse(text: str) -> _Value:
    if not text.strip():
        raise ParseError("empty symbol expression", 0)
    return _Parser(text).parse()


def parse_symbol(text: str) -> EntireFunction:
    """Parse an expression in the documented grammar into canonical form."""
    value = _parse(text)
    return symbols.constant(value) if isinstance(value, complex) else symbols._from_terms(value)


def parse_complex(text: str) -> complex:
    """A constant in the same grammar, e.g. ``0.5-1i`` or ``-0.25``."""
    value = _parse(text)
    value = value if isinstance(value, complex) else symbols._constant_value(value)
    if value is None:
        raise ParseError("expected a constant expression", 0)
    return value or 0j


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


def _format_complex(c: complex) -> str:
    sign = "+" if c.imag >= 0 or c.imag != c.imag else "-"
    return f"({c.real!r}{sign}{abs(c.imag)!r}i)"


def render(f: EntireFunction) -> str:
    """Canonical text for a symbol; parse_symbol(render(f)) reproduces f exactly."""
    parts = []
    for term in f.terms:
        poly = " + ".join(_format_complex(c) + ("" if k == 0 else "*z" if k == 1 else f"*z^{k}")
                          for k, c in enumerate(term.coeffs) if c != 0)
        parts.append(f"({poly}) * exp({_format_complex(term.rate)}*z)" if abs(term.rate) > 0.0 else f"({poly})")
    return " + ".join(parts) or "0"
