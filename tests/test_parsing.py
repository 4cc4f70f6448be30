"""Grammar round-trips, error positions, the error contract and the frozen parse corpus."""

import cmath
import json
import math
import sys
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from focklab import symbols as sy
from focklab.errors import FocklabError, Inadmissible, ParseError
from focklab.parsing import _format_complex, parse_affine, parse_complex, parse_symbol, render
from focklab.fock import kernel
from focklab.sampling import random_entire_function


def test_parse_examples():
    assert parse_symbol("1") == sy.ONE
    f = parse_symbol("exp((0-1i)*z)")
    assert len(f.terms) == 1
    assert f.terms[0].rate == -1j
    g = parse_symbol("z^2*exp(0.5*z) + 3*z")
    assert len(g.terms) == 2
    z = 0.7 - 0.2j
    expected = z**2 * cmath.exp(0.5 * z) + 3 * z
    assert cmath.isclose(sy.evaluate(g, z), expected, rel_tol=1e-12)


def test_grammar_features():
    assert parse_symbol("(1+2i)*z^2*exp((0.5-1i)*z) + 3").terms
    assert parse_symbol("-z + z") == sy.ZERO
    assert sy.constant_value(parse_symbol("6/(2+0i)")) == 3
    assert sy.constant_value(parse_symbol("2i*i")) == -2
    assert parse_symbol("exp(1 + 2*z)").terms[0].rate == 2 + 0j
    assert cmath.isclose(parse_symbol("exp(1 + 2*z)").terms[0].coeffs[0], cmath.exp(1))
    assert parse_symbol(" z ^ 3 ") == sy.monomial(3)


def test_parse_errors_carry_positions():
    for text in ("", "z +", "exp(z^2)", "z^(-1)", "1/0", "q", "z^1.5", "(1", "1 ?"):
        with pytest.raises(ParseError):
            parse_symbol(text)
    try:
        parse_symbol("1 + $")
    except ParseError as exc:
        assert exc.position == 4


def test_render_round_trip_corpus(rng):
    corpus = [sy.ONE, sy.ZERO, sy.variable(), kernel(1 + 2j),
              parse_symbol("(1+2i)*z^2*exp((0.5-1i)*z) + 3")]
    corpus += [random_entire_function(rng) for _ in range(20)]
    for f in corpus:
        again = parse_symbol(render(f))
        assert again.terms == f.terms


_GRAMMAR_TOKENS = ("z", "i", "exp", "(", ")", "+", "-", "*", "/", "^", ",", "0", "1", "2", "0.5",
                   "3i", "64", "65", "1e308", "1e-320", "1e400", "x", " ")


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_GRAMMAR_TOKENS), max_size=12))
@example(["(", "2", "+", "3i", ")", "*", "0.5", "*", "1e308", "+", "1"])  # a modulus overflow
@example(["1e308", "*", "z", "+", "1e308", "*", "z"])  # an overflowing sum
def test_parse_raises_only_grammar_and_admissibility_errors(tokens):
    try:
        f = parse_symbol("".join(tokens))
    except (ParseError, Inadmissible):
        return
    assert isinstance(f, sy.EntireFunction)


def test_parse_affine_and_complex():
    phi = parse_affine("0.5+0.5i,1-1i")
    assert phi.a == 0.5 + 0.5j and phi.b == 1 - 1j
    assert parse_complex("-0.25") == -0.25
    assert parse_complex("2i") == 2j
    with pytest.raises(ParseError):
        parse_affine("1")
    with pytest.raises(ParseError):
        parse_complex("z")
    with pytest.raises(ValueError):
        parse_affine("2,0")


# ------------------------------------------------------- arithmetic oracle
#
# A random expression tree is rendered to text and evaluated a second time
# through the symbol algebra (constant, add, scale, mul, exp_term), with no
# constant folding.  The parse must give the same function bit for bit, or
# raise the same exception with the same message.

_ORACLE_LITERALS = ("0", "0.0", "0.0i", "1", "2", "0.5", "1.5", "0.1", "0.2", "0.3", "i", "3i",
                    "0.5i", "0.1i", "1e300", "1e-300", "1e-320", "1e308", "1e300i", "1e-300i",
                    "1e-320i")
_oracle_literal = st.sampled_from(_ORACLE_LITERALS)
_oracle_leaf = st.one_of(_oracle_literal.map(lambda t: ("lit", t)), st.just(("z",)),
                         st.tuples(st.just("explin"), _oracle_literal, _oracle_literal))
_oracle_tree = st.recursive(_oracle_leaf, lambda kids: st.one_of(
    st.tuples(st.just("neg"), kids),
    st.tuples(st.sampled_from(("+", "-", "*", "/")), kids, kids),
    st.tuples(st.just("^"), kids, st.integers(0, 3)),
    st.tuples(st.just("exp"), kids)), max_leaves=8)


def _oracle_text(node: tuple) -> str:
    kind = node[0]
    if kind == "lit":
        return node[1]
    if kind == "z":
        return "z"
    if kind == "explin":
        return f"exp({node[1]} + {node[2]}*z)"
    if kind == "neg":
        return f"-({_oracle_text(node[1])})"
    if kind == "^":
        return f"({_oracle_text(node[1])})^{node[2]}"
    if kind == "exp":
        return f"exp({_oracle_text(node[1])})"
    return f"({_oracle_text(node[1])} {kind} {_oracle_text(node[2])})"


def _oracle_literal_value(text: str) -> sy.EntireFunction:
    return sy.constant(complex(0.0, float(text[:-1] or 1)) if text.endswith("i") else complex(float(text)))


def _oracle_exp(arg: sy.EntireFunction) -> sy.EntireFunction:
    shift = rate = 0j
    if arg.terms:
        t = arg.terms[0]
        if len(arg.terms) > 1 or abs(t.rate) > sy.TOL_SYM or t.degree > 1:
            raise ParseError("argument of exp must be a polynomial of degree at most one", 0)
        shift, rate = t.coeffs[0], (t.coeffs[1] if t.degree else 0j)
    if shift == 0 and rate == 0:
        return sy.ONE
    try:
        factor = cmath.exp(shift)
    except OverflowError:
        raise ParseError("exp of the argument's constant part overflows", 0) from None
    return sy.constant(factor) if rate == 0 else sy.exp_term(rate, factor)


def _oracle_value(node: tuple) -> sy.EntireFunction:
    kind = node[0]
    if kind == "lit":
        return _oracle_literal_value(node[1])
    if kind == "z":
        return sy.variable()
    if kind == "explin":
        b_z = sy.mul(_oracle_literal_value(node[2]), sy.variable())
        return _oracle_exp(sy.add(_oracle_literal_value(node[1]), b_z))
    if kind == "neg":
        return sy.scale(_oracle_value(node[1]), -1.0)
    if kind == "^":
        base, power = _oracle_value(node[1]), sy.ONE
        for _ in range(node[2]):
            power = sy.mul(power, base)
        return power
    if kind == "exp":
        return _oracle_exp(_oracle_value(node[1]))
    left, right = _oracle_value(node[1]), _oracle_value(node[2])
    if kind == "+":
        return sy.add(left, right)
    if kind == "-":
        return sy.add(left, sy.scale(right, -1.0))
    if kind == "*":
        return sy.mul(left, right)
    divisor = sy.constant_value(right)
    if divisor is None or divisor == 0:
        raise ParseError("division is allowed by nonzero constants only", 0)
    return sy.scale(left, 1.0 / divisor)


def _oracle_outcome(evaluate: Callable[[], sy.EntireFunction]) -> tuple:
    """The function's terms as float.hex, or the exception's type and message
    (a ParseError's without its position, which the oracle does not track)."""
    try:
        f = evaluate()
    except (FocklabError, ArithmeticError) as exc:
        message = str(exc).rpartition(" (at position ")[0] if isinstance(exc, ParseError) else str(exc)
        return type(exc).__name__, message
    return tuple((tuple(_hex(c) for c in t.coeffs), _hex(t.rate)) for t in f.terms)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_oracle_tree)
@example(("^", ("-", ("neg", ("lit", "0.0")), ("lit", "i")), 1))  # (-0.0-1i)^1
@example(("*", ("neg", ("lit", "0.0")), ("^", ("z",), 1)))
@example(("+", ("lit", "0"), ("neg", ("lit", "i"))))  # a signed zero that a sum with 0 keeps
@example(("-", ("+", ("lit", "0.1"), ("lit", "0.2")), ("lit", "0.3")))  # rounding noise
@example(("*", ("/", ("lit", "1e300"), ("lit", "1e-300")), ("lit", "0")))  # an overflow then 0
@example(("/", ("z",), ("*", ("lit", "1e-320"), ("lit", "1e-300"))))  # a divisor that underflows
@example(("+", ("*", ("lit", "1e308"), ("z",)), ("*", ("lit", "1e308"), ("z",))))
def test_parse_arithmetic_matches_the_symbol_algebra(tree):
    text = _oracle_text(tree)
    assert _oracle_outcome(lambda: parse_symbol(text)) == _oracle_outcome(lambda: _oracle_value(tree)), text


# ------------------------------------------------------------ frozen corpus
#
# ``data/parse_frozen.json`` holds, for a fixed set of symbol and map texts,
# the exact parse result: every coefficient and rate as float.hex, or the
# exception's type, message and position.  Parsing must reproduce it bit for
# bit.  A change that alters a parse on purpose regenerates the file with
#
#     PYTHONPATH=src python tests/test_parsing.py
#
# and lists every changed row in CHANGES.md.

FROZEN = Path(__file__).parent / "data" / "parse_frozen.json"
GOLDEN = Path(__file__).parent / "data" / "reports_golden.json"
SEED = 5516

EDGE_TEXTS = [
    "(1.0-0.0i)", "-0.0", "-(0.0-0.0i)", "(0.1+0.2)-(0.3)", "i^3", "2^64", "1/1e-320",
    "1e300*1e300*0", "1e-320/1e300", "exp(1000-1000)", "z/z", "-" * 70 + "1",
    "-" * 64 + "1", "-" * 63 + "z", "0^0", "z^0", "(1+i)^64", "(1+i)^65", "2^-1", "z^1.5",
    "1/(1e-320i)", "0/1e-320", "6/exp(1e-13*z)", "exp(800)*0", "exp(-800)", "exp(z-z)",
    "exp(1+2*z)/2", "z-z+1", "(z+1)*(z-1)-z^2", "1e-320*1e-300*z", "exp(1e308*z)*exp(1e308*z)",
    "(0.5+0.5i)*(0.5-0.5i)", "3i*i", "-(-(-z))", "+-+z", "1 + $", "z +", "exp(z^2)", "q",
    "(1", "1 ?", "", "   ", "1e400", "2i2", "z z", "exp z", "exp()", ")", "1,2",
    # sums and products past the float range
    "1e308*z + 1e308*z", "1e308+1e308", "1e308*z+1e308i*z", "(1e308+1e308i)",
    "(1e308+1e308i)*z", "(2+3i)*0.5*1e308", "(2+3i)*0.5*1e308+1", "exp((2+3i)*0.5*1e308*z)",
    "1e308*z - 1e308*z", "1.5e308*z - 1e308*z", "1e300*1e300*z",
    # nesting through parentheses and exp( at the 64-level limit and one level past it
    "(" * 63 + "z" + ")" * 63, "(" * 64 + "z" + ")" * 64,
    "exp(0*" * 63 + "1" + ")" * 63, "exp(0*" * 64 + "1" + ")" * 64,
    "exp(" * 63 + "0" + ")" * 63, "exp(" * 64 + "0" + ")" * 64,
    "-(" * 31 + "z" + ")" * 31, "-(" * 32 + "z" + ")" * 32,
    "exp(-" * 31 + "1" + ")" * 31, "exp(-" * 32 + "1" + ")" * 32,
    "(exp(" * 31 + "0*z" + "))" * 31, "(exp(" * 32 + "0*z" + "))" * 32,
    # signed zeros through powers and products
    "(-0.0-1i)^1", "(-0.0-1i)*z^1", "(-0.0-1i)^2", "(-0.0-0.0i)^1", "(-0.0-1i)^1*exp(z)",
    "z^1*(-0.0-1i)", "(-0.0-1i)*exp((-0.0-1i)*z)^1", "(0.0-1i)^1-(0.0-1i)^1", "-z^1*(-0.0+1i)^3",
    # an overflow that a later product by zero or a later underflow must not hide
    "(1e308*z + 1e308*z)*0", "(1e308*z)/1e-300*0", "(1e308*z)*(1e308*z)*0", "(z + 1e308*exp(z))*10*0",
    "exp(1e308*z)*exp(1e308*z)*0", "(1e-320*z^2 + z)/1e300", "-(1e-320*z)/1e300 + 1",
]

MAP_EDGES = [
    "0,0", "-0,-0", "1,0", "-1,0", "1i,1", "1.0000000001,0", "1.0000000000001,0", "2,0", "1",
    "1,2,3", "z,0", "0.5+0.5i,1-1i", "(0.5+0.5i),(1-1i)", "1e400,0", "exp(1e-13*z),1",
    "0.5,1e200", "(2+3i)*0.5*1e308,0", "0.5,(2+3i)*0.5*1e308", " 0.5 , 1 ", ",", "0.5,",
]


def _corpus(rng: np.random.Generator) -> tuple[list[str], list[str]]:
    """Symbol and map texts: benchmark-shaped weights and maps, the golden
    report inputs, random renders, random token strings and the edge cases."""

    def literal(radius: float) -> str:
        """A complex literal drawn uniformly from the square of half-side radius."""
        return _format_complex(complex(*rng.uniform(-radius, radius, 2)))

    def poly_exp() -> str:
        degree = int(rng.integers(0, 3))
        poly = " + ".join(literal(1.2) if k == 0 else f"{literal(1.2)}*z^{k}" for k in range(degree + 1))
        return f"({poly})*exp({literal(0.8)}*z)"

    def weyl() -> str:
        a = complex(*rng.uniform(-1.2, 1.2, 2))
        scale, n = math.exp(-abs(a) ** 2 / 2.0), int(rng.integers(0, 13))
        return f"{scale!r}*exp({_format_complex(a.conjugate())}*z)*(z-{_format_complex(a)})^{n}"

    texts = [" + ".join(poly_exp() for _ in range(1 + k % 4)) for k in range(120)]
    texts += [f"{literal(1.5)}*exp({literal(0.8)}*z)" for _ in range(20)]
    texts += [f"{literal(1.5)}*exp({literal(0.8)}*z) + {literal(1.0)}*z" for _ in range(10)]
    texts += [weyl() for _ in range(40)]
    texts += [render(random_entire_function(rng)) for _ in range(30)]
    texts += ["".join(rng.choice(_GRAMMAR_TOKENS, size=int(rng.integers(1, 13)))) for _ in range(30)]
    maps = [f"{literal(0.6)},{literal(0.8)}" for _ in range(30)]
    maps += [f"{_format_complex(cmath.exp(1j * rng.uniform(0, 2 * math.pi)))},{literal(0.8)}"
             for _ in range(10)]
    maps += [f"0,{literal(1.0)}" for _ in range(5)]
    for case in json.loads(GOLDEN.read_text()):
        options = case["options"]
        texts += [options[k] for k in ("symbol", "psi", "psi1", "psi2") if k in options]
        maps += [options[k] for k in ("phi", "phi1", "phi2") if k in options]
    return texts + EDGE_TEXTS, maps + MAP_EDGES


def _hex(c: complex) -> list[str]:
    return [c.real.hex(), c.imag.hex()]


def _outcome(read: Callable, text: str) -> dict:
    try:
        value = read(text)
    except (FocklabError, ArithmeticError) as exc:
        return {"text": text, "error": [type(exc).__name__, str(exc), getattr(exc, "position", None)]}
    if isinstance(value, sy.AffineMap):
        return {"text": text, "map": [_hex(value.a), _hex(value.b)]}
    return {"text": text, "terms": [[[_hex(c) for c in t.coeffs], _hex(t.rate)] for t in value.terms]}


def _generate() -> dict:
    texts, maps = _corpus(np.random.default_rng(SEED))
    return {"symbols": [_outcome(parse_symbol, t) for t in texts],
            "maps": [_outcome(parse_affine, t) for t in maps]}


def _dumps(frozen: dict) -> str:
    """The frozen file's text: one line per row, so a diff shows one line per text."""
    blocks = (f'"{key}": [\n' + ",\n".join(json.dumps(row, separators=(",", ":")) for row in rows)
              + "\n]" for key, rows in frozen.items())
    return "{" + ",\n".join(blocks) + "}\n"


@pytest.mark.parametrize("kind, read", [("symbols", parse_symbol), ("maps", parse_affine)])
def test_parse_matches_frozen_corpus(kind, read):
    rows = json.loads(FROZEN.read_text())[kind]
    assert len(rows) > 50
    changed = [row for row in rows if _outcome(read, row["text"]) != row]
    assert not changed, changed[:3]


if __name__ == "__main__":
    FROZEN.write_text(_dumps(_generate()))
    sys.exit(0)
