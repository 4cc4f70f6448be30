"""Exact arithmetic for entire functions of the form sum_i P_i(z) exp(c_i z).

This class (finite sums of polynomial-times-exponential-of-linear terms) is
the smallest one that contains the constants, the monomials and every
normalized kernel function, and is closed under addition, multiplication,
differentiation and composition with affine maps z -> a z + b.  Crucially,
the admissible weights for unit-modulus affine symbols, c * exp(-conj(b) a z),
are exactly representable, so boundedness and connectivity decisions can be
made symbolically instead of by sampling.

Canonical form: terms sorted by rate, rates pairwise distinct (merged within
``TOL_SYM``), each polynomial stored with ascending coefficients and a
nonzero leading coefficient.  The zero function is the empty term tuple.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import Inadmissible, NumericFailure

TOL_SYM = 1e-12

_LOG_OVERFLOW = 709.0
# twice the unit roundoff: a sum of n + 1 terms errs by less than n * _EPS times
# the sum of their moduli
_EPS = 2.0**-52
# np.roots returns an m-fold root as a cluster of width about eps^{1/m}; roots
# this close, relatively, are one root
_ROOT_CLUSTER = 1e-4
# zeros of several terms: Newton's method from the local minima of log|f| on
# a square grid of _ZERO_GRID cells a side, checked against the argument
# principle on at most _WINDING_MAX_NODES points of the circle
_ZERO_GRID = 64
_ZERO_GRID_MAX = 512
_NEWTON_STEPS = 60
_WINDING_MAX_NODES = 1 << 16


def _finite_moduli(values: Iterable[complex]) -> bool:
    """Whether every value has finite parts and a modulus inside the float range."""
    try:
        return all(map(math.isfinite, map(abs, values)))
    except OverflowError:  # finite parts whose modulus overflows
        return False


def _check_finite(w: complex, what: str) -> complex:
    w = complex(w)
    if not _finite_moduli((w,)):
        need = "a modulus inside the float range" if cmath.isfinite(w) else "finite real and imaginary parts"
        raise Inadmissible(f"{what} must have {need}, got {w!r}")
    return w


def _cexp(w: complex) -> complex:
    # exp with overflow reported as directional infinity instead of OverflowError
    if w.real > _LOG_OVERFLOW:
        c, s = math.cos(w.imag), math.sin(w.imag)
        return complex(math.inf * c if c else 0.0, math.inf * s if s else 0.0)
    return cmath.exp(w)


def square(x: float) -> float:
    """x ** 2, reading an overflow as inf instead of raising OverflowError."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def safe_exp(x: float) -> float:
    """exp(x), reading an overflow as inf instead of raising OverflowError."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _poly_add(p: list[complex], q: list[complex]) -> list[complex]:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for k, c in enumerate(q):
        out[k] += c
    return out


def _poly_mul(p: Sequence[complex], q: Sequence[complex]) -> list[complex]:
    out = [0j] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_horner(coeffs: Sequence[complex], z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


@dataclass(frozen=True)
class PolyExpTerm:
    """One term P(z) * exp(rate * z), coefficients ascending in degree."""

    coeffs: tuple[complex, ...]
    rate: complex

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("PolyExpTerm needs at least one coefficient")
        coeffs, rate = tuple(map(complex, self.coeffs)), complex(self.rate)
        if not _finite_moduli((*coeffs, rate)):  # name the offending value
            coeffs = tuple(_check_finite(c, "coefficient") for c in coeffs)
            rate = _check_finite(rate, "rate")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "rate", rate)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def _canonical(terms: Sequence[PolyExpTerm]) -> tuple[PolyExpTerm, ...]:
    if len(terms) == 1 and terms[0].coeffs[-1] != 0:
        return tuple(terms)
    items: list[tuple[complex, list[complex]]] = []
    for t in terms:
        items.append((t.rate, list(t.coeffs)))
    items.sort(key=lambda it: (it[0].real, it[0].imag))

    # per merged rate: coefficients, the sums of the summands' moduli, and
    # the number of summands
    merged: list[tuple[complex, list[complex], list[float], int]] = []
    for rate, coeffs in items:
        moduli = [abs(c) for c in coeffs]
        try:
            same = merged and (abs(rate - merged[-1][0])
                               <= TOL_SYM * max(1.0, abs(rate), abs(merged[-1][0])))
        except OverflowError:  # the rates lie farther apart than the float range
            same = False
        if same:
            first, acc, acc_moduli, count = merged[-1]
            merged[-1] = (first, _poly_add(acc, coeffs), _poly_add(acc_moduli, moduli), count + 1)
        else:
            merged.append((rate, coeffs, moduli, 1))

    # a trailing coefficient goes only when it is zero or within the
    # rounding error of the sum that merged it: z^k carries norm about
    # sqrt(k!), so a small top coefficient can hold much of the norm.  Summed
    # moduli past the float range bound nothing; PolyExpTerm checks the sum
    out = []
    for rate, coeffs, moduli, count in merged:
        noise = (count - 1) * _EPS
        k = len(coeffs)
        while k > 0 and (coeffs[k - 1] == 0 or moduli[k - 1] < math.inf
                         and abs(coeffs[k - 1]) <= noise * moduli[k - 1]):
            k -= 1
        if k:
            out.append(PolyExpTerm(tuple(coeffs[:k]), rate))
    return tuple(out)


@dataclass(frozen=True)
class EntireFunction:
    """Canonical finite sum of PolyExpTerm; the zero function has no terms."""

    terms: tuple[PolyExpTerm, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "terms", _canonical(self.terms))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Largest polynomial degree across terms (0 for the zero function)."""
        return max((t.degree for t in self.terms), default=0)

    @property
    def max_rate(self) -> float:
        return max((abs(t.rate) for t in self.terms), default=0.0)

    def __call__(self, z: complex) -> complex:
        return evaluate(self, z)


ZERO = EntireFunction()
ONE = EntireFunction((PolyExpTerm((1 + 0j,), 0j),))


def constant(c: complex) -> EntireFunction:
    c = complex(c)
    if c == 0:
        return ZERO
    return EntireFunction((PolyExpTerm((c,), 0j),))


def monomial(n: int, coefficient: complex = 1.0) -> EntireFunction:
    if n < 0:
        raise ValueError("monomial degree must be nonnegative")
    coeffs = (0j,) * n + (complex(coefficient),)
    return EntireFunction((PolyExpTerm(coeffs, 0j),))


def variable() -> EntireFunction:
    return monomial(1)


def exp_term(rate: complex, coefficient: complex = 1.0) -> EntireFunction:
    """coefficient * exp(rate * z)."""
    return EntireFunction((PolyExpTerm((complex(coefficient),), complex(rate)),))


def add(f: EntireFunction, g: EntireFunction) -> EntireFunction:
    return EntireFunction(f.terms + g.terms)


def scale(f: EntireFunction, c: complex) -> EntireFunction:
    c = _check_finite(c, "scalar")
    if c == 0:
        return ZERO
    return EntireFunction(tuple(PolyExpTerm(tuple(c * a for a in t.coeffs), t.rate) for t in f.terms))


def negate(f: EntireFunction) -> EntireFunction:
    return scale(f, -1.0)


def sub(f: EntireFunction, g: EntireFunction) -> EntireFunction:
    return add(f, negate(g))


def mul(f: EntireFunction, g: EntireFunction) -> EntireFunction:
    terms = []
    for s in f.terms:
        for t in g.terms:
            terms.append(PolyExpTerm(tuple(_poly_mul(s.coeffs, t.coeffs)), s.rate + t.rate))
    return EntireFunction(tuple(terms))


def differentiate(f: EntireFunction) -> EntireFunction:
    # P exp(cz) -> (P' + cP) exp(cz); f is admissible, so a coefficient past
    # the float range is the arithmetic's overflow
    terms = []
    for t in f.terms:
        n = len(t.coeffs)
        coeffs = []
        for k in range(n):
            val = t.rate * t.coeffs[k]
            if k + 1 < n:
                val += (k + 1) * t.coeffs[k + 1]
            coeffs.append(val)
        if not _finite_moduli(coeffs):
            raise NumericFailure("f' has a coefficient beyond the float range")
        terms.append(PolyExpTerm(tuple(coeffs), t.rate))
    return EntireFunction(tuple(terms))


def evaluate(f: EntireFunction, z: complex) -> complex:
    """Pointwise value by Horner evaluation per term; may overflow to inf."""
    z = complex(z)
    total = 0j
    for t in f.terms:
        total += _poly_horner(t.coeffs, z) * _cexp(t.rate * z)
    return total


def _scaled_values(f: EntireFunction, zs: np.ndarray,
                   m: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(m, acc) with f(zs) = e^m acc, m the largest Re(rate z) unless given."""
    exponents = [t.rate * zs for t in f.terms]
    if m is None:
        m = exponents[0].real
        for e in exponents[1:]:
            m = np.maximum(m, e.real)
    acc = np.zeros(zs.shape, dtype=complex)
    for t, e in zip(f.terms, exponents):
        poly = np.polynomial.polynomial.polyval(zs, np.asarray(t.coeffs))
        acc += poly * np.exp((e.real - m) + 1j * e.imag)
    return m, acc


def log_abs_grid(f: EntireFunction, zs: np.ndarray) -> np.ndarray:
    """Vectorized log |f| on an array of complex points."""
    zs = np.asarray(zs, dtype=complex)
    if not f.terms:
        return np.full(zs.shape, -np.inf)
    if len(f.terms) == 1:  # log|P(z)| + Re(cz): no exponential, an overflow reads +-inf
        (t,) = f.terms
        poly = abs(t.coeffs[0]) if t.degree == 0 else np.abs(
            np.polynomial.polynomial.polyval(zs, np.asarray(t.coeffs)))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            re = t.rate.real * zs.real - t.rate.imag * zs.imag
            lost = np.isnan(re)
            if lost.any():  # inf - inf: take Re(cz) from c / 2^e, whose products stay finite
                e = math.frexp(max(abs(t.rate.real), abs(t.rate.imag)))[1]
                w = zs[lost]
                re[lost] = np.ldexp(math.ldexp(t.rate.real, -e) * w.real
                                    - math.ldexp(t.rate.imag, -e) * w.imag, e)
            return re + np.log(poly)
    m, acc = _scaled_values(f, zs)
    with np.errstate(divide="ignore"):
        return m + np.log(np.abs(acc))


def _winding_number(f: EntireFunction, radius: float) -> int | None:
    """The number of zeros of f in |z| < radius (argument principle), or None
    where the argument of f turns too fast on the circle to be followed."""
    n = 1 << max(6, math.ceil(math.log2(16.0 * (1.0 + f.degree + f.max_rate * radius))))
    while n <= _WINDING_MAX_NODES:
        zs = radius * np.exp(2j * np.pi * np.arange(n + 1) / n)
        _, acc = _scaled_values(f, zs)
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero on the circle
            turns = np.angle(acc[1:] / acc[:-1])
        if np.all(np.abs(turns) < np.pi / 2.0):
            return round(float(np.sum(turns)) / (2.0 * np.pi))
        n *= 2
    return None


def _newton_zeros(f: EntireFunction, radius: float, cells: int) -> list[complex]:
    """Zeros reached by Newton's method from the local minima of log|f| on a
    square grid of cells x cells over the disc, each once."""
    h = 2.0 * radius / cells
    axis = np.linspace(-radius - h, radius + h, cells + 3)
    grid = axis[None, :] + 1j * axis[:, None]
    logs = log_abs_grid(f, grid)
    centre = logs[1:-1, 1:-1]
    lowest = np.ones(centre.shape, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                lowest &= centre <= logs[1 + di:logs.shape[0] - 1 + di, 1 + dj:logs.shape[1] - 1 + dj]
    zs = grid[1:-1, 1:-1][lowest]
    df = differentiate(f)
    converged = np.zeros(zs.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_STEPS):
            m, acc = _scaled_values(f, zs)
            _, dacc = _scaled_values(df, zs, m)
            step = acc / dacc
            zs = zs - step
            converged = np.abs(step) <= 1e-14 * np.maximum(1.0, np.abs(zs))
            if converged.all():
                break
    found: list[complex] = []
    for z in zs[converged & np.isfinite(zs)]:
        if all(abs(z - w) > 1e-8 * max(1.0, abs(w)) for w in found):
            found.append(complex(z))
    return found


def zeros(f: EntireFunction, radius: float) -> list[tuple[complex, int]] | None:
    """The zeros of f in |z| < radius with their multiplicities, or None where
    they cannot be certified.

    A single term P(z) e^{cz} vanishes exactly at the roots of P; np.roots
    returns an m-fold root as a cluster of width about eps^{1/m}, which is
    merged back into one point of multiplicity m.  For several terms the
    zeros are Newton's, started from the grid minima of log|f|, accepted only
    when their number matches the winding number of f around the circle.
    """
    if f.is_zero:
        return None
    if len(f.terms) == 1:
        clusters: list[list[complex]] = []
        for z in np.roots(f.terms[0].coeffs[::-1]):
            for cluster in clusters:
                if abs(z - cluster[0]) <= _ROOT_CLUSTER * max(1.0, abs(cluster[0])):
                    cluster.append(z)
                    break
            else:
                clusters.append([z])
        points = [(complex(np.mean(c)), len(c)) for c in clusters]
        return [(z, m) for z, m in points if abs(z) < radius]
    count = _winding_number(f, radius)
    if count is None:
        return None
    if count == 0:
        return []
    cells = _ZERO_GRID
    while cells <= _ZERO_GRID_MAX:
        found = [z for z in _newton_zeros(f, radius, cells) if abs(z) < radius]
        if len(found) == count:
            return [(z, 1) for z in found]
        cells *= 2
    return None


def compose_affine(f: EntireFunction, phi: "AffineMap") -> EntireFunction:
    """f(a z + b), re-expanded inside the class.

    The polynomial part is rebased by iterated multiplication with (b + a z),
    the rate becomes c*a and the constant exp(c*b) folds into the coefficients.
    A folded coefficient past the float range raises NumericFailure: the
    inputs were admissible, the arithmetic overflowed.
    """
    a, b = phi.a, phi.b
    terms = []
    for t in f.terms:
        rebased: list[complex] = [0j]
        power: list[complex] = [1 + 0j]
        for k, pk in enumerate(t.coeffs):
            if k:
                power = _poly_mul(power, [b, a])
            if pk != 0:
                rebased = _poly_add(rebased, [pk * c for c in power])
        front = _cexp(t.rate * b)
        coeffs = tuple(front * c for c in rebased)
        if not _finite_moduli(coeffs):
            raise NumericFailure("f(a z + b) has a coefficient beyond the float range")
        terms.append(PolyExpTerm(coeffs, t.rate * a))
    return EntireFunction(tuple(terms))


def growth_envelope(f: EntireFunction, r: float) -> float:
    """sum_i phat_i(r) exp(|c_i| r) with phat the coefficient-modulus polynomial.

    Upper-bounds max_{|z|=r} |f(z)| for every r >= 0.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    total = 0.0
    for t in f.terms:
        phat = sum(abs(c) * r**k for k, c in enumerate(t.coeffs))
        total += phat * math.exp(abs(t.rate) * r)
    return total


def envelope_majorant(f: EntireFunction) -> tuple[float, int, float]:
    """(amplitude, degree, rate) with |f(z)| <= amplitude (1+|z|)^degree e^{rate |z|}."""
    amp = sum(abs(c) for t in f.terms for c in t.coeffs)
    return amp, f.degree, f.max_rate


def constant_value(f: EntireFunction, tol: float = TOL_SYM) -> complex | None:
    """The constant value of f if f is constant (0 included), else None."""
    if not f.terms:
        return 0j
    if len(f.terms) > 1:
        return None
    t = f.terms[0]
    if t.degree == 0 and abs(t.rate) <= tol:
        return t.coeffs[0]
    return None


def isclose(f: EntireFunction, g: EntireFunction, tol: float = 1e-9) -> bool:
    """Canonical-form comparison with a mixed absolute/relative tolerance."""
    d = sub(f, g)
    if d.is_zero:
        return True
    scale_ref = max(
        max((abs(c) for t in h.terms for c in t.coeffs), default=0.0) for h in (f, g)
    )
    cut = tol * max(1.0, scale_ref)
    return all(abs(c) <= cut for t in d.terms for c in t.coeffs)


def proportionality_ratio(f: EntireFunction, g: EntireFunction, tol: float = 1e-9) -> complex | None:
    """lam with g = lam * f (both nonzero), or None if not proportional."""
    if f.is_zero or g.is_zero:
        return None
    if len(f.terms) != len(g.terms):
        return None
    lead_f = f.terms[0].coeffs[-1]
    lead_g = g.terms[0].coeffs[-1]
    lam = lead_g / lead_f
    try:
        return lam if isclose(scale(f, lam), g, tol) else None
    except Inadmissible:  # lam * f, or its difference from g, leaves the float range
        return None


@dataclass(frozen=True)
class AffineMap:
    """phi(z) = a z + b with |a| <= 1, the only maps admissible as symbols."""

    a: complex
    b: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "a", _check_finite(self.a, "a"))
        object.__setattr__(self, "b", _check_finite(self.b, "b"))
        if abs(self.a) > 1.0 + TOL_SYM:
            raise Inadmissible(f"affine symbol needs |a| <= 1, got |a| = {abs(self.a)}")

    def __call__(self, z: complex) -> complex:
        return self.a * complex(z) + self.b

    @property
    def is_constant_map(self) -> bool:
        return abs(self.a) <= TOL_SYM

    @property
    def is_unit_modulus(self) -> bool:
        return abs(abs(self.a) - 1.0) <= TOL_SYM

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other: z -> self(other(z))."""
        return AffineMap(self.a * other.a, self.a * other.b + self.b)

    def isclose(self, other: "AffineMap", tol: float = TOL_SYM) -> bool:
        return abs(self.a - other.a) <= tol and abs(self.b - other.b) <= tol


IDENTITY = AffineMap(1.0, 0.0)


def validate_fock_index(p: float) -> float:
    """Exponent of a Fock space: a finite positive real."""
    p = float(p)
    if not math.isfinite(p) or p <= 0:
        raise Inadmissible(f"Fock exponent must be finite and positive, got {p}")
    return p
