"""Adaptive integration of Gaussian-weighted nonnegative integrands over the plane.

The engine computes (s / 2 pi) * integral of g(z) exp(-s|z|^2 / 2) dA(z) in
polar coordinates: composite Gauss-Legendre panels in the radius, an
equispaced periodic rule in the angle.  Integrands are supplied in log form
(so |f|^p for huge |z| never overflows) together with an analytic growth
envelope of the shape

    g(z) <= sum_j A_j (1 + r)^{d_j} exp(K_j r + C_j r^2),   r = |z|,

which yields a rigorous truncation-tail bound by completing the square.
A curvature term C_j >= s/2 means the integral diverges (TailNotDominated).

Angular node counts follow the oscillation bound of |exp(cz)|^p on |z| = r,
whose scale is p|c|r; the count is adaptively doubled when the nested
coarse/fine angular estimate shows the bound was not enough (this happens
for fractional powers near zeros of the integrand, where the rule is no
longer spectrally accurate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import Inadmissible, TailNotDominated, ToleranceNotMet
from .symbols import square

_MAX_SPLITS = 4000
_MAX_DEPTH = 48
_MAX_ANGULAR_MULT = 64
_ANGULAR_CAP = 1 << 14
_ANGULAR_MIN_NODES = 64
# Gauss-Legendre rule of each radial panel
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(32)


@dataclass(frozen=True)
class QuadratureSpec:
    """Engine settings; defaults are tuned for desk-scale certification."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_radius: float = 40.0

    def __post_init__(self):
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise Inadmissible("tolerances must be positive and finite")
        if not 0 < self.max_radius < math.inf:
            raise Inadmissible("max_radius must be positive and finite")


DEFAULT_SPEC = QuadratureSpec()

# for checks where the integrand may have fractional-power cusps at zeros;
# the tight default would burn the refinement budget there
CHECK_SPEC = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-6)


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    truncation_radius: float

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be nonnegative")


@dataclass(frozen=True)
class EnvelopeTerm:
    """A (1+r)^degree exp(rate r + curvature r^2)."""

    amplitude: float
    degree: float = 0.0
    rate: float = 0.0
    curvature: float = 0.0


@dataclass(frozen=True)
class GrowthEnvelope:
    terms: tuple[EnvelopeTerm, ...]

    @staticmethod
    def single(amplitude: float, degree: float = 0.0, rate: float = 0.0,
               curvature: float = 0.0) -> "GrowthEnvelope":
        return GrowthEnvelope((EnvelopeTerm(amplitude, degree, rate, curvature),))


@dataclass(frozen=True)
class PolarIntegrand:
    """Nonnegative integrand g given through log g, with growth metadata.

    ``angular_degree`` and ``angular_rate`` bound the angular oscillation of g
    on |z| = r by degree + rate * r (callers fold any power p into both).
    """

    log_magnitude: Callable[[np.ndarray], np.ndarray]
    envelope: GrowthEnvelope
    angular_degree: float = 0.0
    angular_rate: float = 0.0


def _tail_bound(envelope: GrowthEnvelope, s: float, radius: float) -> float:
    """Rigorous bound on the dA-integral of env(|z|) e^{-s|z|^2/2} beyond radius.

    Per term, completing the square in K r - beta r^2 (beta = s/2 - C) gives
       2 pi * (2 A / beta) e^{K^2/(2 beta)} (1+R)^d e^{-beta R^2 / 2},
    valid once (1+r)^d r e^{-beta r^2 / 4} decreases beyond the radius;
    before that the bound is inf.
    """
    total = 0.0
    for t in envelope.terms:
        beta = s / 2.0 - t.curvature
        if t.degree / (1.0 + radius) + 1.0 / radius > beta * radius / 2.0:
            return math.inf
        log_term = (
            math.log(2.0 * t.amplitude / beta)
            + square(t.rate) / (2.0 * beta)
            + t.degree * math.log1p(radius)
            - beta * radius**2 / 2.0
        )
        total += math.exp(min(log_term, 700.0))
    return 2.0 * math.pi * total


def _choose_radius(envelope: GrowthEnvelope, s: float, prefactor: float,
                   spec: QuadratureSpec) -> tuple[float, float]:
    """Doubling search for the smallest radius whose tail bound is below abs_tol/2."""
    for t in envelope.terms:
        if s / 2.0 - t.curvature <= 0:
            raise TailNotDominated(
                f"envelope curvature {t.curvature} does not decay against weight exponent {s}/2"
            )
    radius = 2.0
    while True:
        tail = prefactor * _tail_bound(envelope, s, radius)
        if tail <= spec.abs_tol / 2.0:
            return radius, tail
        if radius >= spec.max_radius:
            raise ToleranceNotMet(
                f"tail bound not below {spec.abs_tol / 2:g} at max radius {spec.max_radius}"
            )
        radius = min(radius * 2.0, spec.max_radius)


def _angular_count(integrand: PolarIntegrand, r: float, mult: int) -> int:
    # the periodic rule aliases frequencies >= n; the integrand's angular
    # spectrum dies superexponentially past degree + rate * r, so a factor of
    # three plus margin suffices a priori, with the nested coarse/fine
    # estimate escalating ``mult`` in the rare non-smooth cases
    n = max(
        _ANGULAR_MIN_NODES,
        int(math.ceil(8.0 * integrand.angular_degree + 3.0 * integrand.angular_rate * r)) + 16,
    )
    n = min(n * mult, _ANGULAR_CAP)
    return n + (n % 2)


class _RadialIntegrator:
    def __init__(self, integrand: PolarIntegrand, s: float, mult: int):
        self.integrand = integrand
        self.s = s
        self.mult = mult
        self.evals = 0

    def panel(self, r0: float, r1: float) -> tuple[float, float]:
        """(integral over [r0, r1], angular error estimate), both including dtheta."""
        self.evals += 1
        half = 0.5 * (r1 - r0)
        r = r0 + half * (_NODES + 1.0)
        w = half * _WEIGHTS
        n = _angular_count(self.integrand, r1, self.mult)
        theta = 2.0 * np.pi * np.arange(n) / n
        zs = r[:, None] * np.exp(1j * theta)[None, :]
        logg = self.integrand.log_magnitude(zs)
        with np.errstate(over="ignore"):
            vals = np.exp(logg - (self.s * r * r / 2.0)[:, None])
        fine = vals.mean(axis=1) * (2.0 * np.pi)
        coarse = vals[:, ::2].mean(axis=1) * (2.0 * np.pi)
        value = float(np.dot(w, fine * r))
        ang_err = float(np.dot(w, np.abs(fine - coarse) * r))
        return value, ang_err


def _adaptive_radial(integrand: PolarIntegrand, s: float, radius: float, mult: int,
                     spec: QuadratureSpec, prefactor: float,
                     budget: float | None) -> tuple[float, float, float, bool, float]:
    """Adaptive bisection on [0, radius] with per-panel accept/split control.

    A pass without a ``budget`` (the first one) takes the scale of its
    relative-tolerance budget from the sum of its base panels.  Returns
    (value, radial error, angular error, budget_exhausted, budget), all
    without the prefactor.
    """
    engine = _RadialIntegrator(integrand, s, mult)
    base = max(4, min(48, int(math.ceil(radius / 2.0))))
    edges = np.linspace(0.0, radius, base + 1)
    stack = [(edges[i], edges[i + 1], *engine.panel(edges[i], edges[i + 1]), 0)
             for i in range(base)]
    if budget is None:
        scale = prefactor * sum(panel[2] for panel in stack)
        budget = max(spec.abs_tol, spec.rel_tol * abs(scale)) / 2.0 / prefactor
    value = 0.0
    radial_err = 0.0
    ang_err = 0.0
    exhausted = False
    while stack:
        r0, r1, whole, ang_whole, depth = stack.pop()
        if depth >= _MAX_DEPTH or engine.evals >= _MAX_SPLITS:
            exhausted = exhausted or engine.evals >= _MAX_SPLITS
            value += whole
            ang_err += ang_whole
            radial_err += abs(whole) * 1e-14
            continue
        mid = 0.5 * (r0 + r1)
        left, ang_left = engine.panel(r0, mid)
        right, ang_right = engine.panel(mid, r1)
        err = abs(left + right - whole)
        if err <= budget * (r1 - r0) / radius:
            value += left + right
            radial_err += err
            ang_err += ang_left + ang_right
        else:
            stack.append((r0, mid, left, ang_left, depth + 1))
            stack.append((mid, r1, right, ang_right, depth + 1))
    return value, radial_err, ang_err, exhausted, budget


def _integrate(integrand: PolarIntegrand, s: float, prefactor: float,
               spec: QuadratureSpec) -> IntegralResult:
    radius, tail = _choose_radius(integrand.envelope, s, prefactor, spec)
    budget = None
    mult = 1
    while True:
        value, radial_err, ang_err, exhausted, budget = _adaptive_radial(
            integrand, s, radius, mult, spec, prefactor, budget
        )
        value *= prefactor
        radial_err *= prefactor
        ang_err *= prefactor
        tol = max(spec.abs_tol, spec.rel_tol * abs(value))
        if ang_err <= tol / 4.0 or mult >= _MAX_ANGULAR_MULT:
            break
        mult *= 2

    error = radial_err + ang_err + tail
    if error > tol and exhausted:
        raise ToleranceNotMet(
            f"refinement budget exhausted: value {value:g}, error estimate {error:g}, tolerance {tol:g}"
        )
    if error > 4.0 * tol:
        raise ToleranceNotMet(
            f"error estimate {error:g} exceeds tolerance {tol:g} (value {value:g})"
        )
    return IntegralResult(value, error, radius)


def gaussian_integral(integrand: PolarIntegrand, s: float,
                      spec: QuadratureSpec | None = None) -> IntegralResult:
    """(s / 2 pi) * integral of g(z) exp(-s |z|^2 / 2) dA(z) for g >= 0.

    With g identically 1 the result is 1 for every s > 0 (the weight is a
    probability measure), which anchors the engine's normalization.
    """
    if s <= 0 or not math.isfinite(s):
        raise ValueError("weight exponent s must be positive and finite")
    spec = spec or DEFAULT_SPEC
    return _integrate(integrand, s, s / (2.0 * math.pi), spec)


def plane_integral(integrand: PolarIntegrand,
                   spec: QuadratureSpec | None = None) -> IntegralResult:
    """Unweighted integral of g dA; the envelope itself must decay super-polynomially."""
    spec = spec or DEFAULT_SPEC
    return _integrate(integrand, 0.0, 1.0, spec)


def polar_grid(radius: float, n_radii: int, n_angles: int,
               include_origin: bool = False) -> np.ndarray:
    """Complex sample points on concentric circles, radius * k / n_radii."""
    radii = radius * (np.arange(1, n_radii + 1) / n_radii)
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    grid = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    if include_origin:
        grid = np.concatenate(([0j], grid))
    return grid
