"""Fock-space norms, kernel functions and the growth-inequality suite.

The p-norm of an entire function is
    ||f||_p = ( (p / 2 pi) * integral |f(z)|^p exp(-p |z|^2 / 2) dA(z) )^{1/p},
a quasi-norm for 0 < p < 1 (no triangle inequality is ever assumed; the
metric there is ||f - g||_p^p, exposed as ``fock_distance``).  Every member
of the symbol class lies in every Fock space, since its growth envelope is
exponential-of-linear while the weight decays like a Gaussian.

The inequality checks certify, on sample grids, the three workhorse bounds:
pointwise growth |f(z)| <= e^{|z|^2/2} ||f||_p, the derivative variant with
constant e^2 (1+|z|), and the inclusion constant (q/p)^{1/q} between spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import symbols
from .errors import BoundViolated, NumericFailure
from .quadrature import (
    DEFAULT_SPEC,
    GrowthEnvelope,
    IntegralResult,
    PolarIntegrand,
    QuadratureSpec,
    gaussian_integral,
    polar_grid,
)
from .symbols import EntireFunction, validate_fock_index


# log of the largest integrand amplitude the quadrature takes unscaled
_LOG_HUGE = 600.0


@dataclass(frozen=True)
class NormValue:
    value: float
    error_estimate: float
    truncation_radius: float | None = None

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("norm value must be nonnegative")


def magnitude_power_integrand(f: EntireFunction, power: float) -> PolarIntegrand:
    """|f|^power as a quadrature integrand with envelope and oscillation metadata."""
    amp, degree, rate = symbols.envelope_majorant(f)
    envelope = GrowthEnvelope.single(
        amplitude=amp**power if amp > 0 else 0.0,
        degree=degree * power,
        rate=rate * power,
    )
    return PolarIntegrand(
        log_magnitude=lambda zs: power * symbols.log_abs_grid(f, zs),
        envelope=envelope,
        angular_degree=power * degree,
        angular_rate=power * rate,
    )


def fock_norm(f: EntireFunction, p: float,
              spec: QuadratureSpec | None = None) -> NormValue:
    """||f||_p by Gaussian-weighted quadrature; exact zero for the zero function."""
    p = validate_fock_index(p)
    if f.is_zero:
        return NormValue(0.0, 0.0, None)
    amp, _, _ = symbols.envelope_majorant(f)
    if not math.isfinite(amp):
        raise NumericFailure("the symbol's coefficient sum exceeds the float range")
    # the norm is homogeneous: an amplitude whose p-th power would overflow
    # is divided out by 2^exponent >= amp and multiplied back at the end
    exponent = math.ceil(math.log2(amp)) if p * math.log(amp) > _LOG_HUGE else 0
    if exponent:
        f = symbols.scale(f, math.ldexp(1.0, -exponent))
    res: IntegralResult = gaussian_integral(magnitude_power_integrand(f, p), p, spec or DEFAULT_SPEC)
    value = res.value ** (1.0 / p)
    # d(I^{1/p}) = I^{1/p} dI / (p I)
    error = value * res.error_estimate / (p * res.value) if res.value > 0 else res.error_estimate
    try:
        value, error = math.ldexp(value, exponent), math.ldexp(error, exponent)
    except OverflowError:
        raise NumericFailure(f"the {p}-norm exceeds the float range") from None
    return NormValue(value, error, res.truncation_radius)


def fock_distance(f: EntireFunction, g: EntireFunction, p: float,
                  spec: QuadratureSpec | None = None) -> float:
    """||f-g||_p for p >= 1; the complete metric ||f-g||_p^p for 0 < p < 1."""
    p = validate_fock_index(p)
    n = fock_norm(symbols.sub(f, g), p, spec).value
    return n if p >= 1.0 else n**p


def sup_norm(f: EntireFunction) -> NormValue:
    """sup over the plane of |f(z)| exp(-|z|^2/2): the gauge of f and the zero map."""
    if f.is_zero:
        return NormValue(0.0, 0.0)
    _, best = gauge_peak(f, symbols.AffineMap(0.0))
    value = symbols.safe_exp(best)
    return NormValue(value, 1e-11 * value)


def kernel(w: complex) -> EntireFunction:
    """The unit-norm kernel function exp(conj(w) z - |w|^2 / 2)."""
    w = complex(w)
    return symbols.exp_term(w.conjugate(), math.exp(-abs(w) ** 2 / 2.0))


def log_gauge_grid(psi: EntireFunction, phi: symbols.AffineMap, zs) -> np.ndarray:
    """log of |psi(z)| exp((|phi(z)|^2 - |z|^2)/2), the symbol gauge, on an array.

    Never raises: a log beyond the float range reads +inf, and a point where
    overflowing parts cancel (inf - inf) reads -inf, so no nan reaches a
    maximum.
    """
    zs = np.asarray(zs, dtype=complex)
    a, b = phi.a, phi.b
    with np.errstate(over="ignore", invalid="ignore"):
        quad = (abs(a) ** 2 - 1.0) * np.abs(zs) ** 2
        linear = 2.0 * (b.conjugate() * a * zs).real
        logs = symbols.log_abs_grid(psi, zs) + 0.5 * (quad + linear + symbols.square(abs(b)))
    return np.where(np.isnan(logs), -np.inf, logs)


def gauge_at(psi: EntireFunction, phi: symbols.AffineMap, z: complex) -> float:
    """The pointwise symbol gauge, evaluated in the log domain."""
    return symbols.safe_exp(float(log_gauge_grid(psi, phi, z)))


# The gauge maximizer: a polar grid of _GRID_RADII x _GRID_ANGLES points and
# the per-term stationary points seed a compass polish of the _POLISHED best
# points, each probing its four neighbours at its own step, halved from
# _FIRST_STEP to _MIN_STEP whenever no neighbour is higher.
_GRID_RADII = 24
_GRID_ANGLES = 32
_POLISHED = 4
_FIRST_STEP = 0.5
_MIN_STEP = 1e-9
# a point moves at most one step per round, so the cap bounds a call's work
# however far a seed lies from its peak
_MAX_ROUNDS = 5000
_COMPASS = np.array([1.0, -1.0, 1j, -1j])


def _polish(psi: EntireFunction, phi: symbols.AffineMap,
            zs: np.ndarray, values: np.ndarray) -> tuple[complex, float]:
    """Compass ascent of every point at once; the best point reached."""
    steps = np.full(zs.shape, _FIRST_STEP)
    for _ in range(_MAX_ROUNDS):
        active = steps > _MIN_STEP
        if not active.any():
            break
        probes = zs[:, None] + steps[:, None] * _COMPASS[None, :]
        probe_values = log_gauge_grid(psi, phi, probes)
        rows, k = np.arange(zs.size), np.argmax(probe_values, axis=1)
        best = probe_values[rows, k]
        moved = active & (best > values)
        zs = np.where(moved, probes[rows, k], zs)
        values = np.where(moved, best, values)
        steps = np.where(moved | ~active, steps, 0.5 * steps)
    k = int(np.argmax(values))
    return complex(zs[k]), float(values[k])


def gauge_peak(psi: EntireFunction, phi: symbols.AffineMap) -> tuple[complex, float]:
    """argmax of the gauge and its log value (finite for |a| < 1 unless the
    log itself overflows, which reads +inf).

    For unit-modulus maps the quadratic cancels and the gauge is either
    constant or unbounded; the origin is returned as a representative point.
    For |a| < 1 the grid reaches past both the concavity scale 4/(1-|a|^2)
    (at most 60) and the reach (rate + |ab|)/alpha + sqrt(degree/alpha) of
    psi's growth against the Gaussian decay alpha = (1-|a|^2)/2.
    """
    if phi.is_unit_modulus:
        return 0j, float(log_gauge_grid(psi, phi, 0j))
    a, b = phi.a, phi.b
    alpha = (1.0 - abs(a) ** 2) / 2.0
    reach = (psi.max_rate + abs(a * b)) / alpha + math.sqrt(psi.degree / alpha)
    radius = max(min(2.0 / max(alpha, 5e-4), 60.0), reach)
    stationary = [(t.rate + b.conjugate() * a).conjugate() / (2.0 * alpha) for t in psi.terms]
    zs = np.concatenate((stationary, polar_grid(radius, _GRID_RADII, _GRID_ANGLES,
                                                include_origin=True)))
    values = log_gauge_grid(psi, phi, zs)
    best = np.argsort(values)[-_POLISHED:]
    return _polish(psi, phi, zs[best], values[best])


def default_bound_grid() -> np.ndarray:
    # the growth bounds are tightest at moderate |z|
    return polar_grid(6.0, 30, 16, include_origin=True)


@dataclass(frozen=True)
class BoundReport:
    bound: str
    max_ratio: float
    witness: complex
    norm: NormValue


def check_pointwise_bound(f: EntireFunction, p: float,
                          sample: np.ndarray | None = None,
                          spec: QuadratureSpec | None = None,
                          tolerance: float = 1e-8) -> BoundReport:
    """Certify |f(z)| <= e^{|z|^2/2} ||f||_p on the sample; returns the max ratio."""
    sample = default_bound_grid() if sample is None else np.asarray(sample, dtype=complex)
    norm = fock_norm(f, p, spec)
    if norm.value == 0.0:
        return BoundReport("pointwise-growth", 0.0, 0j, norm)
    lhs = np.exp(symbols.log_abs_grid(f, sample) - np.abs(sample) ** 2 / 2.0)
    ratios = lhs / norm.value
    k = int(np.argmax(ratios))
    report = BoundReport("pointwise-growth", float(ratios[k]), complex(sample.ravel()[k]), norm)
    if report.max_ratio > 1.0 + tolerance:
        raise BoundViolated(
            f"pointwise growth bound violated: ratio {report.max_ratio} at z = {report.witness}",
            witness=report.witness,
        )
    return report


def check_derivative_bound(f: EntireFunction, p: float,
                           sample: np.ndarray | None = None,
                           spec: QuadratureSpec | None = None,
                           tolerance: float = 1e-8) -> BoundReport:
    """Certify |f'(z)| <= e^2 (1+|z|) e^{|z|^2/2} ||f||_p on the sample."""
    sample = default_bound_grid() if sample is None else np.asarray(sample, dtype=complex)
    norm = fock_norm(f, p, spec)
    df = symbols.differentiate(f)
    if norm.value == 0.0 or df.is_zero:
        return BoundReport("derivative-growth", 0.0, 0j, norm)
    r = np.abs(sample)
    log_bound = 2.0 + np.log1p(r) + r**2 / 2.0 + math.log(norm.value)
    ratios = np.exp(symbols.log_abs_grid(df, sample) - log_bound)
    k = int(np.argmax(ratios))
    report = BoundReport("derivative-growth", float(ratios[k]), complex(sample.ravel()[k]), norm)
    if report.max_ratio > 1.0 + tolerance:
        raise BoundViolated(
            f"derivative growth bound violated: ratio {report.max_ratio} at z = {report.witness}",
            witness=report.witness,
        )
    return report


@dataclass(frozen=True)
class EmbeddingReport:
    norm_small: NormValue  # ||f||_p, the smaller space
    norm_large: NormValue  # ||f||_q
    constant: float        # (q/p)^{1/q}
    ratio: float           # ||f||_q / (constant ||f||_p)


def check_embedding(f: EntireFunction, p: float, q: float,
                    spec: QuadratureSpec | None = None,
                    tolerance: float = 1e-8) -> EmbeddingReport:
    """Certify ||f||_q <= (q/p)^{1/q} ||f||_p for p < q."""
    p, q = validate_fock_index(p), validate_fock_index(q)
    if not p < q:
        raise ValueError("embedding check requires p < q")
    np_, nq = fock_norm(f, p, spec), fock_norm(f, q, spec)
    constant = (q / p) ** (1.0 / q)
    ratio = 0.0 if np_.value == 0.0 else nq.value / (constant * np_.value)
    report = EmbeddingReport(np_, nq, constant, ratio)
    if ratio > 1.0 + tolerance:
        raise BoundViolated(f"embedding constant violated: ratio {ratio} for p={p}, q={q}")
    return report
