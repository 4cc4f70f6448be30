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

from . import maximize, symbols
from .errors import BoundViolated
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
    res: IntegralResult = gaussian_integral(magnitude_power_integrand(f, p), p, spec or DEFAULT_SPEC)
    value = res.value ** (1.0 / p)
    # d(I^{1/p}) = I^{1/p} dI / (p I)
    error = value * res.error_estimate / (p * res.value) if res.value > 0 else res.error_estimate
    return NormValue(value, error, res.truncation_radius)


def fock_distance(f: EntireFunction, g: EntireFunction, p: float,
                  spec: QuadratureSpec | None = None) -> float:
    """||f-g||_p for p >= 1; the complete metric ||f-g||_p^p for 0 < p < 1."""
    p = validate_fock_index(p)
    n = fock_norm(symbols.sub(f, g), p, spec).value
    return n if p >= 1.0 else n**p


def sup_norm(f: EntireFunction) -> NormValue:
    """sup over the plane of |f(z)| exp(-|z|^2/2), by log-domain maximization."""
    if f.is_zero:
        return NormValue(0.0, 0.0)

    def objective(z: complex) -> float:
        return symbols.log_abs(f, z) - abs(z) ** 2 / 2.0

    seeds = [t.rate.conjugate() for t in f.terms]
    cap = max(4.0, f.max_rate + f.degree + 2.0)
    seeds += maximize.polar_seeds([0.3 * cap, 0.7 * cap, cap])
    _, best = maximize.maximize(objective, seeds)
    value = math.exp(best) if best <= 709.0 else math.inf
    return NormValue(value, 1e-11 * value)


def kernel(w: complex) -> EntireFunction:
    """The unit-norm kernel function exp(conj(w) z - |w|^2 / 2)."""
    w = complex(w)
    return symbols.exp_term(w.conjugate(), math.exp(-abs(w) ** 2 / 2.0))


def log_gauge_at(psi: EntireFunction, phi: symbols.AffineMap, z: complex) -> float:
    """log of |psi(z)| exp((|phi(z)|^2 - |z|^2)/2), the pointwise symbol gauge."""
    a, b = phi.a, phi.b
    z = complex(z)
    quad = (abs(a) ** 2 - 1.0) * abs(z) ** 2
    linear = 2.0 * (b.conjugate() * a * z).real
    return symbols.log_abs(psi, z) + 0.5 * (quad + linear + abs(b) ** 2)


def gauge_at(psi: EntireFunction, phi: symbols.AffineMap, z: complex) -> float:
    """The pointwise symbol gauge, evaluated in the log domain."""
    value = log_gauge_at(psi, phi, z)
    if value == -math.inf:
        return 0.0
    return math.exp(value) if value <= 709.0 else math.inf


def gauge_ascent_seeds(psi: EntireFunction,
                       phi: symbols.AffineMap) -> tuple[list[complex], float]:
    """Ascent seeds for maximizing the gauge when |a| < 1: the per-term
    quadratic optima plus polar rings out to the concavity scale."""
    a, b = phi.a, phi.b
    alpha = (1.0 - abs(a) ** 2) / 2.0
    cap = min(4.0 / max(1.0 - abs(a) ** 2, 1e-3), 60.0)
    seeds = []
    for t in psi.terms:
        linear = t.rate + b.conjugate() * a
        seeds.append(linear.conjugate() / (2.0 * alpha))
    seeds += maximize.polar_seeds([0.25 * cap, 0.55 * cap, 0.85 * cap])
    return seeds, cap


def gauge_peak(psi: EntireFunction, phi: symbols.AffineMap) -> tuple[complex, float]:
    """argmax of the gauge and its log value (finite for |a| < 1).

    For unit-modulus maps the quadratic cancels and the gauge is either
    constant or unbounded; the origin is returned as a representative point.
    """
    if phi.is_unit_modulus:
        return 0j, log_gauge_at(psi, phi, 0j)
    seeds, _ = gauge_ascent_seeds(psi, phi)
    return maximize.maximize(lambda z: log_gauge_at(psi, phi, z), seeds)


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
