"""Adaptive Gaussian-weighted integration of |f|^p over the plane.

The engine computes (s / 2 pi) * integral of |f(z)|^power exp(-s|z|^2 / 2)
dA(z) for a symbol f in polar coordinates: composite Gauss-Legendre panels
in the radius, an equispaced periodic rule in the angle.  It evaluates
power * log|f| (so |f|^p for huge |z| never overflows), and the symbol's
growth envelope |f(z)| <= A (1 + r)^d exp(K r), r = |z|, raised to the
power yields a rigorous truncation-tail bound by completing the square.

``_integrate`` is the engine's one loop.  It takes the smallest radius
2, 4, 6, ... (at most max_radius) whose tail bound is below abs_tol / 2 and
runs a radial pass over at least four base panels of width at most 2.  Each
panel is evaluated once, at the radii of the 32- and the 16-node
Gauss-Legendre rules (they share none): it keeps the 32-node value, and the
gap between the two is its radial error estimate, an embedded pair in the
manner of Kronrod (1965) and QUADPACK.  Only a panel whose gap misses its
share of the tolerance is bisected (``_adaptive_radial``).  The first pass's
base panels fix that tolerance: its relative part from their sum, its
absolute part in units of their peak where the peak is below 1.  While the
angular estimate misses a quarter of the tolerance, the node counts of every
panel double (``mult``) and the pass reruns.  An integrand that peaks beyond
exp(+-_LOG_RANGE) on the first pass's base panels (|f|^p at p = 1000, say)
restarts once in units of that peak, which ``IntegralResult.log_scale``
carries back to the caller.

Angular node counts follow the oscillation bound of |exp(cz)|^p on |z| = r,
whose scale is p|c|r.  The equispaced rule is spectrally accurate only for
smooth integrands; at a zero z0 of f, |f|^p has the algebraic cusp
|z - z0|^{pm} (m the multiplicity), where it converges only algebraically
and its nested coarse/fine estimate falls short of the error.  So the engine
finds those zeros (``_cusp_points``): every radial panel then cuts its
circle at the cusp angles and integrates each arc with a trapezoid rule
after a sin^4 substitution (Sidi 1993) that grades the nodes toward both
ends, and every cusp modulus is a radial panel edge.  The coarse/fine
estimate is then honest again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import symbols
from .errors import Inadmissible, ToleranceNotMet
from .symbols import EntireFunction

_MAX_SPLITS = 4000
_MAX_DEPTH = 48
_MAX_ANGULAR_MULT = 64
_ANGULAR_CAP = 1 << 14
_ANGULAR_MIN_NODES = 64
# nodes of a graded arc: at least _ARC_MIN_NODES, else _ARC_SHARE times the
# arc's share of the equispaced count
_ARC_MIN_NODES = 32
_ARC_SHARE = 2.0
# an integrand peaking beyond exp(+-_LOG_RANGE) is integrated in units of its peak
_LOG_RANGE = 600.0
# the radial rules of a panel on [-1, 1]: 32 Gauss-Legendre nodes, then 16
_NODES, _WEIGHTS = (np.concatenate(pair) for pair in zip(np.polynomial.legendre.leggauss(32),
                                                         np.polynomial.legendre.leggauss(16)))
# exp(x) underflows to zero below this x, which then bears no rounding error
_LOG_UNDERFLOW = -746.0
# |z - z0|^e with e above this is left to the uniform angular rule
_CUSP_MAX_ORDER = 20.0 / 3.0


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

# looser settings for checks that integrate many random symbols
CHECK_SPEC = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-6)


@dataclass(frozen=True)
class IntegralResult:
    """An integral and its error estimate, both in units of exp(log_scale).

    ``log_scale`` is 0 unless the integrand peaks beyond exp(+-_LOG_RANGE),
    where the engine integrates |f|^power / exp(peak) instead and the spec's
    ``abs_tol`` applies to that.
    """

    value: float
    error_estimate: float
    truncation_radius: float
    log_scale: float = 0.0

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be nonnegative")


def _tail_bound(envelope: tuple[float, float, float], s: float, radius: float,
                shift: float) -> float:
    """Rigorous bound on the dA-integral of |f|^power e^{-s|z|^2/2 - shift}
    beyond radius, where envelope = (A, d, K) bounds |f|^power by
    A (1 + r)^d e^{K r} on |z| = r.

    Completing the square in K r - beta r^2 (beta = s/2) gives
       2 pi * (2 A / beta) e^{K^2/(2 beta)} (1+R)^d e^{-beta R^2 / 2},
    valid once (1+r)^d r e^{-beta r^2 / 4} decreases beyond the radius;
    before that the bound is inf.
    """
    amplitude, degree, rate = envelope
    beta = s / 2.0
    if amplitude == 0.0:  # a p-th power that underflowed bounds no tail
        return 0.0
    if degree / (1.0 + radius) + 1.0 / radius > beta * radius / 2.0:
        return math.inf
    log_term = (
        math.log(2.0 * amplitude / beta)
        + symbols.square(rate) / (2.0 * beta)
        + degree * math.log1p(radius)
        - beta * radius**2 / 2.0
    )
    return 2.0 * math.pi * math.exp(min(log_term - shift, 700.0))


def _angular_count(envelope: tuple[float, float, float], r: float, mult: int) -> int:
    # the periodic rule aliases frequencies >= n; the angular spectrum of
    # |f|^power dies superexponentially past power (degree + rate * r), so a
    # factor of three plus margin suffices a priori, with the nested
    # coarse/fine estimate escalating ``mult`` in the rare non-smooth cases
    _, degree, rate = envelope
    n = max(_ANGULAR_MIN_NODES, int(math.ceil(8.0 * degree + 3.0 * rate * r)) + 16)
    n = min(n * mult, _ANGULAR_CAP)
    return n + (n % 2)


def _cusp_points(f: EntireFunction, power: float, radius: float) -> tuple[complex, ...]:
    """The zeros z0 != 0 of f in |z| < radius at which |f|^power needs a graded
    angular rule; none where the zeros of f cannot be certified.

    An m-fold zero makes |f|^power behave like |z - z0|^{power m}, smooth
    when power m is an even integer; past _CUSP_MAX_ORDER the uniform rule's
    error at its 64-node minimum, 64^-(power m + 2), is below 2^-52 anyway.
    At the origin the cusp r^{power m} does not depend on the angle.
    """
    if power % 2.0 == 0.0 or power >= _CUSP_MAX_ORDER:  # so is power m, for every m
        return ()
    zeros = symbols.zeros(f, radius) or ()
    return tuple(z for z, m in zeros
                 if z != 0 and (power * m) % 2.0 != 0.0 and power * m < _CUSP_MAX_ORDER)


def _graded_arcs(angles: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angular nodes and fine / coarse weights on the circle cut at ``angles``.

    Each arc [alpha, alpha + L] takes the trapezoid rule after Sidi's sin^4
    substitution theta = alpha + L psi(t), psi' = (8/3) sin^4(pi t), which
    grades the nodes toward both ends: a cusp |theta - alpha|^e there becomes
    t^{5e + 4} and the rule converges like h^{5e + 5}.  The middle of an arc
    is 8/3 times sparser than an equispaced rule with as many nodes, so each
    arc takes _ARC_SHARE times its share of the equispaced count n, whose
    margin covers the rest.  The coarse rule is every other node.
    """
    ends = np.append(angles, angles[0] + 2.0 * np.pi)
    thetas, fine, coarse = [], [], []
    for alpha, length in zip(ends[:-1], np.diff(ends)):
        count = max(_ARC_MIN_NODES, int(math.ceil(_ARC_SHARE * n * length / (2.0 * np.pi))))
        count += count % 2
        j = np.arange(1, count)
        t = j / count
        thetas.append(alpha + length * (t - np.sin(2.0 * np.pi * t) * (2.0 / (3.0 * np.pi))
                                        + np.sin(4.0 * np.pi * t) / (12.0 * np.pi)))
        weight = length * (8.0 / 3.0) * np.sin(np.pi * t) ** 4 / count
        fine.append(weight)
        coarse.append(np.where(j % 2 == 0, 2.0 * weight, 0.0))
    return np.concatenate(thetas), np.concatenate(fine), np.concatenate(coarse)


class _RadialIntegrator:
    def __init__(self, f: EntireFunction, power: float, envelope: tuple[float, float, float],
                 s: float, mult: int, cusp_angles: np.ndarray, shift: float):
        self.f = f
        self.power = power
        self.envelope = envelope
        self.s = s
        self.mult = mult
        self.cusp_angles = cusp_angles
        self.shift = shift
        # per angular node count: the phases e^{i theta} and, with cusps,
        # the graded arcs' fine and coarse weights
        self._rules: dict[int, tuple[np.ndarray, np.ndarray | None, np.ndarray | None]] = {}

    def panel(self, r0: float, r1: float) -> tuple[float, float, float, float, float]:
        """(value, radial error, angular error, rounding error) over [r0, r1],
        each including dtheta, and the largest log of the weighted integrand
        at the panel's nodes.  The radial error is the gap between the 32-
        and the 16-node rule; the rounding error takes |x| + 64 ulps of the
        value, with |x| the largest |log| before any shift at a node that
        does not underflow (at p = 1000 the log of |f|^p is a difference of
        numbers near a thousand)."""
        half = 0.5 * (r1 - r0)
        r = r0 + half * (_NODES + 1.0)
        n = _angular_count(self.envelope, r1, self.mult)
        if n not in self._rules:
            if self.cusp_angles.size:
                theta, fine_w, coarse_w = _graded_arcs(self.cusp_angles, n)
            else:
                theta, fine_w, coarse_w = 2.0 * np.pi * np.arange(n) / n, None, None
            self._rules[n] = np.exp(1j * theta), fine_w, coarse_w
        phase, fine_w, coarse_w = self._rules[n]
        zs = r[:, None] * phase[None, :]
        logs = self.power * symbols.log_abs_grid(self.f, zs) - (self.s * r * r / 2.0)[:, None]
        top, bottom = float(logs.max()), float(logs.min())
        # an overflow (inf, or inf - inf) fails the accept tests downstream
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.exp(logs - self.shift if self.shift else logs)
            if self.cusp_angles.size:
                fine, coarse = vals @ fine_w, vals[:32] @ coarse_w
            else:
                fine = vals.mean(axis=1) * (2.0 * np.pi)
                coarse = vals[:32, ::2].mean(axis=1) * (2.0 * np.pi)
            rows = _WEIGHTS * fine * r * half
            value = float(rows[:32].sum())
            radial_err = abs(value - float(rows[32:].sum()))
            ang_err = float(np.dot(_WEIGHTS[:32], np.abs(fine[:32] - coarse) * r[:32]) * half)
            least = self.shift + _LOG_UNDERFLOW
            span = max(abs(max(top, least)), -max(bottom, least))
            rounding = abs(value) * (span + 64.0) * 2.0**-52
        return value, radial_err, ang_err, rounding, top


def _adaptive_radial(engine: _RadialIntegrator, stack: list, radius: float,
                     budget: float) -> tuple[float, float, float, bool]:
    """Refine the base panels on ``stack``, (r0, r1, ``engine.panel(r0, r1)``,
    depth) each.  A panel whose radial error is within its share of
    ``budget`` (its width over ``radius``) is accepted, any other bisected,
    until _MAX_DEPTH or _MAX_SPLITS accept it as it stands.  Returns (value,
    radial error, angular error, budget_exhausted), all without the
    prefactor and in units of exp(engine.shift); the radial error of each
    accepted panel adds its rounding error, which never splits a panel.
    """
    evals = len(stack)
    value = radial_err = ang_err = 0.0
    exhausted = False
    while stack:
        r0, r1, (part, part_err, part_ang, rounding, _), depth = stack.pop()
        if part_err > budget * (r1 - r0) / radius:
            if depth < _MAX_DEPTH and evals < _MAX_SPLITS:
                mid = 0.5 * (r0 + r1)
                stack.append((r0, mid, engine.panel(r0, mid), depth + 1))
                stack.append((mid, r1, engine.panel(mid, r1), depth + 1))
                evals += 2
                continue
            exhausted = exhausted or evals >= _MAX_SPLITS
        value += part
        radial_err += part_err + rounding
        ang_err += part_ang
    return value, radial_err, ang_err, exhausted


def _integrate(f: EntireFunction, power: float, s: float, prefactor: float,
               spec: QuadratureSpec) -> IntegralResult:
    amp, degree, rate = symbols.envelope_majorant(f)
    envelope = (amp**power if amp > 0 else 0.0, degree * power, rate * power)
    shift, mult, budget = 0.0, 1, None
    while True:
        if budget is None:  # the first pass, unshifted or restarted in units of the peak
            radius = 2.0  # the smallest of 2, 4, 6, ... whose tail is below abs_tol / 2
            while not (tail := prefactor * _tail_bound(envelope, s, radius, shift)) <= spec.abs_tol / 2:
                if radius >= spec.max_radius:
                    raise ToleranceNotMet(
                        f"tail bound not below {spec.abs_tol / 2:g} at max radius {spec.max_radius}"
                    )
                radius = min(radius + 2.0, spec.max_radius)
            cusps = _cusp_points(f, power, radius)
            angles = np.unique(np.mod(np.angle(cusps), 2.0 * np.pi)) if cusps else np.empty(0)
            edges = np.linspace(0.0, radius, max(4, min(48, int(math.ceil(radius / 2.0)))) + 1)
            if cusps:
                edges = np.unique(np.concatenate((edges, np.abs(cusps))))
        engine = _RadialIntegrator(f, power, envelope, s, mult, angles, shift)
        stack = [(r0, r1, engine.panel(r0, r1), 0) for r0, r1 in zip(edges[:-1], edges[1:])]
        if budget is None:
            peak = max(panel[4] for _, _, panel, _ in stack)
            if shift == 0.0 and (peak > _LOG_RANGE or -math.inf < peak < -_LOG_RANGE):
                if peak == math.inf:
                    raise ToleranceNotMet(f"log of the integrand reaches {peak} on the base panels")
                shift = peak
                continue
            # the absolute tolerance splits panels in units of a peak below 1
            floor = spec.abs_tol * math.exp(min(0.0, peak - shift))
            scale = prefactor * sum(panel[0] for _, _, panel, _ in stack)
            budget = max(floor, spec.rel_tol * abs(scale)) / 2.0 / prefactor
        value, radial_err, ang_err, exhausted = _adaptive_radial(engine, stack, radius, budget)
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
    return IntegralResult(value, error, radius, shift)


def gaussian_integral(f: EntireFunction, power: float, s: float,
                      spec: QuadratureSpec | None = None) -> IntegralResult:
    """(s / 2 pi) * integral of |f(z)|^power exp(-s |z|^2 / 2) dA(z).

    ||f||_p^p is the case power = s = p.  For f = 1 the result is 1 for
    every s > 0 (the weight is a probability measure), which anchors the
    engine's normalization; for f = z^n and power 2 it is the Gaussian
    moment (2 / s)^n n!.
    """
    if s <= 0 or not math.isfinite(s):
        raise ValueError("weight exponent s must be positive and finite")
    spec = spec or DEFAULT_SPEC
    return _integrate(f, power, s, s / (2.0 * math.pi), spec)


def polar_grid(radius: float, n_radii: int, n_angles: int,
               include_origin: bool = False) -> np.ndarray:
    """Complex sample points on concentric circles, radius * k / n_radii."""
    radii = radius * (np.arange(1, n_radii + 1) / n_radii)
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    grid = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    if include_origin:
        grid = np.concatenate(([0j], grid))
    return grid
