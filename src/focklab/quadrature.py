"""Adaptive Gaussian-weighted integration of |f|^p over the plane.

The engine computes (s / 2 pi) * integral of |f(z)|^power exp(-s|z|^2 / 2)
dA(z) for a symbol f in polar coordinates: composite Gauss-Legendre panels
in the radius, an equispaced periodic rule in the angle.  It evaluates
power * log|f| (so |f|^p for huge |z| never overflows), and the symbol's
growth envelope |f(z)| <= A (1 + r)^d exp(K r), r = |z|, raised to the
power yields a rigorous truncation-tail bound by completing the square.

``_integrate`` is the engine's one loop.  It first fixes its unit e^U, the
largest value of the weighted integrand at the origin and on the circles
where the envelopes of f and of its terms peak (U is a lower bound on the
peak; a pass whose values overflow raises); ``abs_tol`` is in units of e^U.  It
takes the smallest radius 2, 4, 6, ... (at most max_radius) whose tail
bound is below abs_tol / 8 and runs a radial pass over at least four base
panels of width at most 2.  Each panel is evaluated once, at the radii of
the 32- and the 16-node Gauss-Legendre rules (they share none): it keeps
the 32-node value, and the gap between the two is its radial error
estimate, an embedded pair in the manner of Kronrod (1965) and QUADPACK.
Only a panel whose gap misses its share of the tolerance is bisected
(``_adaptive_radial``); the relative part of that tolerance comes from the
sum of the first pass's base panels.  While the angular estimate misses a
quarter of the tolerance, the node counts of every panel double (``mult``)
and the pass reruns.  Where |U| > _LOG_RANGE (|f|^p at p = 1000, say) the
values are in units of e^U, carried back as ``IntegralResult.log_scale``.

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
# an integrand peaking beyond exp(+-_LOG_RANGE) has its values in units of its peak
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
    where the engine integrates |f|^power / exp(peak) instead.
    """

    value: float
    error_estimate: float
    truncation_radius: float
    log_scale: float = 0.0

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be nonnegative")


def _log_unit(f: EntireFunction, power: float, s: float, envelope: tuple[float, float, float]) -> float:
    """U, the largest log of |f|^power e^{-s|z|^2/2} at the origin and at 64
    points on each circle where the envelope (log A, d, K) of f or of one of
    its terms peaks, r solving d / (1 + r) + K = s r: a lower bound on the
    peak, inf or nan where that overflows."""
    radii = {(k - s + math.hypot(s + k, 2.0 * math.sqrt(s * d))) / (2.0 * s)
             for d, k in [envelope[1:]] + [(power * t.degree, power * abs(t.rate)) for t in f.terms]}
    with np.errstate(over="ignore", invalid="ignore"):
        zs = np.append(0j, np.outer(list(radii - {0.0}), np.exp(2j * np.pi * np.arange(64) / 64)))
        return float(np.max(power * symbols.log_abs_grid(f, zs) - s * np.abs(zs) ** 2 / 2.0))


def _log_tail(envelope: tuple[float, float, float], s: float, radius: float) -> float:
    """Log of a rigorous bound on the dA-integral of |f|^power e^{-s|z|^2/2}
    beyond radius, where envelope = (log A, d, K) bounds |f|^power by
    A (1 + r)^d e^{K r} on |z| = r.

    In polar coordinates the tail is the integral of 2 pi e^{h(r)} past R,
    with h(r) = log A + d log(1 + r) + log r + K r - s r^2 / 2 concave, so h
    stays below its tangent at R: the tail is at most 2 pi e^{h(R)} / gamma,
    gamma = -h'(R) = s R - K - d / (1 + R) - 1 / R.  Where gamma <= 0 the
    bound is inf.
    """
    log_amp, degree, rate = envelope
    gamma = s * radius - rate - degree / (1.0 + radius) - 1.0 / radius
    if not gamma > 0.0:
        return math.inf
    return (math.log(2.0 * math.pi / gamma) + log_amp + degree * math.log1p(radius)
            + math.log(radius) + rate * radius - s * radius**2 / 2.0)


def _angular_count(envelope: tuple[float, float, float], r: float, mult: int) -> int:
    # the periodic rule aliases frequencies >= n; the angular spectrum of
    # |f|^power dies superexponentially past power (degree + rate * r), so a
    # factor of three plus margin suffices a priori, with the nested
    # coarse/fine estimate escalating ``mult`` in the rare non-smooth cases
    _, degree, rate = envelope
    n = max(_ANGULAR_MIN_NODES, int(math.ceil(8.0 * degree + 3.0 * rate * r)) + 16)
    n = min(n * mult, _ANGULAR_CAP)
    return n + (n % 2)


def _cusp_points(f: EntireFunction, power: float, radius: float) -> tuple[list[complex], list[complex]]:
    """(edges, graded): the zeros z0 != 0 of f in |z| < radius where |f|^power is
    not smooth, and those of them graded in angle; none where they cannot be certified.

    An m-fold zero makes |f|^power behave like |z - z0|^{power m}, smooth
    when power m is an even integer.  Each other one is a radial panel edge;
    past _CUSP_MAX_ORDER the uniform rule's angular error at its 64-node
    minimum, 64^-(power m + 2), is below 2^-52, so only lower orders are
    graded.  At the origin the cusp r^{power m} has no angle.
    """
    if power % 2.0 == 0.0:  # so is power m, for every m
        return [], []
    cusps = [(z, power * m) for z, m in symbols.zeros(f, radius) or () if z != 0 and (power * m) % 2.0 != 0.0]
    return [z for z, _ in cusps], [z for z, order in cusps if order < _CUSP_MAX_ORDER]


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

    def panel(self, r0: float, r1: float) -> tuple[float, float, float, float]:
        """(value, radial error, angular error, rounding error) over [r0, r1],
        each including dtheta.  The radial error is the gap between the 32-
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
        # an overflow (inf, or inf - inf) makes _integrate raise
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
        return value, radial_err, ang_err, rounding


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
        r0, r1, (part, part_err, part_ang, rounding), depth = stack.pop()
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
    envelope = (power * math.log(amp) if amp > 0 else -math.inf, degree * power, rate * power)
    unit = _log_unit(f, power, s, envelope)
    if unit == -math.inf:  # f vanishes at every probe, as the zero function does: an absolute unit
        unit = 0.0
    if not math.isfinite(unit):
        raise ToleranceNotMet(f"log of the integrand reaches {unit} at its envelope's peak")
    shift = unit if abs(unit) > _LOG_RANGE else 0.0
    # abs_tol is in units of e^unit, the values in units of e^shift
    log_tol = math.log(spec.abs_tol) - math.log(8.0) + unit - shift
    abs_tol = spec.abs_tol * math.exp(unit - shift)
    radius = 2.0  # the smallest of 2, 4, 6, ... whose tail is below abs_tol / 8
    while not (log_tail := math.log(prefactor) + _log_tail(envelope, s, radius) - shift) <= log_tol:
        if radius >= spec.max_radius:
            raise ToleranceNotMet(f"tail bound not below {spec.abs_tol / 8:g} of the peak "
                                  f"at max radius {spec.max_radius}")
        radius = min(radius + 2.0, spec.max_radius)
    cut, graded = _cusp_points(f, power, radius)
    angles = np.unique(np.mod(np.angle(graded), 2.0 * np.pi)) if graded else np.empty(0)
    edges = np.linspace(0.0, radius, max(4, min(48, int(math.ceil(radius / 2.0)))) + 1)
    edges = np.unique(np.concatenate((edges, np.abs(cut)))) if cut else edges
    mult, budget = 1, None
    while True:
        engine = _RadialIntegrator(f, power, envelope, s, mult, angles, shift)
        stack = [(r0, r1, engine.panel(r0, r1), 0) for r0, r1 in zip(edges[:-1], edges[1:])]
        if budget is None:  # the first pass's base panels fix the split budget
            scale = prefactor * sum(panel[0] for _, _, panel, _ in stack)
            budget = max(abs_tol, spec.rel_tol * abs(scale)) / 2.0 / prefactor
        value, radial_err, ang_err, exhausted = _adaptive_radial(engine, stack, radius, budget)
        value, radial_err, ang_err = (prefactor * x for x in (value, radial_err, ang_err))
        if not math.isfinite(value + radial_err + ang_err):  # the peak lies past e^unit times e^109
            raise ToleranceNotMet(f"integrand overflows: value {value:g}, error {radial_err + ang_err:g}")
        tol = max(abs_tol, spec.rel_tol * abs(value))
        if ang_err <= tol / 4.0 or mult >= _MAX_ANGULAR_MULT:
            break
        mult *= 2

    error = radial_err + ang_err + math.exp(log_tail)
    if error > tol and exhausted:
        raise ToleranceNotMet(
            f"refinement budget exhausted: value {value:g}, error estimate {error:g}, tolerance {tol:g}"
        )
    if error > 4.0 * tol:
        raise ToleranceNotMet(f"error estimate {error:g} exceeds tolerance {tol:g} (value {value:g})")
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
