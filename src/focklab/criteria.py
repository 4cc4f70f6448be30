"""Boundedness, compactness and norm-bracket decisions for weighted
composition operators between Fock spaces.

Everything pivots on the pointwise gauge of a symbol pair,

    gauge_z(psi, phi) = |psi(z)| * exp((|phi(z)|^2 - |z|^2) / 2),

whose supremum, limit at infinity and plane integrability decide the
operator-theoretic trichotomy.  For the poly-exp symbol class all of these
are decided symbolically (exactly) from the map's regime, so ``decide``
runs no numerics; ``classify`` adds the numeric norm brackets:

* |a| < 1 (and a = 0): the exponent is a negative-definite quadratic, so
  the supremum is finite and attained, and the gauge vanishes at infinity.
* |a| = 1: the quadratic cancels and gauge_z = |g(z)| e^{|b|^2/2} with
  g = psi * exp(conj(b) a z), a member of the class.  The gauge is bounded
  iff g is constant (an entire function bounded on the plane is constant),
  in which case the gauge is identically |g(0)| e^{|b|^2/2}; otherwise the
  supremum and the limsup are both infinite.
* plane integrability (needed for q < p): a nonzero entire function is
  never in any L^s of the plane, so |a| = 1 always fails.  For |a| < 1 the
  gauge is |g(z)| e^{|b|^2/2} e^{-alpha |z|^2/2} with alpha = 1 - |a|^2,
  and z = u / sqrt(alpha) makes its L^s norm a Fock norm: it is
  e^{|b|^2/2} (2 pi / (s alpha))^{1/s} ||h||_s for the dilated profile
  h(u) = g(u / sqrt(alpha)), finite since h is a member of the class.

Decision rules carry stable tags (``rules`` on the decision and the
classification) that reports cite; see the README catalog.  The annulus
scan is a standalone numeric view of the gauge that no decision reads.
Every pointwise gauge value here (peak, annulus scan and pointwise gauge)
comes from the one vectorized formula ``fock.log_gauge_grid``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import symbols
from .errors import HypothesisViolated, Inadmissible
from .fock import NormValue, fock_norm, gauge_peak, log_gauge_grid
from .operators import FamilySpec, WeightedCompositionOperator, empirical_norm
from .quadrature import DEFAULT_SPEC, QuadratureSpec
from .symbols import AffineMap, EntireFunction, PolyExpTerm

ANNULUS_RADII = tuple(float(2**k) for k in range(1, 11))
_ANNULUS_ANGLES = 512
# one refinement round's angles around the best, in units of its half-width h
_REFINE_OFFSETS = np.linspace(-1.0, 1.0, 17)

RULE_RANK_ONE = "rank-one-compact"
RULE_SUP_BOUNDED = "sup-gauge-boundedness"
RULE_SUP_BRACKET = "sup-gauge-norm-bracket"
RULE_VANISHING = "vanishing-gauge-compactness"
RULE_UNIT_LEAF = "unit-modulus-leaf-weight"
RULE_INTEGRABILITY = "plane-integrability-equivalence"
RULE_HOLDER_UPPER = "holder-norm-upper"
RULE_EMPIRICAL_LOWER = "empirical-lower-bound"
RULE_ESS_BRACKET = "essential-norm-gauge-bracket"
RULE_ESS_UNIT = "unit-modulus-essential-floor"
RULE_ESS_TRIVIAL = "trivial-essential-bounds"


@dataclass(frozen=True)
class GaugeProfile:
    """Sup and limsup of the gauge for one symbol pair.

    The limsup, and the sup when |a| = 1, are symbolic; the sup for |a| < 1
    is the peak ``fock.gauge_peak`` reaches by Newton ascent from a grid.
    A limsup of 0.0 is the exact symbolic zero of Gaussian decay, never a
    rounded small value.  The direction in which an unbounded gauge grows
    is ``Decision.witness``.
    """

    symbolic_sup: float
    symbolic_limsup: float


def _profile(psi: EntireFunction, phi: AffineMap) -> EntireFunction:
    """g = psi * exp(conj(b) a z): the gauge is |g(z)| e^{|b|^2/2} e^{-(1-|a|^2)|z|^2/2}."""
    return symbols.mul(psi, symbols.exp_term(phi.b.conjugate() * phi.a))


def _leaf_level(psi: EntireFunction, phi: AffineMap) -> float | None:
    """For |a| = 1: the constant gauge level |g| e^{|b|^2/2} when the
    profile g is constant (a leaf weight), else None."""
    g = _profile(psi, phi)
    factor = symbols.constant_value(g, tol=symbols.TOL_SYM * max(1.0, abs(phi.a * phi.b)))
    if factor is None:
        return None
    return abs(factor) * symbols.safe_exp(abs(phi.b) ** 2 / 2.0)


def _divergence_direction(psi: EntireFunction, phi: AffineMap) -> complex:
    """A unit direction along which the gauge grows without bound (|a| = 1 case)."""
    dominant = max(_profile(psi, phi).terms, key=lambda t: (abs(t.rate), t.degree))
    if abs(dominant.rate) <= symbols.TOL_SYM:
        return 1 + 0j
    return dominant.rate.conjugate() / abs(dominant.rate)


def gauge_profile(psi: EntireFunction, phi: AffineMap) -> GaugeProfile:
    """Sup/limsup profile of the gauge for one symbol pair."""
    if psi.is_zero:
        return GaugeProfile(0.0, 0.0)
    if phi.is_unit_modulus:
        level = _leaf_level(psi, phi)
        return GaugeProfile(math.inf, math.inf) if level is None else GaugeProfile(level, level)
    # |a| < 1 (constant maps included): Gaussian decay wins, limsup is exactly 0
    _, best = gauge_peak(psi, phi)
    return GaugeProfile(symbols.safe_exp(best), 0.0)


def annulus_sups(psi: EntireFunction, phi: AffineMap,
                 radii: tuple[float, ...] = ANNULUS_RADII) -> tuple[tuple[float, float], ...]:
    """(r, sup of the gauge on |z| = r) per radius: a numeric view of how the
    gauge approaches its limsup.  No decision reads it.

    Every circle is scanned at _ANNULUS_ANGLES angles in one grid call, then
    all best angles are refined together: each round evaluates 17 angles
    across +-h around the current best in one grid call and divides h by 8,
    from one grid spacing down to 1e-10.
    """
    rs = np.asarray(radii, dtype=float)[:, None]
    rows = np.arange(rs.shape[0])
    h = 2.0 * math.pi / _ANNULUS_ANGLES
    thetas = np.tile(h * np.arange(_ANNULUS_ANGLES), (rows.size, 1))
    theta, best = np.zeros(rows.shape), np.full(rows.shape, -np.inf)
    while True:
        logs = log_gauge_grid(psi, phi, rs * np.exp(1j * thetas))
        k = np.argmax(logs, axis=1)
        higher = logs[rows, k] > best
        theta = np.where(higher, thetas[rows, k], theta)
        best = np.where(higher, logs[rows, k], best)
        if h <= 1e-10:
            break
        thetas = theta[:, None] + h * _REFINE_OFFSETS[None, :]
        h /= 8.0
    return tuple((r, symbols.safe_exp(float(v))) for r, v in zip(radii, best))


def gauge_plane_norm(psi: EntireFunction, phi: AffineMap, p: float, q: float,
                     spec: QuadratureSpec | None = None) -> float:
    """L^{pq/(p-q)} plane norm of the gauge (q < p); inf when not integrable.

    Symbolic prefilter: for |a| = 1 a nonzero entire profile is never plane
    integrable, so the norm is infinite without quadrature.  For |a| < 1 it
    is the Fock norm of the dilated profile (module docstring), scaled in the
    log domain; a value past the float range reads inf.
    """
    if not 0 < q < p:
        raise HypothesisViolated("plane norm of the gauge requires 0 < q < p")
    if phi.is_constant_map:
        raise HypothesisViolated("a = 0 is decided by the rank-one branch, not integrability")
    if phi.is_unit_modulus:
        return math.inf
    if psi.is_zero:
        return 0.0
    s = p * q / (p - q)
    alpha = 1.0 - abs(phi.a) ** 2
    log_factor = symbols.square(abs(phi.b)) / 2.0 + math.log(2.0 * math.pi / (s * alpha)) / s
    if math.isinf(log_factor):  # |b|^2 past the float range
        return math.inf
    t = 1.0 / math.sqrt(alpha)
    try:  # h(u) = g(t u), term by term: AffineMap refuses the slope t > 1
        h = EntireFunction(tuple(
            PolyExpTerm(tuple(c * t**k for k, c in enumerate(term.coeffs)), term.rate * t)
            for term in _profile(psi, phi).terms))
    except (OverflowError, Inadmissible):  # a coefficient or rate past the float range
        return math.inf
    norm = fock_norm(h, s, spec).value
    value = norm * symbols.safe_exp(log_factor)
    # the factor alone can overflow where the product does not
    return value if math.isfinite(value) else symbols.safe_exp(math.log(norm) + log_factor)


class Verdict(str, Enum):
    UNBOUNDED = "Unbounded"
    BOUNDED_NONCOMPACT = "BoundedNonCompact"
    COMPACT = "Compact"


@dataclass(frozen=True)
class Decision:
    """The symbolic part of a classification.

    ``limsup`` is the limsup of the gauge at infinity: 0 for |a| < 1, the
    leaf level for a unit-modulus leaf weight, inf otherwise.
    """

    verdict: Verdict
    rules: tuple[str, ...]
    witness: complex | None
    limsup: float


def decide(op: WeightedCompositionOperator) -> Decision:
    """Verdict, rule tags, witness direction and gauge limsup of an operator.

    Read off the map's regime (a = 0, |a| < 1 or |a| = 1), the unit-modulus
    leaf test and p vs q alone: no ascent, no scan, no quadrature.
    """
    psi, phi, p, q = op.psi, op.phi, op.p, op.q
    if phi.is_constant_map:
        return Decision(Verdict.COMPACT, (RULE_RANK_ONE,), None, 0.0)
    if not phi.is_unit_modulus:
        rules = ((RULE_INTEGRABILITY, RULE_HOLDER_UPPER, RULE_EMPIRICAL_LOWER) if q < p
                 else (RULE_SUP_BOUNDED, RULE_SUP_BRACKET, RULE_VANISHING))
        return Decision(Verdict.COMPACT, rules, None, 0.0)
    level = _leaf_level(psi, phi)
    limsup = math.inf if level is None else level
    if q < p or level is None:
        # q < p: a nonzero entire profile is never plane integrable
        rule = RULE_INTEGRABILITY if q < p else RULE_SUP_BOUNDED
        return Decision(Verdict.UNBOUNDED, (rule,), _divergence_direction(psi, phi), limsup)
    ess_rule = RULE_ESS_BRACKET if p > 1.0 else RULE_ESS_TRIVIAL
    return Decision(Verdict.BOUNDED_NONCOMPACT,
                    (RULE_SUP_BOUNDED, RULE_SUP_BRACKET, RULE_UNIT_LEAF, ess_rule), None, limsup)


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    witness: complex | None
    norm_lower: float
    norm_upper: float
    ess_lower: float
    ess_upper: float
    ls_norm: float | None
    rules: tuple[str, ...]
    # a = 0 only: ||psi||_q, the operator's norm over e^{|b|^2/2}
    weight_norm: NormValue | None = None

    def __post_init__(self):
        if self.norm_lower > self.norm_upper * (1 + 1e-12):
            raise ValueError("norm_lower must not exceed norm_upper")
        if self.ess_lower > self.ess_upper * (1 + 1e-12):
            raise ValueError("ess_lower must not exceed ess_upper")
        if self.ess_upper > self.norm_upper * (1 + 1e-12):
            raise ValueError("ess_upper must not exceed norm_upper")
        if self.verdict is Verdict.COMPACT and (self.ess_lower, self.ess_upper) != (0.0, 0.0):
            raise ValueError("compact operators have essential norm zero")


def classify(op: WeightedCompositionOperator,
             spec: QuadratureSpec | None = None,
             family: FamilySpec | None = None) -> Classification:
    """``decide`` plus the numeric norm and essential-norm brackets.

    p <= q: bounded iff the gauge supremum is finite, compact iff the gauge
    vanishes at infinity, with bracket m <= ||W|| <= (q/(p|a|^2))^{1/q} m.
    q < p: bounded iff compact iff the gauge is plane integrable; the upper
    bound is the Hoelder constant times the plane norm, the lower bound is
    empirical.  a = 0: rank one, hence compact, with ||W|| <= e^{|b|^2/2} ||psi||_q.
    A supremum whose exponential overflows is reported as the bracket
    [float_info.max, inf].
    """
    spec = spec or DEFAULT_SPEC
    psi, phi, p, q = op.psi, op.phi, op.p, op.q
    decision = decide(op)

    if decision.verdict is Verdict.UNBOUNDED:
        return Classification(
            Verdict.UNBOUNDED, decision.witness, math.inf, math.inf, math.inf, math.inf,
            math.inf if q < p else None, decision.rules,
        )

    if phi.is_constant_map:
        # the gauge sup can equal the bound exactly (kernel-type weights), so
        # the quadrature-based upper side carries its certified error
        weight_norm = fock_norm(psi, q, spec)
        upper = symbols.safe_exp(symbols.square(abs(phi.b)) / 2.0) * weight_norm.upper
        m = min(gauge_profile(psi, phi).symbolic_sup, sys.float_info.max)
        return Classification(Verdict.COMPACT, None, m, upper, 0.0, 0.0, None, decision.rules,
                              weight_norm)

    if q < p:
        ls = gauge_plane_norm(psi, phi, p, q, spec)
        upper = (q / (2.0 * math.pi)) ** (1.0 / q) * (2.0 * math.pi / (p * abs(phi.a) ** 2)) ** (1.0 / p) * ls
        lower = empirical_norm(op, family, spec)
        return Classification(Verdict.COMPACT, None, lower, upper, 0.0, 0.0, ls, decision.rules)

    # p <= q, 0 < |a| <= 1; a leaf's gauge is constant, so its sup is the limsup
    bracket_factor = (q / (p * abs(phi.a) ** 2)) ** (1.0 / q)
    sup = decision.limsup if phi.is_unit_modulus else gauge_profile(psi, phi).symbolic_sup
    # an overflowed sup exceeds float_info.max, which stays a true lower bound
    m, upper = min(sup, sys.float_info.max), bracket_factor * sup
    if decision.verdict is Verdict.COMPACT:
        return Classification(Verdict.COMPACT, None, m, upper, 0.0, 0.0, None, decision.rules)
    # the bracket's raw upper side can exceed the operator-norm bound (both
    # bound the essential norm); the classification keeps the min
    ess = (m, min(2.0 * bracket_factor * sup, upper)) if p > 1.0 else (0.0, upper)
    return Classification(
        Verdict.BOUNDED_NONCOMPACT, None, m, upper, ess[0], ess[1], None, decision.rules,
    )


def essential_norm_bracket(op: WeightedCompositionOperator) -> tuple[float, float]:
    """(limsup, 2 (q/(p|a|^2))^{1/q} limsup) for bounded operators with 1 < p <= q.

    Refuses outside that exponent range: the bracket is not available there.
    A limsup whose exponential overflows has the lower side float_info.max.
    """
    p, q = op.p, op.q
    if p <= 1.0:
        raise HypothesisViolated("essential norm bracket requires p > 1")
    if p > q:
        raise HypothesisViolated("essential norm bracket requires p <= q")
    decision = decide(op)
    if decision.verdict is Verdict.UNBOUNDED:
        raise HypothesisViolated("essential norm is defined for bounded operators only")
    limsup = decision.limsup
    if limsup == 0.0:
        return (0.0, 0.0)
    factor = 2.0 * (q / (p * abs(op.phi.a) ** 2)) ** (1.0 / q)
    return (min(limsup, sys.float_info.max), factor * limsup)


def dilation_compose(op: WeightedCompositionOperator, r: float) -> WeightedCompositionOperator:
    """Shrink the map's slope: same weight, phi_r(z) = phi(r z) = (r a) z + b.

    The r -> 1 family realizes the compact approximants whose distance to the
    original operator witnesses the essential-norm upper bound numerically.
    """
    if not 0.0 < r < 1.0:
        raise ValueError("dilation parameter must lie in (0, 1)")
    return WeightedCompositionOperator(op.psi, AffineMap(r * op.phi.a, op.phi.b), op.p, op.q)
