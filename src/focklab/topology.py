"""Topological structure of the operator spaces: compact differences, path
components, isolated points, and numeric path profiles.

All decisions here are sharp dichotomies read off ``criteria.decide``, which
runs no numerics; the numeric output (path increment profiles) demonstrates
the decisions, it never makes them.

Component picture for the space of nonzero weighted composition operators:
when the domain exponent exceeds the codomain exponent the whole space is
path connected; otherwise it splits into the bulk of operators with
|a| < 1 (all connected to each other through compact composition
operators) plus one leaf per unit-modulus map, whose members are exactly
the multiples of exp(-conj(b) a z).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from . import symbols
from .criteria import Verdict, decide, dilation_compose
from .errors import HypothesisViolated, NotBounded
from .operators import (
    WeightedCompositionOperator,
    composition_operator,
    empirical_distance,
    f2_matrix,
    matrix_sigma_max,
)
from .quadrature import DEFAULT_SPEC, QuadratureSpec
from .symbols import AffineMap, EntireFunction

RULE_DIFF_BOTH_COMPACT = "difference-both-compact"
RULE_DIFF_SAME_MAP = "difference-same-map-vanishing-gauge"
RULE_COMPONENTS = "component-decomposition"
RULE_FULL_CONNECTED = "full-connectivity-large-to-small"
RULE_ISOLATION = "noncompact-isolation"

_DETOUR_TOL = 1e-9
# each step costs a distance between neighbouring operators; the cap keeps
# the list of path points from growing without bound
MAX_PATH_STEPS = 1000


class DifferenceReason(str, Enum):
    BOTH_COMPACT = "BothCompact"
    SAME_SYMBOL_VANISHING = "SameSymbolVanishing"
    NOT_COMPACT = "NotCompact"


@dataclass(frozen=True)
class DifferenceVerdict:
    reason: DifferenceReason
    detail: str

    @property
    def compact(self) -> bool:
        return self.reason is not DifferenceReason.NOT_COMPACT


class ComponentKind(str, Enum):
    ALL_CONNECTED = "AllConnected"
    COMPACT_BULK = "CompactBulk"
    UNIT_MODULUS_LEAF = "UnitModulusLeaf"


@dataclass(frozen=True)
class ComponentId:
    kind: ComponentKind
    leaf_key: tuple[complex, complex] | None = None

    def __post_init__(self):
        if (self.leaf_key is not None) != (self.kind is ComponentKind.UNIT_MODULUS_LEAF):
            raise ValueError("leaf_key present iff the component is a unit-modulus leaf")


def compact_difference(first: WeightedCompositionOperator,
                       second: WeightedCompositionOperator) -> DifferenceVerdict:
    """Exact compactness decision for W1 - W2 (requires 0 < p <= q).

    Compact iff both operators are compact, or the maps coincide and the
    gauge of the weight difference vanishes at infinity (the difference is
    then itself a weighted composition operator with weight psi1 - psi2).
    For q < p the question reduces to plain classification, since
    boundedness and compactness coincide there; the operation refuses and
    says so rather than restating classify.
    """
    if first.p != second.p or first.q != second.q:
        raise ValueError("operators must share domain and codomain exponents")
    if first.q < first.p:
        raise HypothesisViolated(
            "compact differences are characterized for p <= q only; for q < p "
            "boundedness and compactness coincide, so classify each operator instead"
        )
    left = decide(first)
    right = decide(second)
    if left.verdict is Verdict.UNBOUNDED or right.verdict is Verdict.UNBOUNDED:
        raise NotBounded("compact differences are defined for bounded operators")

    if first.phi.isclose(second.phi):
        delta = symbols.sub(first.psi, second.psi)
        limsup = 0.0 if delta.is_zero else decide(
            WeightedCompositionOperator(delta, first.phi, first.p, first.q)).limsup
        if limsup == 0.0:
            return DifferenceVerdict(
                DifferenceReason.SAME_SYMBOL_VANISHING,
                "maps coincide and the weight-difference gauge vanishes at infinity",
            )
        return DifferenceVerdict(
            DifferenceReason.NOT_COMPACT,
            f"maps coincide but the weight-difference gauge has limsup {limsup:g}",
        )

    if left.verdict is Verdict.COMPACT and right.verdict is Verdict.COMPACT:
        return DifferenceVerdict(DifferenceReason.BOTH_COMPACT, "both operators are compact")

    return DifferenceVerdict(DifferenceReason.NOT_COMPACT,
                             "maps differ and not both operators are compact")


def component_id(op: WeightedCompositionOperator) -> ComponentId:
    """Path component of a bounded operator in the nonzero-weight operator space."""
    if decide(op).verdict is Verdict.UNBOUNDED:
        raise NotBounded("component membership is defined for bounded operators")
    if op.q < op.p:
        return ComponentId(ComponentKind.ALL_CONNECTED)
    if op.phi.is_unit_modulus:
        return ComponentId(ComponentKind.UNIT_MODULUS_LEAF, (op.phi.a, op.phi.b))
    return ComponentId(ComponentKind.COMPACT_BULK)


def is_isolated(phi: AffineMap, p: float, q: float) -> bool:
    """Whether the composition operator of phi is isolated among composition operators.

    For p <= q exactly the non-compact ones are isolated, i.e. |a| = 1 (and
    then necessarily b = 0 for boundedness).  For q < p the space is path
    connected and the question is refused.
    """
    if q < p:
        raise HypothesisViolated(
            "no isolated points for q < p: the composition-operator space is path connected"
        )
    if decide(composition_operator(phi, p, q)).verdict is Verdict.UNBOUNDED:
        raise NotBounded("the composition operator of this map is not bounded")
    return phi.is_unit_modulus


class PathKind(str, Enum):
    DILATE = "dilate"
    TRANSLATE = "translate"
    WEIGHT = "weight"


def weight_path(psi1: EntireFunction, psi2: EntireFunction,
                ts: Sequence[float]) -> list[EntireFunction]:
    """The weights u_t = (1 - alpha(t)) psi1 + alpha(t) psi2 at each t.

    alpha(t) = t, unless the weights are proportional with ratio lam and the
    straight segment [0, 1] hits the forbidden blend 1/(1-lam), where u
    vanishes; alpha then takes the arc t + (i/2) sin(pi t) around it.
    """
    lam = symbols.proportionality_ratio(psi1, psi2)
    forbidden = None if lam is None or lam == 1 else 1.0 / (1.0 - lam)
    if (forbidden is not None and abs(forbidden.imag) <= _DETOUR_TOL
            and -_DETOUR_TOL <= forbidden.real <= 1.0 + _DETOUR_TOL):
        alpha = [t + 0.5j * math.sin(math.pi * t) for t in ts]
    else:
        alpha = [complex(t) for t in ts]
    return [symbols.add(symbols.scale(psi1, 1.0 - a), symbols.scale(psi2, a)) for a in alpha]


def path_profile(kind: PathKind | str, *, steps: int, p: float, q: float,
                 phi: AffineMap | None = None,
                 psi1: EntireFunction | None = None,
                 psi2: EntireFunction | None = None,
                 b1: complex | None = None,
                 b2: complex | None = None,
                 spec: QuadratureSpec | None = None,
                 matrix_order: int = 48) -> list[tuple[float, float]]:
    """Numeric increment profile along one of the canonical connecting paths.

    Returns (t_i, distance(W at t_{i-1}, W at t_i)) on the uniform grid
    t_i = i / steps.  The three kinds:

    * ``dilate``: a compact composition operator slides to the constant-map
      operator through phi_s(z) = phi(s z).
    * ``translate``: two constant-map composition operators join through the
      line of constants between them.
    * ``weight``: two admissible weights over one shared map join through
      the weights of ``weight_path``, a straight blend of psi1 and psi2 or,
      where that blend would vanish, a fixed arc around the forbidden point.

    ``steps`` runs from 1 to ``MAX_PATH_STEPS``.
    """
    kind = PathKind(kind)
    if not 1 <= steps <= MAX_PATH_STEPS:
        raise HypothesisViolated(f"steps must lie in [1, {MAX_PATH_STEPS}]")
    spec = spec or DEFAULT_SPEC
    ts = [i / steps for i in range(steps + 1)]

    if kind is PathKind.DILATE:
        if phi is None:
            raise HypothesisViolated("the dilate path needs the map phi")
        base = composition_operator(phi, p, q)
        if decide(base).verdict is not Verdict.COMPACT:
            raise HypothesisViolated("the dilation path starts from a compact composition operator")
        ops = [composition_operator(AffineMap(0.0, phi.b), p, q) if t == 0.0
               else dilation_compose(base, t) if t < 1.0 else base
               for t in ts]
    elif kind is PathKind.TRANSLATE:
        if b1 is None or b2 is None:
            raise HypothesisViolated("the translate path needs the endpoint constants b1 and b2")
        ops = [composition_operator(AffineMap(0.0, (1 - t) * b1 + t * b2), p, q) for t in ts]
    else:
        if phi is None or psi1 is None or psi2 is None:
            raise HypothesisViolated("the weight path needs phi and both weights psi1 and psi2")
        ops = [WeightedCompositionOperator(u, phi, p, q) for u in weight_path(psi1, psi2, ts)]

    if p == 2.0 and q == 2.0:
        # Hilbert-Hilbert case: truncated-matrix sigma is the sharper witness;
        # each step's matrix is built once and serves both of its increments;
        # only two are held at a time
        matrices = (f2_matrix(op, matrix_order, check_tail=False).entries for op in ops)
        distances = [matrix_sigma_max(a - b) for a, b in itertools.pairwise(matrices)]
    else:
        distances = [empirical_distance(a, b, spec=spec) for a, b in zip(ops, ops[1:])]
    return list(zip(ts[1:], distances))
