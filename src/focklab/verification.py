"""Acceptance checks: closed-form oracles and property suites, runnable at
desk scale.

Each check returns a CheckResult with the worst observed deviation in its
detail string; the CLI ``verify`` subcommand prints one line per check and
the pytest acceptance module asserts them individually.  Checks draw their
randomness from a seeded generator, so runs replay exactly.

Tolerances are those of the acceptance contract, pinned here:
closed-form oracle agreement at 1e-8/1e-9 relative, inequality checks with
1e-6..1e-8 slack to absorb certified quadrature error, symbolic decisions
exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import symbols
from .criteria import (
    ANNULUS_RADII,
    Verdict,
    annulus_sups,
    classify,
    essential_norm_bracket,
    gauge_plane_norm,
    gauge_profile,
)
from .errors import FocklabError, HypothesisViolated
from .fock import (
    check_embedding,
    check_growth_inequalities,
    fock_norm,
    gauge_at,
    kernel,
)
from .operators import (
    FamilySpec,
    WeightedCompositionOperator,
    berezin,
    composition_operator,
    empirical_distance,
    f2_matrix,
    matrix_sigma_max,
)
from .quadrature import CHECK_SPEC, gaussian_integral, polar_grid
from .sampling import (
    random_affine,
    random_bounded_operator,
    random_complex,
    random_entire_function,
    unit_leaf_weight,
)
from .symbols import AffineMap
from .topology import (
    ComponentKind,
    DifferenceReason,
    compact_difference,
    component_id,
    is_isolated,
    weight_path,
)

SMALL_FAMILY = FamilySpec(kernel_radius=4.0, kernel_radii=6, kernel_angles=8,
                          monomial_degree=10)
# the default 193 kernels and the constant, whose image difference under two
# composition operators is zero
KERNEL_FAMILY = FamilySpec(monomial_degree=0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def check_kernel_normalization(rng: np.random.Generator, fast: bool = False) -> CheckResult:
    """Every kernel function has unit norm in every Fock space."""
    worst = 0.0
    for w in (0j, 1 + 1j, 3 - 2j, 4 + 0j):
        for p in (0.5, 1.0, 2.0, 3.7):
            worst = max(worst, abs(fock_norm(kernel(w), p).value - 1.0))
    return _result("kernel-normalization", worst < 1e-8, f"max |norm - 1| = {worst:.3e}")


def check_monomial_oracle(rng: np.random.Generator, fast: bool = False) -> CheckResult:
    """Monomial norms and Gaussian moments against the Gamma-integral oracle."""
    worst_norm = 0.0
    for n in range(13):
        exact = math.exp(0.5 * math.lgamma(n + 1))
        got = fock_norm(symbols.monomial(n), 2.0).value
        worst_norm = max(worst_norm, abs(got - exact) / exact)
    worst_moment = 0.0
    for p in (0.5, 1.0, 2.0, 4.0):
        for n in range(13):
            exact = (2.0 / p) ** n * math.factorial(n)
            got = gaussian_integral(symbols.monomial(n), 2.0, p).value
            worst_moment = max(worst_moment, abs(got - exact) / exact)
    passed = worst_norm < 1e-8 and worst_moment < 1e-9
    return _result(
        "monomial-oracle", passed,
        f"norm rel err {worst_norm:.3e}, moment rel err {worst_moment:.3e}",
    )


def check_growth_bounds(rng: np.random.Generator, fast: bool = False) -> CheckResult:
    """Pointwise and derivative growth bounds with their exact constants."""
    count = 12 if fast else 50
    exponents = (0.5, 1.0, 2.0, 3.7)
    worst_point, worst_deriv = 0.0, 0.0
    for k in range(count):
        f = random_entire_function(rng)
        p = exponents[k % len(exponents)]
        pointwise, derivative = check_growth_inequalities(f, p, spec=CHECK_SPEC)
        worst_point = max(worst_point, pointwise.max_ratio)
        worst_deriv = max(worst_deriv, derivative.max_ratio)
    passed = worst_point <= 1.0 + 1e-8 and worst_deriv <= 1.0 + 1e-8
    return _result(
        "growth-bound-suite", passed,
        f"max pointwise ratio {worst_point:.12f}, max derivative ratio {worst_deriv:.12f}",
    )


def check_embedding_suite(rng: np.random.Generator, fast: bool = False) -> CheckResult:
    """Inclusion constants (q/p)^{1/q} across three exponent pairs."""
    count = 20 if fast else 100
    worst = 0.0
    pairs = ((0.5, 1.0), (1.0, 2.0), (2.0, 5.0))
    for k in range(count):
        f = random_entire_function(rng)
        p, q = pairs[k % len(pairs)]
        worst = max(worst, check_embedding(f, p, q, spec=CHECK_SPEC).ratio)
    return _result("embedding-suite", worst <= 1.0 + 1e-8, f"max ratio {worst:.12f}")


def check_norm_chain(rng: np.random.Generator, fast: bool = False) -> CheckResult:
    """gauge_z <= ||W k_{phi(z)}||_q <= theoretical norm upper bound on grids."""
    count = 5 if fast else 20
    pairs = ((2.0, 2.0), (1.0, 2.0), (2.0, 4.0), (1.5, 3.0))
    grid = polar_grid(4.0, 10, 8)
    worst_left, worst_right = 0.0, 0.0
    for k in range(count):
        p, q = pairs[k % len(pairs)]
        op = random_bounded_operator(rng, p, q, allow_unit=True)
        upper = classify(op, CHECK_SPEC).norm_upper
        for z in grid:
            witness = berezin(op, op.phi(z), CHECK_SPEC) ** (1.0 / q)
            lower = gauge_at(op.psi, op.phi, z)
            if witness > 0:
                worst_left = max(worst_left, lower / witness)
            worst_right = max(worst_right, witness / upper)
    passed = worst_left <= 1.0 + 1e-6 and worst_right <= 1.0 + 1e-6
    return _result(
        "norm-chain", passed,
        f"max gauge/witness {worst_left:.9f}, max witness/upper {worst_right:.9f}",
    )


def check_diagonal_sigma(rng: np.random.Generator, fast: bool = False) -> CheckResult:
    """Truncated-matrix oracle: diagonal operators and bracket containment."""
    worst_diag = 0.0
    for modulus in (0.3, 0.7, 1.0):
        phi = AffineMap(modulus * complex(math.cos(0.9), math.sin(0.9)), 0.0)
        sigma = matrix_sigma_max(f2_matrix(composition_operator(phi, 2.0, 2.0), 64))
        worst_diag = max(worst_diag, abs(sigma - 1.0))

    count = 6 if fast else 20
    worst_low, worst_high = 0.0, 0.0
    for _ in range(count):
        op = random_bounded_operator(rng, 2.0, 2.0, a_max=0.6, b_radius=0.6,
                                     rate_radius=0.6)
        c = classify(op, CHECK_SPEC)
        sigma = matrix_sigma_max(f2_matrix(op, 64, check_tail=False))
        worst_low = max(worst_low, c.norm_lower / sigma)
        worst_high = max(worst_high, sigma / c.norm_upper)
    passed = worst_diag < 1e-10 and worst_low <= 1.0 + 1e-8 and worst_high <= 1.0 + 1e-8
    return _result(
        "diagonal-sigma-bracket", passed,
        f"diag |sigma-1| {worst_diag:.3e}, m/sigma {worst_low:.12f}, sigma/upper {worst_high:.12f}",
    )


def check_classification_table(rng: np.random.Generator, fast: bool = False) -> CheckResult:
    """The exact boundedness/compactness truth table over |a| and exponent order."""
    unit = complex(math.cos(0.7), math.sin(0.7))
    one = symbols.ONE
    rows: list[tuple[WeightedCompositionOperator, Verdict]] = []

    def op(psi, a, b, p, q):
        return WeightedCompositionOperator(psi, AffineMap(a, b), p, q)

    rows.append((op(one, 0.0, 0.5, 1.0, 2.0), Verdict.COMPACT))
    rows.append((op(one, 0.0, 0.5, 3.0, 2.0), Verdict.COMPACT))
    rows.append((op(one, 0.5, 0.0, 1.0, 2.0), Verdict.COMPACT))
    rows.append((op(one, 0.5, 1.0, 1.0, 2.0), Verdict.COMPACT))
    rows.append((op(one, 0.5, 0.0, 3.0, 2.0), Verdict.COMPACT))
    rows.append((op(one, 0.5, 1.0, 3.0, 2.0), Verdict.COMPACT))
    rows.append((op(one, unit, 0.0, 2.0, 2.0), Verdict.BOUNDED_NONCOMPACT))
    rows.append((op(one, unit, 0.0, 2.0, 4.0), Verdict.BOUNDED_NONCOMPACT))
    rows.append((op(one, unit, 0.0, 3.0, 2.0), Verdict.UNBOUNDED))
    rows.append((op(one, unit, 1.0, 1.0, 2.0), Verdict.UNBOUNDED))
    rows.append((op(one, unit, 1.0, 3.0, 2.0), Verdict.UNBOUNDED))
    leaf_phi = AffineMap(unit, 1.0)
    leaf_psi = unit_leaf_weight(leaf_phi, 2 + 1j)
    rows.append((WeightedCompositionOperator(leaf_psi, leaf_phi, 2.0, 2.0),
                 Verdict.BOUNDED_NONCOMPACT))
    rows.append((WeightedCompositionOperator(leaf_psi, leaf_phi, 3.0, 2.0),
                 Verdict.UNBOUNDED))
    rows.append((op(symbols.variable(), 1.0, 0.0, 2.0, 2.0), Verdict.UNBOUNDED))

    failures = []
    for k, (operator, expected) in enumerate(rows):
        got = classify(operator, CHECK_SPEC, SMALL_FAMILY).verdict
        if got is not expected:
            failures.append(f"row {k}: expected {expected.value}, got {got.value}")
    return _result(
        "classification-table", not failures,
        "all rows reproduced" if not failures else "; ".join(failures),
    )


def check_essential_norm(rng: np.random.Generator, fast: bool = False) -> CheckResult:
    """Essential-norm brackets: the unit-modulus floor and the compact zero."""
    unit = complex(math.cos(1.1), math.sin(1.1))
    lo, hi = essential_norm_bracket(composition_operator(AffineMap(unit, 0.0), 2.0, 2.0))
    exact_ok = abs(lo - 1.0) < 1e-12 and abs(hi - 2.0) < 1e-12

    count = 4 if fast else 10
    worst = 0.0
    for _ in range(count):
        phi = random_affine(rng, regime="unit")
        c = random_complex(rng, 1.5) + 0.5
        op = WeightedCompositionOperator(unit_leaf_weight(phi, c), phi, 2.0, 3.0)
        level = abs(c) * math.exp(abs(phi.b) ** 2 / 2.0)
        numeric_limsup = annulus_sups(op.psi, op.phi, ANNULUS_RADII[-1:])[0][1]
        worst = max(worst, abs(numeric_limsup - level) / level)
        lo, hi = essential_norm_bracket(op)
        if not math.isclose(lo, level, rel_tol=1e-9):
            worst = max(worst, 1.0)

    compact_op = WeightedCompositionOperator(
        symbols.add(symbols.ONE, symbols.variable()), AffineMap(0.5, 0.3), 2.0, 3.0
    )
    compact_ok = essential_norm_bracket(compact_op) == (0.0, 0.0)
    passed = exact_ok and worst < 1e-6 and compact_ok
    return _result(
        "essential-norm", passed,
        f"unit bracket exact: {exact_ok}, leaf limsup rel err {worst:.3e}, compact zero: {compact_ok}",
    )


def check_separation(rng: np.random.Generator, fast: bool = False) -> CheckResult:
    """Kernel-witness distance between distinct bounded composition operators."""
    identity = composition_operator(AffineMap(1.0, 0.0), 2.0, 2.0)
    d1, d2 = (empirical_distance(identity, composition_operator(AffineMap(a, 0.0), 2.0, 2.0),
                                 KERNEL_FAMILY, CHECK_SPEC) for a in (-1.0, 0.5))
    passed = d1 >= 0.99 and d2 >= 0.99
    return _result("separation", passed, f"opposite maps {d1:.6f}, halved map {d2:.6f}")


def check_compact_difference_table(rng: np.random.Generator, fast: bool = False) -> CheckResult:
    """The difference decision table plus symmetry and self-difference laws."""
    failures = []
    p = q = 2.0
    half = AffineMap(0.5, 0.0)
    w1 = WeightedCompositionOperator(symbols.ONE, half, p, q)
    w2 = WeightedCompositionOperator(symbols.add(symbols.variable(), symbols.ONE), half, p, q)
    v = compact_difference(w1, w2)
    if not (v.compact and v.reason is DifferenceReason.SAME_SYMBOL_VANISHING):
        failures.append(f"shared compact map: {v.reason.value}")

    c_plus = composition_operator(AffineMap(1.0, 0.0), p, q)
    c_minus = composition_operator(AffineMap(-1.0, 0.0), p, q)
    if compact_difference(c_plus, c_minus).compact:
        failures.append("opposite rotations flagged compact")

    theta = complex(math.cos(0.9), math.sin(0.9))
    leaf_phi = AffineMap(theta, 1.0)
    w_leaf1 = WeightedCompositionOperator(unit_leaf_weight(leaf_phi, 1.0), leaf_phi, p, q)
    w_leaf2 = WeightedCompositionOperator(unit_leaf_weight(leaf_phi, 2.0), leaf_phi, p, q)
    v = compact_difference(w_leaf1, w_leaf2)
    expected_level = abs(1.0 - 2.0) * math.exp(0.5)
    delta_profile = gauge_profile(symbols.sub(w_leaf1.psi, w_leaf2.psi), leaf_phi)
    if v.compact:
        failures.append("distinct leaf weights flagged compact")
    if not math.isclose(delta_profile.symbolic_limsup, expected_level, rel_tol=1e-9):
        failures.append(
            f"leaf difference gauge {delta_profile.symbolic_limsup} != {expected_level}"
        )

    count = 6 if fast else 20
    for _ in range(count):
        a = random_bounded_operator(rng, p, q, allow_unit=True)
        b = random_bounded_operator(rng, p, q, allow_unit=True)
        fwd = compact_difference(a, b)
        rev = compact_difference(b, a)
        if fwd.compact != rev.compact or fwd.reason is not rev.reason:
            failures.append("difference verdict is not symmetric")
        own = compact_difference(a, a)
        if not (own.compact and own.reason is DifferenceReason.SAME_SYMBOL_VANISHING):
            failures.append("self-difference is not the vanishing case")
    return _result(
        "compact-difference-table", not failures,
        "all rows and laws hold" if not failures else "; ".join(sorted(set(failures))),
    )


def check_components_isolation(rng: np.random.Generator, fast: bool = False) -> CheckResult:
    """Component labels, isolated points, and leaf path interior boundedness."""
    failures = []
    unit = complex(math.cos(0.4), math.sin(0.4))

    cases = [
        (WeightedCompositionOperator(
            symbols.add(symbols.constant(3.0), symbols.variable()),
            AffineMap(0.5, 2.0), 1.0, 2.0), ComponentKind.COMPACT_BULK),
        (WeightedCompositionOperator(
            unit_leaf_weight(AffineMap(1.0, 1.0), 1.0), AffineMap(1.0, 1.0), 2.0, 2.0),
         ComponentKind.UNIT_MODULUS_LEAF),
        (WeightedCompositionOperator(
            symbols.add(symbols.ONE, symbols.variable()), AffineMap(0.4, 0.2), 3.0, 2.0),
         ComponentKind.ALL_CONNECTED),
        (composition_operator(AffineMap(0.0, 0.7), 1.0, 1.0), ComponentKind.COMPACT_BULK),
        (composition_operator(AffineMap(unit, 0.0), 0.5, 2.0), ComponentKind.UNIT_MODULUS_LEAF),
        (composition_operator(AffineMap(0.3, 0.1), 2.0, 1.0), ComponentKind.ALL_CONNECTED),
    ]
    for k, (op, expected) in enumerate(cases):
        got = component_id(op)
        if got.kind is not expected:
            failures.append(f"component case {k}: got {got.kind.value}")

    if not is_isolated(AffineMap(unit, 0.0), 2.0, 2.0):
        failures.append("unit rotation not isolated")
    if is_isolated(AffineMap(0.5, 1.0), 1.0, 2.0):
        failures.append("compact symbol isolated")
    if is_isolated(AffineMap(0.0, 0.4), 2.0, 2.0):
        failures.append("constant map isolated")
    try:
        is_isolated(AffineMap(0.5, 0.0), 3.0, 2.0)
        failures.append("q < p isolation question not refused")
    except HypothesisViolated:
        pass

    # classify <-> component consistency on random bounded operators
    for _ in range(4 if fast else 8):
        op = random_bounded_operator(rng, 1.0, 2.0, allow_unit=True)
        verdict = classify(op, CHECK_SPEC).verdict
        kind = component_id(op).kind
        if (verdict is Verdict.COMPACT) != (kind is ComponentKind.COMPACT_BULK):
            failures.append("compact verdict disagrees with bulk membership")

    # interior operators along the weight path in one leaf stay bounded,
    # including the proportional pair whose straight segment would vanish
    leaf_phi = AffineMap(unit, 0.8)
    base = unit_leaf_weight(leaf_phi, 1.0)
    ts = (0.1, 0.3, 0.5, 0.7, 0.9)
    for lam in (2 + 1j, -1.0 + 0j):
        for t, u in zip(ts, weight_path(base, symbols.scale(base, lam), ts)):
            op = WeightedCompositionOperator(u, leaf_phi, 2.0, 2.0)
            if classify(op, CHECK_SPEC).verdict is not Verdict.BOUNDED_NONCOMPACT:
                failures.append(f"leaf path interior unbounded at t={t}, ratio {lam}")
    return _result(
        "components-isolation", not failures,
        "all cases reproduced" if not failures else "; ".join(sorted(set(failures))),
    )


def check_large_to_small_bound(rng: np.random.Generator, fast: bool = False) -> CheckResult:
    """Explicit norm bound for q < p: ||Wf||_q <= C * plane-norm * ||f||_p."""
    op_count = 3 if fast else 10
    f_count = 5 if fast else 20
    pairs = ((2.0, 1.0), (3.0, 2.0), (4.0, 2.0), (2.0, 0.5))
    worst = 0.0
    for k in range(op_count):
        p, q = pairs[k % len(pairs)]
        op = random_bounded_operator(rng, p, q, a_max=0.7)
        ls = gauge_plane_norm(op.psi, op.phi, p, q, CHECK_SPEC)
        constant = (q / (2.0 * math.pi)) ** (1.0 / q) * (
            2.0 * math.pi / (p * abs(op.phi.a) ** 2)
        ) ** (1.0 / p)
        bound = constant * ls
        for _ in range(f_count):
            f = random_entire_function(rng, max_terms=2, max_degree=2, rate_radius=0.8)
            lhs = fock_norm(op.apply(f), q, CHECK_SPEC).value
            rhs = bound * fock_norm(f, p, CHECK_SPEC).value
            worst = max(worst, lhs / rhs)
    return _result(
        "large-to-small-bound", worst <= 1.0 + 1e-8, f"max ||Wf||_q / bound = {worst:.12f}"
    )


CHECKS: tuple[tuple[str, Callable[[np.random.Generator, bool], CheckResult]], ...] = (
    ("kernel-normalization", check_kernel_normalization),
    ("monomial-oracle", check_monomial_oracle),
    ("growth-bound-suite", check_growth_bounds),
    ("embedding-suite", check_embedding_suite),
    ("norm-chain", check_norm_chain),
    ("diagonal-sigma-bracket", check_diagonal_sigma),
    ("classification-table", check_classification_table),
    ("essential-norm", check_essential_norm),
    ("separation", check_separation),
    ("compact-difference-table", check_compact_difference_table),
    ("components-isolation", check_components_isolation),
    ("large-to-small-bound", check_large_to_small_bound),
)


def run_all(seed: int = 0, fast: bool = False) -> list[CheckResult]:
    results = []
    for index, (name, fn) in enumerate(CHECKS):
        rng = np.random.default_rng([seed, index])
        try:
            results.append(fn(rng, fast))
        except FocklabError as exc:
            results.append(_result(name, False, f"raised {type(exc).__name__}: {exc}"))
    return results
