"""Compact differences, components, isolation, and path profiles."""

import math

import pytest

from focklab import symbols as sy
from focklab import topology
from focklab.criteria import classify
from focklab.errors import HypothesisViolated, NotBounded
from focklab.fock import fock_norm, kernel
from focklab.operators import (
    FamilySpec,
    WeightedCompositionOperator,
    composition_operator,
    empirical_distance,
    f2_matrix,
)
from focklab.quadrature import CHECK_SPEC, polar_grid
from focklab.sampling import random_bounded_operator, unit_leaf_weight
from focklab.symbols import AffineMap, IDENTITY
from focklab.topology import (
    ComponentKind,
    DifferenceReason,
    compact_difference,
    component_id,
    is_isolated,
    path_profile,
)

UNIT = complex(math.cos(0.9), math.sin(0.9))
SMALL_FAMILY = FamilySpec(kernel_radius=3.0, kernel_radii=4, kernel_angles=8, monomial_degree=6)


def test_difference_shared_compact_map():
    half = AffineMap(0.5, 0.0)
    w1 = WeightedCompositionOperator(sy.ONE, half, 2.0, 2.0)
    w2 = WeightedCompositionOperator(sy.add(sy.variable(), sy.ONE), half, 2.0, 2.0)
    verdict = compact_difference(w1, w2)
    assert verdict.compact and verdict.reason is DifferenceReason.SAME_SYMBOL_VANISHING


def test_difference_both_compact_different_maps():
    w1 = composition_operator(AffineMap(0.5, 0.0), 2.0, 2.0)
    w2 = composition_operator(AffineMap(0.25, 0.5), 2.0, 2.0)
    verdict = compact_difference(w1, w2)
    assert verdict.compact and verdict.reason is DifferenceReason.BOTH_COMPACT


def test_difference_opposite_rotations_not_compact():
    w1 = composition_operator(IDENTITY, 2.0, 2.0)
    w2 = composition_operator(AffineMap(-1.0, 0.0), 2.0, 2.0)
    assert not compact_difference(w1, w2).compact


def test_difference_distinct_leaf_weights_not_compact():
    phi = AffineMap(UNIT, 1.0)
    w1 = WeightedCompositionOperator(unit_leaf_weight(phi, 1.0), phi, 2.0, 2.0)
    w2 = WeightedCompositionOperator(unit_leaf_weight(phi, 2.0), phi, 2.0, 2.0)
    verdict = compact_difference(w1, w2)
    assert not verdict.compact and verdict.reason is DifferenceReason.NOT_COMPACT


def test_difference_refusals():
    w = composition_operator(AffineMap(0.5, 0.0), 3.0, 2.0)
    with pytest.raises(HypothesisViolated):
        compact_difference(w, w)
    unbounded = WeightedCompositionOperator(sy.variable(), IDENTITY, 2.0, 2.0)
    bounded = composition_operator(AffineMap(0.5, 0.0), 2.0, 2.0)
    with pytest.raises(NotBounded):
        compact_difference(unbounded, bounded)
    with pytest.raises(ValueError):
        compact_difference(bounded, composition_operator(AffineMap(0.5, 0.0), 2.0, 3.0))


def test_difference_symmetry_and_self(rng):
    for _ in range(5):
        a = random_bounded_operator(rng, 1.0, 2.0, allow_unit=True)
        b = random_bounded_operator(rng, 1.0, 2.0, allow_unit=True)
        fwd = compact_difference(a, b)
        rev = compact_difference(b, a)
        assert fwd.compact == rev.compact and fwd.reason is rev.reason
        own = compact_difference(a, a)
        assert own.compact and own.reason is DifferenceReason.SAME_SYMBOL_VANISHING


def test_component_id_cases():
    bulk = WeightedCompositionOperator(
        sy.add(sy.constant(3.0), sy.variable()), AffineMap(0.5, 2.0), 1.0, 2.0)
    assert component_id(bulk).kind is ComponentKind.COMPACT_BULK

    phi = AffineMap(1.0, 1.0)
    leaf = WeightedCompositionOperator(unit_leaf_weight(phi, 1.0), phi, 2.0, 2.0)
    cid = component_id(leaf)
    assert cid.kind is ComponentKind.UNIT_MODULUS_LEAF
    assert cid.leaf_key == (1.0 + 0j, 1.0 + 0j)

    connected = WeightedCompositionOperator(
        sy.add(sy.ONE, sy.variable()), AffineMap(0.4, 0.2), 3.0, 2.0)
    assert component_id(connected).kind is ComponentKind.ALL_CONNECTED

    with pytest.raises(NotBounded):
        component_id(WeightedCompositionOperator(sy.variable(), IDENTITY, 2.0, 2.0))


def test_is_isolated_cases():
    assert is_isolated(AffineMap(UNIT, 0.0), 2.0, 2.0)
    assert not is_isolated(AffineMap(0.5, 1.0), 1.0, 2.0)
    assert not is_isolated(AffineMap(0.0, 0.7), 2.0, 2.0)
    with pytest.raises(HypothesisViolated):
        is_isolated(AffineMap(0.5, 0.0), 3.0, 2.0)
    with pytest.raises(NotBounded):
        is_isolated(AffineMap(UNIT, 0.5), 2.0, 2.0)


def _kernel_distance(phi1, phi2, q, radius, radii, angles):
    """The kernel-witness lower bound on ||C_phi1 - C_phi2||: the family's
    kernels on a polar grid with its origin, and the constant, whose image
    difference is zero."""
    family = FamilySpec(kernel_radius=radius, kernel_radii=radii, kernel_angles=angles,
                        monomial_degree=0)
    return empirical_distance(composition_operator(phi1, 2.0, q), composition_operator(phi2, 2.0, q),
                              family, CHECK_SPEC)


def test_distance_lower_bound_small_grid():
    assert _kernel_distance(IDENTITY, AffineMap(-1.0, 0.0), 2.0, 6.0, 4, 8) >= 0.99


def test_distance_lower_bound_counts_each_witness_below_its_estimate():
    # certified: a witness contributes its norm less the norm's error estimate
    grid = polar_grid(3.0, 2, 4, include_origin=True)
    phi1, phi2 = AffineMap(0.5, 0.0), AffineMap(0.25, 0.3)
    for q in (1.5, 2.0):
        witnesses = [fock_norm(sy.sub(sy.compose_affine(kernel(w), phi1),
                                      sy.compose_affine(kernel(w), phi2)), q, CHECK_SPEC)
                     for w in grid]
        d = _kernel_distance(phi1, phi2, q, 3.0, 2, 4)
        assert d == max(0.0, max(n.value - n.error_estimate for n in witnesses))
        # the kernel at the origin is the constant 1, whose image difference is zero
        assert all(n.error_estimate > 0.0 for w, n in zip(grid, witnesses) if w != 0)
        assert d < max(n.value for n in witnesses)


def test_distance_respects_triangle_sanity():
    phi1, phi2 = AffineMap(0.5, 0.0), AffineMap(0.25, 0.3)
    d = _kernel_distance(phi1, phi2, 2.0, 4.0, 3, 6)
    upper = (classify(composition_operator(phi1, 2.0, 2.0), CHECK_SPEC).norm_upper
             + classify(composition_operator(phi2, 2.0, 2.0), CHECK_SPEC).norm_upper)
    assert d <= upper


def test_dilate_path_profile():
    profile = path_profile("dilate", steps=4, p=2.0, q=2.0, phi=AffineMap(0.5, 0.0),
                           spec=CHECK_SPEC, matrix_order=32)
    assert len(profile) == 4
    # diagonal oracle: increments are max_n |(0.5 t)^n - (0.5 t')^n| = 0.125
    for _, d in profile:
        assert math.isclose(d, 0.125, rel_tol=1e-6)
    with pytest.raises(HypothesisViolated):
        path_profile("dilate", steps=2, p=2.0, q=2.0, phi=AffineMap(UNIT, 0.0))


def test_path_profile_builds_each_step_matrix_once(monkeypatch):
    built = []

    def counting_f2_matrix(op, *args, **kwargs):
        built.append(op.phi)
        return f2_matrix(op, *args, **kwargs)

    monkeypatch.setattr(topology, "f2_matrix", counting_f2_matrix)
    steps = 3
    profile = path_profile("translate", steps=steps, p=2.0, q=2.0, b1=0.0, b2=0.6,
                           matrix_order=16)
    assert len(profile) == steps
    assert len(built) == steps + 1


def test_weight_path_is_linear_in_alpha():
    profile = path_profile("weight", steps=4, p=2.0, q=2.0, phi=AffineMap(0.5, 0.0),
                           psi1=sy.ONE, psi2=sy.constant(2.0),
                           spec=CHECK_SPEC, matrix_order=32)
    # increments are |alpha step| * ||W_{psi2-psi1, phi}||; all four equal
    values = [d for _, d in profile]
    for d in values[1:]:
        assert math.isclose(d, values[0], rel_tol=1e-9)
    # at p = q = 3 each certified increment is (1.00001 - 1) / 2 ||C_phi|| =
    # 5.000000000032756e-06, reached by the constant 1 of the test family,
    # whose estimate is relative however small the weight difference
    exact = (1.00001 - 1.0) / 2.0
    profile = path_profile("weight", steps=2, p=3.0, q=3.0, phi=AffineMap(0.5, 0.0),
                           psi1=sy.ONE, psi2=sy.constant(1.00001))
    for _, d in profile:
        assert exact * (1.0 - 1e-8) <= d <= exact * (1.0 + 8 * 2.0**-52)


def test_weight_path_detours_around_vanishing_combination():
    phi = AffineMap(UNIT, 0.8)
    psi1 = unit_leaf_weight(phi, 1.0)
    psi2 = unit_leaf_weight(phi, -1.0)
    profile = path_profile("weight", steps=4, p=2.0, q=2.0, phi=phi,
                           psi1=psi1, psi2=psi2, spec=CHECK_SPEC, matrix_order=24)
    assert len(profile) == 4
    assert all(d > 0 for _, d in profile)


def test_translate_path_bounded_by_proof_constant():
    b1, b2 = 0.0, 1.0
    profile = path_profile("translate", steps=1, p=2.0, q=2.0, b1=b1, b2=b2,
                           spec=CHECK_SPEC, matrix_order=32)
    (t, d), = profile
    assert t == 1.0
    big1 = abs(b2 - b1)
    big2 = abs(b1) + abs(b2)
    proof_constant = math.exp(2.0) * big1 * (1.0 + big2) * math.exp(big2**2 / 2.0)
    assert d <= proof_constant
