"""Operator application, Berezin transform, truncated matrices, empirical norms."""

import cmath
import math
import threading

import numpy as np
import pytest

from focklab import symbols as sy
from focklab.errors import NumericFailure, TailLoss, ZeroSymbol
from focklab.fock import kernel
from focklab.operators import (
    FamilySpec,
    WeightedCompositionOperator,
    berezin,
    composition_operator,
    empirical_distance,
    empirical_norm,
    f2_matrix,
    matrix_sigma_max,
)
from focklab.quadrature import CHECK_SPEC
from focklab.sampling import random_bounded_operator, random_complex, random_entire_function
from focklab.symbols import AffineMap, IDENTITY

SMALL_FAMILY = FamilySpec(kernel_radius=4.0, kernel_radii=6, kernel_angles=8, monomial_degree=8)


def test_zero_weight_rejected():
    with pytest.raises(ZeroSymbol):
        WeightedCompositionOperator(sy.ZERO, IDENTITY, 2.0, 2.0)


def test_apply_examples():
    identity = composition_operator(IDENTITY, 2.0, 2.0)
    f = sy.add(sy.monomial(2), sy.exp_term(0.5))
    assert sy.isclose(identity.apply(f), f)

    scaling = composition_operator(AffineMap(0.5, 0.0), 2.0, 2.0)
    assert sy.isclose(scaling.apply(sy.monomial(3)), sy.monomial(3, 0.125))

    shear = WeightedCompositionOperator(sy.variable(), AffineMap(1.0, 1.0), 2.0, 2.0)
    expected = sy.add(sy.monomial(2), sy.monomial(1))
    assert sy.isclose(shear.apply(sy.variable()), expected)


def test_apply_pointwise_identity(rng):
    for _ in range(20):
        op = random_bounded_operator(rng, 2.0, 2.0, allow_unit=True)
        f = random_entire_function(rng)
        image = op.apply(f)
        for _ in range(5):
            z = random_complex(rng, 3.0)
            direct = sy.evaluate(op.psi, z) * sy.evaluate(f, op.phi(z))
            got = sy.evaluate(image, z)
            assert abs(got - direct) <= 1e-10 * (1.0 + abs(direct))


def test_berezin_examples():
    identity = composition_operator(IDENTITY, 2.0, 2.0)
    for w in (0j, 1 + 1j, 3.0):
        assert math.isclose(berezin(identity, w), 1.0, rel_tol=1e-9)

    rank_one = composition_operator(AffineMap(0.0, 0.5), 2.0, 2.0)
    w = 1 + 1j
    expected = abs(sy.evaluate(kernel(w), 0.5)) ** 2
    assert math.isclose(berezin(rank_one, w), expected, rel_tol=1e-9)

    halving = composition_operator(AffineMap(0.5, 0.0), 2.0, 2.0)
    assert math.isclose(berezin(halving, 0.0), 1.0, rel_tol=1e-9)


def test_f2_matrix_diagonal_and_identity():
    a = 0.6 * cmath.exp(0.3j)
    diag = f2_matrix(composition_operator(AffineMap(a, 0.0), 2.0, 2.0), 24)
    expected = np.diag([a**n for n in range(24)])
    assert np.allclose(diag.entries, expected, atol=1e-12)
    assert max(diag.column_tail_fractions) == 0.0

    ident = f2_matrix(composition_operator(IDENTITY, 2.0, 2.0), 16)
    assert np.allclose(ident.entries, np.eye(16), atol=1e-14)


@pytest.mark.parametrize("a, b, entry, value", [
    (0.8, 0.6, (60, 61), 7.2e-6),
    (0.6, 0.5, (50, 50), 8.1e-12),
])
def test_f2_matrix_keeps_top_degree_entries(a, b, entry, value):
    # psi = 1: entry (n, j) is C(j, n) a^n b^(j-n) sqrt(n!/j!); the top-degree
    # entries are tiny in the raw coefficients of (az + b)^j but not here
    order = 64
    matrix = f2_matrix(composition_operator(AffineMap(a, b), 2.0, 2.0), order, check_tail=False)
    want = np.zeros((order, order))
    for j in range(order):
        for n in range(j + 1):
            scale = math.exp(0.5 * (math.lgamma(n + 1) - math.lgamma(j + 1)))
            want[n, j] = math.comb(j, n) * a**n * b ** (j - n) * scale
    assert np.all(np.abs(matrix.entries - want) <= 1e-12 * np.maximum(np.abs(want), 1.0))
    assert math.isclose(matrix.entries[entry].real, value, rel_tol=0.01)


def test_f2_matrix_weighted_shift_and_tail_loss():
    shift_op = WeightedCompositionOperator(sy.variable(), IDENTITY, 2.0, 2.0)
    with pytest.raises(TailLoss):
        f2_matrix(shift_op, 32)
    matrix = f2_matrix(shift_op, 64, check_tail=False)
    for n in (0, 4, 30):
        assert math.isclose(matrix.entries[n + 1, n].real, math.sqrt(n + 1), rel_tol=1e-12)
    sigma = matrix_sigma_max(matrix)
    assert math.isclose(sigma, math.sqrt(63), rel_tol=1e-9)


def test_sigma_max_oracles():
    assert math.isclose(matrix_sigma_max(np.eye(12)), 1.0, abs_tol=1e-12)
    a = 0.3 * cmath.exp(1.1j)
    diag = f2_matrix(composition_operator(AffineMap(a, 0.0), 2.0, 2.0), 64)
    assert abs(matrix_sigma_max(diag) - 1.0) < 1e-10
    assert matrix_sigma_max(np.zeros((4, 4))) == 0.0
    with pytest.raises(NumericFailure):
        matrix_sigma_max(np.array([[1.0, 0.0], [0.0, np.inf]]))


def test_sigma_nondecreasing_in_order(rng):
    op = random_bounded_operator(rng, 2.0, 2.0, a_max=0.5, b_radius=0.5, rate_radius=0.5)
    values = [matrix_sigma_max(f2_matrix(op, n, check_tail=False)) for n in (16, 32, 64)]
    assert values[0] <= values[1] * (1 + 1e-10)
    assert values[1] <= values[2] * (1 + 1e-10)


def test_empirical_norm_examples():
    halving = composition_operator(AffineMap(0.5, 0.0), 2.0, 2.0)
    assert math.isclose(empirical_norm(halving, SMALL_FAMILY, CHECK_SPEC), 1.0, rel_tol=1e-8)

    identity = composition_operator(IDENTITY, 2.0, 2.0)
    assert math.isclose(empirical_norm(identity, SMALL_FAMILY, CHECK_SPEC), 1.0, rel_tol=1e-8)

    # rank-one operator: the kernel at the map's constant attains the bound
    b = 1.0
    rank_one = composition_operator(AffineMap(0.0, b), 2.0, 2.0)
    family = FamilySpec(kernel_radius=6.0, kernel_radii=12, kernel_angles=16, monomial_degree=4)
    got = empirical_norm(rank_one, family, CHECK_SPEC)
    assert math.isclose(got, math.exp(abs(b) ** 2 / 2.0), rel_tol=1e-8)


def test_family_sweep_starts_no_thread(monkeypatch):
    def refuse(thread):
        raise AssertionError(f"{thread.name} was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    op = composition_operator(AffineMap(0.5, 0.25), 2.0, 2.0)
    assert empirical_norm(op, SMALL_FAMILY, CHECK_SPEC) >= 1.0
    other = composition_operator(AffineMap(0.5, 0.0), 2.0, 2.0)
    assert empirical_distance(op, other, SMALL_FAMILY, CHECK_SPEC) > 0.0


def test_mismatched_exponent_distance_rejected():
    first = composition_operator(IDENTITY, 2.0, 2.0)
    second = composition_operator(IDENTITY, 2.0, 3.0)
    with pytest.raises(ValueError):
        empirical_distance(first, second)
