"""Norms, kernels, and the certified inequality suite."""

import math

import numpy as np
import pytest

from focklab import fock, symbols as sy
from focklab.errors import BoundViolated
from focklab.fock import (
    check_embedding,
    check_growth_inequalities,
    default_bound_grid,
    fock_distance,
    fock_norm,
    kernel,
    sup_norm,
)
from focklab.quadrature import CHECK_SPEC, DEFAULT_SPEC
from focklab.sampling import random_complex, random_entire_function


def test_kernel_unit_norm_sample():
    for w, p in ((0j, 2.0), (3 - 2j, 0.5), (1 + 1j, 3.7)):
        assert abs(fock_norm(kernel(w), p).value - 1.0) < 1e-9
    # ||e^{cz}||_p = e^{|c|^2/2}: at large rates the truncation radius is
    # about |c| + O(1), within max_radius 40 (the rounding of 19.9^2 / 2
    # moves e^{198.005} by 63 ulps, well inside the estimate)
    for f, p, exact in ((kernel(30), 2.5, 1.0), (sy.exp_term(19.9), 1.5, math.exp(19.9**2 / 2.0)),
                        (sy.exp_term(20.0), 0.5, math.exp(200.0)), (sy.exp_term(25.0), 3.0, math.exp(312.5))):
        norm = fock_norm(f, p)
        assert abs(norm.value - exact) <= norm.error_estimate + 8 * math.ulp(exact), (f, p)
    # a slower term holds the integrand's peak: e^{p |12.3|^2 / 2} = e^{718.6}
    # at |z| = 12.3, while the summed envelope peaks at |z| = 19, where the
    # integrand is about e^{506}; by the triangle inequality the norm lies
    # within ||e^{-130} e^{19z}||_p = e^{50.5} of e^{75.645}
    norm = fock_norm(sy.add(sy.exp_term(12.3), sy.exp_term(19.0, math.exp(-130.0))), 9.5)
    exact = math.exp(12.3**2 / 2.0)
    assert abs(norm.value - exact) <= norm.error_estimate + math.exp(50.5) + 8 * math.ulp(exact)


def test_kernel_structure():
    assert kernel(0) == sy.ONE
    k1 = kernel(1.0)
    assert k1.terms[0].rate == 1.0
    assert math.isclose(abs(k1.terms[0].coeffs[0]), math.exp(-0.5))
    ki = kernel(1j)
    assert ki.terms[0].rate == -1j


def test_constant_norm_is_modulus():
    for p in (0.5, 1.0, 2.0):
        assert math.isclose(fock_norm(sy.ONE, p).value, 1.0, rel_tol=1e-10)
        assert math.isclose(fock_norm(sy.constant(2j), p).value, 2.0, rel_tol=1e-10)


def test_monomial_norm_gamma_oracle():
    # ||z^n||_p^p = (2/p)^{pn/2} Gamma(pn/2 + 1)
    for n, p in ((1, 2.0), (3, 2.0), (1, 1.0), (2, 3.0)):
        exact = ((2.0 / p) ** (p * n / 2.0) * math.gamma(p * n / 2.0 + 1.0)) ** (1.0 / p)
        got = fock_norm(sy.monomial(n), p).value
        assert math.isclose(got, exact, rel_tol=1e-9)
    # a small multiple keeps a relative estimate
    for c, n, p in ((1e-30, 3, 0.5), (1e-5, 2, 3.0)):
        exact = c * ((2.0 / p) ** (p * n / 2.0) * math.gamma(p * n / 2.0 + 1.0)) ** (1.0 / p)
        got = fock_norm(sy.scale(sy.monomial(n), c), p)
        assert math.isclose(got.value, exact, rel_tol=1e-9)
        assert got.error_estimate <= DEFAULT_SPEC.rel_tol * got.value


def test_zero_norm_iff_zero_function(rng):
    assert fock_norm(sy.ZERO, 1.5).value == 0.0
    for _ in range(5):
        f = random_entire_function(rng)
        assert fock_norm(f, 1.5, CHECK_SPEC).value > 0.0


def test_norm_homogeneity(rng):
    for _ in range(5):
        f = random_entire_function(rng, max_terms=2)
        c = random_complex(rng, 2.0) + 0.5
        lhs = fock_norm(sy.scale(f, c), 2.0, CHECK_SPEC).value
        rhs = abs(c) * fock_norm(f, 2.0, CHECK_SPEC).value
        assert math.isclose(lhs, rhs, rel_tol=1e-9)
    # fock_norm divides out a power of two, so 2^k scales the norm exactly
    for k in range(80):
        f = random_entire_function(rng, max_terms=2, max_degree=2, rate_radius=1.0)
        p, e = (0.5, 1.5, 2.0, 2.5, 3.0)[k % 5], int(rng.integers(-200, 201))
        norm, scaled = fock_norm(f, p, CHECK_SPEC), fock_norm(sy.scale(f, 2.0**e), p, CHECK_SPEC)
        assert (scaled.value, scaled.error_estimate) == (math.ldexp(norm.value, e),
                                                         math.ldexp(norm.error_estimate, e)), (k, e)


def test_sup_norm_examples():
    assert math.isclose(sup_norm(sy.ONE).value, 1.0, rel_tol=1e-10)
    assert math.isclose(sup_norm(sy.variable()).value, math.exp(-0.5), rel_tol=1e-9)
    assert math.isclose(sup_norm(kernel(2 - 1j)).value, 1.0, rel_tol=1e-9)


def test_pointwise_bound_reports():
    w = 1 + 1j
    grid = np.concatenate([default_bound_grid(), [w]])
    report, _ = check_growth_inequalities(kernel(w), 2.0, sample=grid)
    assert math.isclose(report.max_ratio, 1.0, rel_tol=1e-9)
    assert abs(report.witness - w) < 1e-9

    report, _ = check_growth_inequalities(sy.ONE, 2.0)
    assert math.isclose(report.max_ratio, 1.0, rel_tol=1e-9)
    assert abs(report.witness) < 1e-9

    report, _ = check_growth_inequalities(sy.variable(), 2.0)
    assert report.max_ratio <= math.exp(-0.5) * (1 + 1e-9)


def test_derivative_bound_reports():
    _, report = check_growth_inequalities(sy.ONE, 2.0)
    assert report.max_ratio == 0.0

    # |f'| = 1 for f = z; the bound is smallest at the origin, e^2 * ||z||_2
    grid = default_bound_grid()
    _, report = check_growth_inequalities(sy.variable(), 2.0, sample=grid)
    assert math.isclose(report.max_ratio, math.exp(-2.0), rel_tol=1e-8)

    _, report = check_growth_inequalities(kernel(2.0), 2.0)
    assert report.max_ratio <= 1.0


def test_growth_inequalities_compute_the_norm_once(monkeypatch):
    norm, calls = fock.fock_norm, []
    monkeypatch.setattr(fock, "fock_norm", lambda *args: calls.append(args) or norm(*args))
    pointwise, derivative = check_growth_inequalities(kernel(1 - 1j), 1.5)
    assert len(calls) == 1 and pointwise.norm is derivative.norm


def test_pointwise_bound_saturated_by_pure_exponentials():
    # a single exponential term attains the bound exactly at z = conj(rate);
    # the check must tolerate the equality at its 1e-8 slack
    rate = 1.2 - 0.7j
    f = sy.exp_term(rate, 0.8)
    grid = np.concatenate([default_bound_grid(), [rate.conjugate()]])
    for p in (0.5, 2.0, 3.7):
        report, _ = check_growth_inequalities(f, p, sample=grid)
        assert math.isclose(report.max_ratio, 1.0, rel_tol=1e-9)


def test_bound_violation_raises_with_witness():
    with pytest.raises(BoundViolated, match="pointwise growth bound violated") as caught:
        check_growth_inequalities(kernel(1.0), 2.0, tolerance=-0.5)
    assert caught.value.witness is not None


def test_embedding_examples():
    report = check_embedding(sy.ONE, 1.0, 2.0)
    assert math.isclose(report.ratio, 1.0 / math.sqrt(2.0), rel_tol=1e-9)
    assert check_embedding(kernel(1 + 2j), 0.5, 1.0).ratio <= 1.0 + 1e-9
    assert check_embedding(sy.monomial(2), 1.0, 3.0, spec=CHECK_SPEC).ratio <= 1.0
    with pytest.raises(ValueError):
        check_embedding(sy.ONE, 2.0, 1.0)


def test_quasinorm_distance():
    f, g = sy.monomial(1), sy.ZERO
    n = fock_norm(f, 0.5, CHECK_SPEC).value
    assert math.isclose(fock_distance(f, g, 0.5, CHECK_SPEC), n**0.5, rel_tol=1e-9)
    assert math.isclose(fock_distance(f, g, 2.0), fock_norm(f, 2.0).value, rel_tol=1e-10)
