"""Engine oracles: Gaussian moments, closed-form plane integrals, tail logic."""

import math

import numpy as np
import pytest

from focklab import quadrature
from focklab.errors import TailNotDominated, ToleranceNotMet
from focklab.fock import kernel, magnitude_power_integrand
from focklab.parsing import parse_symbol
from focklab.quadrature import (
    GrowthEnvelope,
    PolarIntegrand,
    QuadratureSpec,
    gaussian_integral,
    plane_integral,
)
from focklab.sampling import random_entire_function


def moment_integrand(n: int) -> PolarIntegrand:
    return PolarIntegrand(
        log_magnitude=lambda zs: 2.0 * n * np.log(np.abs(zs)) if n else np.zeros(zs.shape),
        envelope=GrowthEnvelope.single(1.0, degree=2.0 * n),
    )


def gaussian_plane_integrand(beta: float) -> PolarIntegrand:
    # exp(-beta |z|^2); plane integral is pi / beta
    return PolarIntegrand(
        log_magnitude=lambda zs: -beta * np.abs(zs) ** 2,
        envelope=GrowthEnvelope.single(1.0, curvature=-beta),
    )


def test_unit_integrand_is_normalized():
    one = PolarIntegrand(lambda zs: np.zeros(zs.shape), GrowthEnvelope.single(1.0))
    for s in (0.5, 1.0, 2.0, 3.7):
        assert math.isclose(gaussian_integral(one, s).value, 1.0, rel_tol=1e-11)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 4.0])
def test_gaussian_moments_match_gamma_oracle(p):
    for n in range(13):
        exact = (2.0 / p) ** n * math.factorial(n)
        got = gaussian_integral(moment_integrand(n), p)
        assert abs(got.value - exact) <= 1e-9 * exact


def test_kernel_power_integral_is_one():
    w = 2 + 1j
    for p in (0.5, 2.0, 3.0):
        integrand = magnitude_power_integrand(kernel(w), p)
        assert math.isclose(gaussian_integral(integrand, p).value, 1.0, rel_tol=1e-10)


def test_plane_integral_gaussian_oracles():
    assert math.isclose(plane_integral(gaussian_plane_integrand(1.0)).value, math.pi, rel_tol=1e-10)
    assert math.isclose(plane_integral(gaussian_plane_integrand(1.5)).value,
                        2.0 * math.pi / 3.0, rel_tol=1e-10)
    # the squared gauge of (psi=1, phi=z/2) is exp(-3|z|^2/4); the Gaussian
    # oracle pi/beta gives 4 pi / 3
    assert math.isclose(plane_integral(gaussian_plane_integrand(0.75)).value,
                        4.0 * math.pi / 3.0, rel_tol=1e-10)


def test_refinement_shift_stays_within_error_estimate(rng):
    tight = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11)
    cases = [magnitude_power_integrand(kernel(1 + 2j), 2.0),
             moment_integrand(4)]
    for _ in range(18):
        f = random_entire_function(rng, max_terms=2, max_degree=2, rate_radius=1.0)
        cases.append(magnitude_power_integrand(f, 2.0))
    for integrand in cases:
        loose = gaussian_integral(integrand, 2.0)
        refined = gaussian_integral(integrand, 2.0, tight)
        assert abs(loose.value - refined.value) <= max(loose.error_estimate, 1e-13 * abs(refined.value))


def test_rotation_invariance(rng):
    base = magnitude_power_integrand(kernel(2.0), 2.0)
    reference = gaussian_integral(base, 2.0).value
    for theta in (0.7, 2.1):
        twist = complex(math.cos(theta), math.sin(theta))
        rotated = PolarIntegrand(
            log_magnitude=lambda zs, t=twist: base.log_magnitude(t * zs),
            envelope=base.envelope,
            angular_degree=base.angular_degree,
            angular_rate=base.angular_rate,
        )
        assert abs(gaussian_integral(rotated, 2.0).value - reference) < 1e-10


def test_tail_not_dominated_for_non_decaying_envelope():
    integrand = PolarIntegrand(
        log_magnitude=lambda zs: np.zeros(zs.shape),
        envelope=GrowthEnvelope.single(1.0, curvature=0.0),
    )
    with pytest.raises(TailNotDominated):
        plane_integral(integrand)


def test_tolerance_not_met_when_radius_cap_too_small():
    integrand = PolarIntegrand(
        log_magnitude=lambda zs: 30.0 * np.abs(zs),
        envelope=GrowthEnvelope.single(1.0, rate=30.0),
        angular_rate=30.0,
    )
    with pytest.raises(ToleranceNotMet):
        gaussian_integral(integrand, 1.0, QuadratureSpec(max_radius=8.0))


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        gaussian_integral(moment_integrand(0), -1.0)


def test_no_panel_is_evaluated_twice(monkeypatch):
    # the first pass's base panels also fix the relative-tolerance scale
    seen = []
    panel = quadrature._RadialIntegrator.panel

    def recording_panel(self, r0, r1):
        seen.append((float(r0), float(r1)))
        return panel(self, r0, r1)

    monkeypatch.setattr(quadrature._RadialIntegrator, "panel", recording_panel)
    integrand = magnitude_power_integrand(parse_symbol("z^2*exp(0.5*z) + 3*z"), 2.0)
    assert gaussian_integral(integrand, 2.0).truncation_radius == 16.0
    assert seen and len(seen) == len(set(seen))
