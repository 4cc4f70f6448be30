"""Engine oracles: Gaussian moments, cusp closed forms, tail logic."""

import math

import numpy as np
import pytest

from focklab import quadrature, symbols as sy
from focklab.errors import ToleranceNotMet
from focklab.criteria import gauge_plane_norm
from focklab.fock import fock_norm, kernel
from focklab.parsing import parse_affine, parse_symbol
from focklab.quadrature import (
    CHECK_SPEC,
    DEFAULT_SPEC,
    QuadratureSpec,
    gaussian_integral,
)
from focklab.sampling import random_complex, random_entire_function
from focklab.symbols import AffineMap

ULP = 2.0**-52


def test_unit_integrand_is_normalized():
    for s in (0.5, 1.0, 2.0, 3.7):
        assert math.isclose(gaussian_integral(sy.ONE, 2.0, s).value, 1.0, rel_tol=1e-11)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 4.0])
def test_gaussian_moments_match_gamma_oracle(p):
    for n in range(13):
        exact = (2.0 / p) ** n * math.factorial(n)
        got = gaussian_integral(sy.monomial(n), 2.0, p)
        assert abs(got.value - exact) <= 1e-9 * exact
        # abs_tol is in units of the integrand's peak, so a tiny multiple
        # keeps its relative accuracy
        tiny = gaussian_integral(sy.scale(sy.monomial(n), 1e-100), 2.0, p)
        assert abs(tiny.value - 1e-200 * exact) <= 1e-9 * 1e-200 * exact


def test_kernel_power_integral_is_one():
    w = 2 + 1j
    for p in (0.5, 2.0, 3.0):
        assert math.isclose(gaussian_integral(kernel(w), p, p).value, 1.0, rel_tol=1e-10)


def test_refinement_shift_stays_within_error_estimate(rng):
    tight = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11)
    cases = [kernel(1 + 2j), sy.monomial(4)]
    for _ in range(18):
        cases.append(random_entire_function(rng, max_terms=2, max_degree=2, rate_radius=1.0))
    for f in cases:
        loose = gaussian_integral(f, 2.0, 2.0)
        refined = gaussian_integral(f, 2.0, 2.0, tight)
        assert abs(loose.value - refined.value) <= max(loose.error_estimate, 1e-13 * abs(refined.value))


def test_rotation_invariance(rng):
    base = kernel(2.0)
    reference = gaussian_integral(base, 2.0, 2.0).value
    for theta in (0.7, 2.1):
        rotated = sy.compose_affine(base, AffineMap(complex(math.cos(theta), math.sin(theta))))
        assert abs(gaussian_integral(rotated, 2.0, 2.0).value - reference) < 1e-10


def test_tolerance_not_met_when_radius_cap_too_small():
    with pytest.raises(ToleranceNotMet):
        gaussian_integral(sy.exp_term(30.0), 1.0, 1.0, QuadratureSpec(max_radius=8.0))


def test_an_overflowing_integrand_raises(monkeypatch):
    # were the probed unit e^0 short of the peak e^{937.5} of |e^{25z}|^3
    # e^{-3|z|^2/2}, the values would overflow: never a value of inf (the
    # tail in units of e^0 is met only past radius 40)
    monkeypatch.setattr(quadrature, "_log_unit", lambda *args: 0.0)
    with pytest.raises(ToleranceNotMet, match="overflows"):
        gaussian_integral(sy.exp_term(25.0), 3.0, 3.0, QuadratureSpec(max_radius=60.0))


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        gaussian_integral(sy.ONE, 2.0, -1.0)


def test_no_panel_is_evaluated_twice(monkeypatch):
    # one Gauss-Legendre pass per panel: the first pass's base panels also
    # fix the tolerance scale, a smooth integrand at the default spec is
    # accepted on them, and |z|^{1/2} is bisected toward its cusp at 0
    seen = []
    panel = quadrature._RadialIntegrator.panel

    def recording_panel(self, r0, r1):
        seen.append((float(r0), float(r1)))
        return panel(self, r0, r1)

    monkeypatch.setattr(quadrature._RadialIntegrator, "panel", recording_panel)
    assert gaussian_integral(parse_symbol("z^2*exp(0.5*z) + 3*z"), 2.0, 2.0).truncation_radius == 8.0
    assert seen == [(2.0 * k, 2.0 * k + 2.0) for k in range(4)]
    seen.clear()
    gaussian_integral(parse_symbol("z"), 0.5, 0.5)
    assert len(seen) > 8 and len(seen) == len(set(seen))


def test_tight_spec_norm_meets_its_tolerance():
    # each panel adds a rounding term to the reported estimate (never to the
    # split test), which a tolerance of 1e-12 relative leaves little room
    f = parse_symbol("(1+2i)*z^2*exp((0.5-1i)*z)+3")
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12)
    power = gaussian_integral(f, 1.5, 1.5, spec)
    assert power.error_estimate <= max(spec.abs_tol, spec.rel_tol * power.value)
    # the norm at this spec when each panel's halves gave its estimate
    norm = fock_norm(f, 1.5, spec)
    assert abs(norm.value - 13.268172201395073) <= norm.error_estimate + 8.131703262586769e-13


def weyl_text(a: complex, n: int) -> str:
    """k_a(z) (z - a)^n: |f|^p e^{-p|z|^2/2} = |z - a|^{np} e^{-p|z - a|^2/2}."""
    def fmt(c: complex) -> str:
        return f"({c.real!r}{'-' if c.imag < 0 else '+'}{abs(c.imag)!r}i)"

    return f"{math.exp(-abs(a) ** 2 / 2.0)!r}*exp({fmt(a.conjugate())}*z)*(z-{fmt(a)})^{n}"


def weyl_norm(n: int, p: float) -> float:
    return math.gamma(n * p / 2.0 + 1.0) ** (1.0 / p) * (2.0 / p) ** (n / 2.0)


@pytest.mark.parametrize("p", [0.5, 1.5, 2.5, 3.5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_cusp_error_estimates_bound_the_error(n, p):
    # a zero of f off the origin is an algebraic cusp of |f|^p; the closed
    # form holds for every a, and the z^n rows put the zero at the origin.
    # Past n p = 20/3 the cusp takes no graded angular rule, but its modulus
    # is still a radial panel edge
    rng = np.random.default_rng([29, n, int(2 * p)])
    points = [random_complex(rng, 1.2) for _ in range(3)] + [0j]
    if (n, p) == (1, 0.5):
        points.append(0.3040 + 0.4072j)  # the benchmark's fixed cusp case
    if (n, p) == (3, 2.5):
        points.append(0.6652380215957974 + 0.5207003763163448j)  # the benchmark's norms seed 7004
    exact = weyl_norm(n, p)
    for a in points:
        f = parse_symbol(weyl_text(a, n) if a else f"z^{n}")
        for spec in (DEFAULT_SPEC, CHECK_SPEC):
            norm = fock_norm(f, p, spec)
            assert abs(norm.value - exact) <= norm.error_estimate + 8 * ULP * exact, (a, spec)


def test_translations_and_rotations_are_isometries_at_fractional_p():
    # T_u f(z) = f(z - u) e^{conj(u) z - |u|^2/2} and f(e^{i theta} z) move
    # |f(z)| e^{-|z|^2/2} by a motion of the plane, so they keep every
    # F^p norm: an oracle with no closed form, over symbols of one to three
    # terms (both paths of the log kernel)
    rng = np.random.default_rng(314)
    terms = set()
    for k in range(20):
        f = random_entire_function(rng, max_terms=3, max_degree=2, rate_radius=1.0)
        p = (0.5, 1.0, 1.5, 2.5, 3.0)[k % 5]
        u, theta = random_complex(rng, 1.5), rng.uniform(0.0, 2.0 * math.pi)
        translated = sy.mul(sy.compose_affine(f, AffineMap(1.0, -u)),
                            sy.exp_term(u.conjugate(), math.exp(-abs(u) ** 2 / 2.0)))
        rotated = sy.compose_affine(f, AffineMap(complex(math.cos(theta), math.sin(theta))))
        norm = fock_norm(f, p, CHECK_SPEC)
        for g in (translated, rotated):
            moved = fock_norm(g, p, CHECK_SPEC)
            slack = norm.error_estimate + moved.error_estimate + 8 * ULP * norm.value
            assert abs(moved.value - norm.value) <= slack, (k, p)
        terms.add(len(f.terms))
    assert terms == {1, 2, 3}


def test_two_zero_polynomial_meets_a_tighter_spec():
    f = parse_symbol("(z-0.5)*(z+1i)*exp(0.25*z)")
    tight = QuadratureSpec(abs_tol=DEFAULT_SPEC.abs_tol / 100, rel_tol=DEFAULT_SPEC.rel_tol / 100)
    for p in (0.5, 1.0, 1.5):
        loose, fine = fock_norm(f, p), fock_norm(f, p, tight)
        assert fine.error_estimate <= loose.error_estimate
        assert abs(loose.value - fine.value) <= loose.error_estimate + fine.error_estimate


# (symbol, p, value, error_estimate, before) of integrands without a graded
# cusp: no zero (exp), a zero at the origin (z^2), an even order p m (p = 1,
# 3 on a double zero) and an order p m = 7.5 beyond the graded range, whose
# zero is a radial panel edge.  ``before`` holds the pins frozen while
# abs_tol was absolute and the truncation tail completed half the square,
# and before a zero of order past the graded range was a panel edge; each
# pin moved by at most 0.06 of its old estimate
_UNGRADED = [
    ("fock", "0.5352614285189903*exp((0.8-0.6i)*z)*(z-(0.8+0.6i))^3", 2.5,
     1.941990038711027, 9.574391487034919e-13, (1.9419900387109506, 6.257106301675423e-11)),
    ("fock", "z^2", 0.5, 3.1415926535897825, 1.0800282530933862e-13,
     (3.1415926535897927, 3.1497645079523354e-12)),
    ("fock", "(1.5-0.5i)*exp((0.3+0.7i)*z)", 0.5, 2.11307739490893, 1.535875272579878e-13,
     (2.1130773949089465, 3.123074618694311e-13)),
    ("integral", "(z-0.5)^2*exp((0.2-0.1i)*z)", 1.0, 2.1531617531013008, 3.501759730685391e-14,
     (2.1531617531013008, 4.059049155141549e-13)),
    ("integral", "(z-0.5)^2*exp((0.2-0.1i)*z)", 3.0, 2.844296744373235, 5.947200312964612e-14,
     (2.844296744373233, 1.0274398837532653e-13)),
]


@pytest.mark.parametrize("kind, text, p, value, estimate, before", _UNGRADED)
def test_ungraded_integrands_keep_their_arithmetic(kind, text, p, value, estimate, before):
    f = parse_symbol(text)
    if kind == "fock":
        got = fock_norm(f, p)
    else:
        got = gaussian_integral(f, p, p)
    assert (got.value, got.error_estimate) == (value, estimate)
    before_value, before_estimate = before
    assert abs(value - before_value) <= before_estimate


# (symbol, p, spec, value, error_estimate, truncation_radius, before) of
# fock_norm through the engine's rare branches: a graded cusp (p m = 5 at
# z = 0.5), values in units of the integrand's peak (|0.6 z|^1000
# e^{-500|z|^2}, fock_norm's rescaled 0.3 z, peaks at e^{-1011}) and an
# angular escalation to mult 8 (the four-term image that the large-to-small
# check of ``verify --seed 0`` integrates at q = 1).  ``before`` holds the
# pins frozen while abs_tol was absolute and the truncation tail completed
# half the square, whose estimates cover the move.  The escalation's pin
# before the embedded radial estimate missed the value by 5.7 times its
# estimate, so it also answers to the DEFAULT_SPEC reference
_C12_IMAGE = sy.EntireFunction((
    sy.PolyExpTerm(((-0.6482800225115843-2.6627019326434094j), (0.38861156517791984+0.2334763978568548j),
                    (-0.6639707438924685-1.7022320438106773j), (-0.03184113053551073-0.2963654734500015j)),
                   (-0.35750531372109284-0.10311034994936388j)),
    sy.PolyExpTerm(((-0.7721739472817153+0.5644408778140926j), (0.4312641607769531-0.3400776769965738j),
                    (-0.5590511755628427+0.5393115642888797j), (0.17897916520755103-0.1208810456168025j),
                    (-0.002068386924251765+0.012731219606583268j)),
                   (-0.3236508282725341-0.24911823842977898j)),
    sy.PolyExpTerm(((-0.12358313935555991+0.15700956233009142j), (2.4793705942820514-0.4071879095050639j),
                    (0.388110823041228+0.035144536403447724j)),
                   (0.42926728401151587-0.4804390792426111j)),
    sy.PolyExpTerm(((0.06712809629375482+0.01889917474666894j), (-0.4911073210579969-0.7603640095038692j),
                    (0.10389097843348052+0.2586650766240608j), (-0.01579161507531392-0.00591505825235163j)),
                   (0.46312176946007455-0.6264469677230262j)),
))
_RARE_BRANCHES = [
    (parse_symbol("(z-0.5)^2*exp((0.2-0.1i)*z)"), 2.5, DEFAULT_SPEC,
     1.485110934459088, 3.7403593871698804e-14, 6.0, (1.4851109344590885, 1.9230146381140687e-12)),
    (parse_symbol("0.3*z"), 1000.0, DEFAULT_SPEC, 0.18269331705147168, 4.8190297543293884e-17, 2.0,
     (0.18269331705147165, 4.818465051302522e-17)),
    (_C12_IMAGE, 1.0, CHECK_SPEC, 7.811958503693748, 2.4094187077917592e-08, 10.0,
     (7.8119585395816, 2.7479719417271477e-07)),
]
# (value, error_estimate) of _C12_IMAGE at p = 1 and DEFAULT_SPEC, with the
# halves-based radial estimate
_C12_REFERENCE = (7.811958502841083, 1.3529768224529308e-08)


@pytest.mark.parametrize("f, p, spec, value, estimate, radius, before", _RARE_BRANCHES,
                         ids=["graded-cusp", "peak-shift", "angular-mult-8"])
def test_rare_engine_branches_keep_their_arithmetic(f, p, spec, value, estimate, radius, before):
    got = fock_norm(f, p, spec)
    assert (got.value, got.error_estimate, got.truncation_radius) == (value, estimate, radius)
    before_value, before_estimate = before
    assert abs(value - before_value) <= before_estimate
    if f is _C12_IMAGE:
        assert abs(value - _C12_REFERENCE[0]) <= _C12_REFERENCE[1] + estimate


def test_ungraded_plane_norm_keeps_its_arithmetic():
    # a simple zero of psi at s = pq/(p - q) = 2 is smooth
    assert gauge_plane_norm(parse_symbol("z-0.5"), parse_affine("0.5,0.2"), 2.0, 1.0) == 2.5465701546826285
