"""Gauge machinery and the classification theorems' exact decisions."""

import math

import numpy as np
import pytest

from focklab import symbols as sy
from focklab.criteria import (
    Verdict,
    annulus_sups,
    classify,
    decide,
    dilation_compose,
    essential_norm_bracket,
    gauge_at,
    gauge_plane_norm,
    gauge_profile,
)
from focklab.errors import HypothesisViolated
from focklab.fock import fock_norm, gauge_peak, log_gauge_grid
from focklab.operators import (
    FamilySpec,
    WeightedCompositionOperator,
    composition_operator,
    f2_matrix,
    matrix_sigma_max,
)
from focklab.quadrature import CHECK_SPEC, gaussian_integral
from focklab.sampling import (
    random_affine,
    random_bounded_operator,
    random_complex,
    random_entire_function,
    unit_leaf_weight,
)
from focklab.symbols import AffineMap, IDENTITY

SMALL_FAMILY = FamilySpec(kernel_radius=4.0, kernel_radii=6, kernel_angles=8, monomial_degree=8)
UNIT = complex(math.cos(0.8), math.sin(0.8))


def test_gauge_at_examples():
    assert math.isclose(gauge_at(sy.ONE, IDENTITY, 2 - 1j), 1.0)
    z = 1.5 + 0.5j
    assert math.isclose(gauge_at(sy.variable(), IDENTITY, z), abs(z))
    b = 0.7 - 0.4j
    phi = AffineMap(UNIT, b)
    psi = unit_leaf_weight(phi, 1.0)
    level = math.exp(abs(b) ** 2 / 2.0)
    for z in (0j, 2 + 1j, -3j):
        assert math.isclose(gauge_at(psi, phi, z), level, rel_tol=1e-12)


def test_gauge_sup_oracles():
    for a in (0.3, 0.9, UNIT):
        prof = gauge_profile(sy.ONE, AffineMap(a, 0.0))
        assert math.isclose(prof.symbolic_sup, 1.0, rel_tol=1e-9)

    a, b = 0.6, 1.2 + 0.3j
    prof = gauge_profile(sy.ONE, AffineMap(a, b))
    exact = math.exp(abs(b) ** 2 / (2.0 * (1.0 - a**2)))
    assert math.isclose(prof.symbolic_sup, exact, rel_tol=1e-9)

    assert math.isinf(gauge_profile(sy.variable(), IDENTITY).symbolic_sup)

    phi = AffineMap(UNIT, 1.0)
    prof = gauge_profile(unit_leaf_weight(phi, 1.0), phi)
    assert math.isclose(prof.symbolic_sup, math.exp(0.5), rel_tol=1e-12)
    assert math.isclose(prof.symbolic_limsup, math.exp(0.5), rel_tol=1e-12)
    assert prof.symbolic_limsup > 0.0


def test_gauge_limsup_regimes():
    prof = gauge_profile(sy.ONE, AffineMap(0.5, 1.0))
    assert prof.symbolic_limsup == 0.0
    assert not any(s > 1e12 for _, s in annulus_sups(sy.ONE, AffineMap(0.5, 1.0)))

    prof = gauge_profile(sy.ONE, AffineMap(UNIT, 1.0))
    assert math.isinf(prof.symbolic_limsup)
    op = WeightedCompositionOperator(sy.ONE, AffineMap(UNIT, 1.0), 2.0, 2.0)
    assert decide(op).witness is not None
    assert any(s > 1e12 for _, s in annulus_sups(sy.ONE, AffineMap(UNIT, 1.0)))


def _log_gauge(psi, phi, zs):
    # |psi| e^{(|phi|^2 - |z|^2)/2} straight from the definition
    return sy.log_abs_grid(psi, zs) + (np.abs(phi.a * zs + phi.b) ** 2 - np.abs(zs) ** 2) / 2.0


def _scan_log_sup(psi, phi):
    """Brute-force log sup of the gauge (|a| < 1): a dense square grid over a
    disc that provably holds the maximizer, then zoomed grids around the
    best points.  No ascent: only grid evaluations and argmax."""
    amp, degree, rate = sy.envelope_majorant(psi)
    alpha = (1.0 - abs(phi.a) ** 2) / 2.0
    reference = float(np.max(_log_gauge(psi, phi, np.array([0j, 1, 1j, -1, -1j]))))
    # log gauge(z) <= log amp + degree log(1+r) + (rate + |ab|) r - alpha r^2 + |b|^2/2
    r = np.linspace(0.0, 2000.0, 200001)
    bound = (math.log(amp) + degree * np.log1p(r) + (rate + abs(phi.a * phi.b)) * r
             - alpha * r**2 + abs(phi.b) ** 2 / 2.0)
    radius = float(r[bound >= reference].max()) + 1.0
    h = 2.0 * radius / 400
    axis = np.linspace(-radius, radius, 401)
    zs = (axis[:, None] + 1j * axis[None, :]).ravel()
    values = _log_gauge(psi, phi, zs)
    best = -math.inf
    for z in zs[np.argsort(values)[-8:]]:
        step = h
        for _ in range(5):
            offsets = step * np.linspace(-2.0, 2.0, 41)
            window = (z + offsets[:, None] + 1j * offsets[None, :]).ravel()
            window_values = _log_gauge(psi, phi, window)
            z = window[int(np.argmax(window_values))]
            step /= 20.0
        best = max(best, float(window_values.max()))
    return best


def _scan_circle_log_sup(psi, phi, radius):
    """Brute-force log sup of the gauge on |z| = radius: 2^16 angles, then
    five zoomed rows of 41 angles around each of the 4 best.  It evaluates
    ``log_gauge_grid``, so only the search differs from ``annulus_sups``."""
    step = 2.0 * math.pi / 2**16
    thetas = step * np.arange(2**16)
    values = log_gauge_grid(psi, phi, radius * np.exp(1j * thetas))
    best = -math.inf
    for theta in thetas[np.argsort(values)[-4:]]:
        h = step
        for _ in range(5):
            window = theta + h * np.linspace(-2.0, 2.0, 41)
            window_values = log_gauge_grid(psi, phi, radius * np.exp(1j * window))
            theta = window[int(np.argmax(window_values))]
            h /= 20.0
        best = max(best, float(window_values.max()))
    return best


def test_annulus_sups_reach_brute_force_scan(rng):
    for k in range(12):
        regime = ("interior", "unit", "zero")[k % 3]
        phi = random_affine(rng, regime=regime)
        psi = random_entire_function(rng, max_terms=3, max_degree=3, rate_radius=1.5)
        # radii where the gauge is neither 0 nor inf in floating point
        radii = (1.0, 8.0, 64.0, 128.0) if regime == "unit" else (1.0, 3.0, 8.0, 20.0)
        for r, s in annulus_sups(psi, phi, radii):
            scan = math.exp(_scan_circle_log_sup(psi, phi, r))
            assert s >= scan * (1 - 1e-12)
            assert math.isclose(s, scan, rel_tol=1e-12)


def test_numeric_matches_symbolic_sup(rng):
    regimes = ("zero", "interior", "interior", "unit")
    moduli = (0.0, 0.3, 0.9, 1.0)
    for k in range(50):
        regime = regimes[k % 4]
        if regime == "interior":
            phi = random_affine(rng, regime="interior", a_max=moduli[k % 4])
        else:
            phi = random_affine(rng, regime=regime)
        psi = random_entire_function(rng, max_terms=2, max_degree=2, rate_radius=1.0)
        if regime == "unit":
            # give divergent profiles an honest exponential scale to witness
            g_rate = psi.terms[0].rate + phi.b.conjugate() * phi.a
            if abs(g_rate) < 0.3:
                psi = sy.mul(psi, sy.exp_term(0.5))
        prof = gauge_profile(psi, phi)
        if math.isinf(prof.symbolic_sup):
            assert max(s for _, s in annulus_sups(psi, phi)) > 1e6
        else:
            scan = math.exp(_scan_log_sup(psi, phi))
            assert prof.symbolic_sup >= scan * (1 - 1e-12)
            assert math.isclose(prof.symbolic_sup, scan, rel_tol=1e-6)

    # psi = c e^{dz}: log gauge = log|c| + Re((d + conj(b) a) z) - alpha |z|^2 + |b|^2/2,
    # and the sup of Re(w z) - alpha |z|^2 over the plane is |w|^2 / (4 alpha)
    for _ in range(40):
        c, d = random_complex(rng, 2.0) + 0.1, random_complex(rng, 2.0)
        phi = random_affine(rng, regime="interior", a_max=0.97, b_radius=1.5)
        alpha = (1.0 - abs(phi.a) ** 2) / 2.0
        w = d + phi.b.conjugate() * phi.a
        closed = math.log(abs(c)) + abs(w) ** 2 / (4.0 * alpha) + abs(phi.b) ** 2 / 2.0
        z, log_peak = gauge_peak(sy.exp_term(d, c), phi)
        assert math.isclose(log_peak, closed, rel_tol=1e-12, abs_tol=1e-12)
        argmax = w.conjugate() / (2.0 * alpha)
        assert abs(z - argmax) <= 1e-12 * max(1.0, abs(argmax))


def test_gauge_peak_hits_linear_weight_peak():
    # psi = z + 1, phi = 1: the log gauge log|z + 1| - |z|^2/2 + 1/2 peaks on
    # the real axis where 1/(x + 1) = x, at x = (sqrt 5 - 1)/2; the log value
    # is mpmath's to 17 digits
    z, log_peak = gauge_peak(sy.add(sy.variable(), sy.ONE), AffineMap(0.0, 1.0))
    assert abs(z - (math.sqrt(5.0) - 1.0) / 2.0) <= 1e-12
    assert abs(log_peak - 0.7902288194345509) <= 2 * math.ulp(0.7902288194345509)


def test_gauge_peak_past_the_float_range():
    # psi = e^{dz} with |d|^2 / (4 alpha) ~ 1000: psi overflows at the peak
    # conj(d) / (2 alpha), while its log gauge |d|^2 / (4 alpha) is finite
    for d, a in ((2.0, 0.999), (2j, 0.999j), (-2.0, 0.999999)):
        alpha = (1.0 - abs(a) ** 2) / 2.0
        z, log_peak = gauge_peak(sy.exp_term(d), AffineMap(a, 0.0))
        assert math.isclose(log_peak, abs(d) ** 2 / (4.0 * alpha), rel_tol=1e-12)
        assert abs(z - complex(d).conjugate() / (2.0 * alpha)) <= 1e-12 * abs(z)


def test_plane_norm_oracles():
    got = gauge_plane_norm(sy.ONE, AffineMap(0.5, 0.0), 4.0, 2.0)
    assert math.isclose(got, (2.0 * math.pi / 3.0) ** 0.25, rel_tol=1e-9)

    got2 = gauge_plane_norm(sy.constant(2.0), AffineMap(0.5, 0.0), 4.0, 2.0)
    assert math.isclose(got2, 2.0 * (2.0 * math.pi / 3.0) ** 0.25, rel_tol=1e-9)

    assert math.isinf(gauge_plane_norm(sy.ONE, AffineMap(UNIT, 0.0), 4.0, 2.0))
    with pytest.raises(HypothesisViolated):
        gauge_plane_norm(sy.ONE, AffineMap(0.5, 0.0), 2.0, 4.0)
    with pytest.raises(HypothesisViolated):
        gauge_plane_norm(sy.ONE, AffineMap(0.0, 0.5), 4.0, 2.0)


def _dilated(g, t):
    """g(t u), term by term."""
    return sy.EntireFunction(tuple(
        sy.PolyExpTerm(tuple(c * t**k for k, c in enumerate(term.coeffs)), term.rate * t)
        for term in g.terms))


def _fock_route_estimate(psi, phi, s):
    """The error estimate of the plane norm taken as e^{|b|^2/2} (2 pi/(s alpha))^{1/s}
    times the Fock s-norm of the dilated profile h(u) = g(u / sqrt(alpha))."""
    alpha = 1.0 - abs(phi.a) ** 2
    g = sy.mul(psi, sy.exp_term(phi.b.conjugate() * phi.a))
    norm = fock_norm(_dilated(g, 1.0 / math.sqrt(alpha)), s)
    return norm.error_estimate * math.exp(abs(phi.b) ** 2 / 2.0 + math.log(2.0 * math.pi / (s * alpha)) / s)


def test_plane_norm_matches_closed_form():
    # psi = c e^{dz}: the L^s norm of the gauge is |c| e^{|b|^2/2} (pi/beta)^{1/s}
    # e^{s|w|^2/(4 beta)} with w = d + conj(b) a and beta = s (1 - |a|^2) / 2
    rng = np.random.default_rng(1109)
    cases = [(1.0, 0j, AffineMap(0.5, 30.0), 2.0, 1.0)]
    for p, q in ((2.0, 1.0), (4.0, 2.0), (3.0, 2.0), (6.0, 3.0), (3.0, 1.0), (2.0, 0.5),
                 (3.0, 1.5), (5.0, 2.0)):
        c = random_complex(rng, 2.0) + 0.5
        cases.append((c, random_complex(rng, 1.0), random_affine(rng, a_max=0.8), p, q))
    for c, d, phi, p, q in cases:
        s = p * q / (p - q)
        w = d + phi.b.conjugate() * phi.a
        beta = s * (1.0 - abs(phi.a) ** 2) / 2.0
        closed = math.exp(math.log(abs(c)) + abs(phi.b) ** 2 / 2.0 + math.log(math.pi / beta) / s
                          + s * abs(w) ** 2 / (4.0 * beta))
        psi = sy.exp_term(d, c)
        got = gauge_plane_norm(psi, phi, p, q)
        estimate = _fock_route_estimate(psi, phi, s)
        assert abs(got - closed) <= estimate + 8 * math.ulp(closed), (c, d, phi, s)

    # a weight with zeros at fractional s: the same norm from the undilated
    # engine run, (2 pi / (s alpha)) times the integral of |g|^s at weight s alpha
    phi = AffineMap(0.6 - 0.2j, 0.4 + 0.3j)
    alpha = 1.0 - abs(phi.a) ** 2
    psi = sy.mul(sy.add(sy.variable(), sy.constant(-0.5)), sy.exp_term(0.3 - 0.2j))
    psi = sy.add(psi, sy.constant(0.7j))
    for p, q in ((2.0, 0.5), (3.0, 1.0)):
        s = p * q / (p - q)
        g = sy.mul(psi, sy.exp_term(phi.b.conjugate() * phi.a))
        res = gaussian_integral(g, s, s * alpha)
        front = math.exp(abs(phi.b) ** 2 / 2.0) * (2.0 * math.pi / (s * alpha)) ** (1.0 / s)
        root = res.value ** (1.0 / s)
        direct = front * root
        # the larger step of x^{1/s} across the integral's estimate
        direct_estimate = front * max((res.value + res.error_estimate) ** (1.0 / s) - root,
                                      root - max(res.value - res.error_estimate, 0.0) ** (1.0 / s))
        got = gauge_plane_norm(psi, phi, p, q)
        assert abs(got - direct) <= _fock_route_estimate(psi, phi, s) + direct_estimate, s


def test_classify_bracket_example():
    c = classify(composition_operator(AffineMap(0.5, 0.0), 2.0, 2.0))
    assert c.verdict is Verdict.COMPACT
    assert math.isclose(c.norm_lower, 1.0, rel_tol=1e-10)
    assert math.isclose(c.norm_upper, 2.0, rel_tol=1e-10)
    assert (c.ess_lower, c.ess_upper) == (0.0, 0.0)


def test_classify_rank_one_branch():
    psi = sy.add(sy.ONE, sy.variable())
    op = WeightedCompositionOperator(psi, AffineMap(0.0, 1.0), 2.0, 2.0)
    c = classify(op, CHECK_SPEC)
    assert c.verdict is Verdict.COMPACT
    assert c.norm_lower <= c.norm_upper
    assert "rank-one-compact" in c.rules


def test_classify_rank_one_kernel_weight_equality():
    # for kernel-type weights the gauge sup equals the rank-one upper bound;
    # the bracket must stay ordered despite quadrature noise
    from focklab.fock import kernel

    for w in (1 + 1j, 2.0, 0.5j):
        op = WeightedCompositionOperator(kernel(w), AffineMap(0.0, 1.0), 2.0, 2.0)
        c = classify(op)
        assert c.norm_lower <= c.norm_upper
        assert math.isclose(c.norm_lower, c.norm_upper, rel_tol=1e-9)


def test_classify_unbounded_witness_direction():
    c = classify(WeightedCompositionOperator(sy.variable(), IDENTITY, 2.0, 2.0))
    assert c.verdict is Verdict.UNBOUNDED
    assert c.witness is not None
    # psi = exp(z), phi = az with |a| = 1: gauge grows along conj(rate)
    psi = sy.exp_term(1 + 1j)
    c2 = classify(WeightedCompositionOperator(psi, AffineMap(UNIT, 0.0), 2.0, 2.0))
    assert c2.verdict is Verdict.UNBOUNDED
    assert abs(c2.witness - (1 - 1j) / abs(1 + 1j)) < 1e-12


def test_classify_scale_invariance(rng):
    for _ in range(6):
        op = random_bounded_operator(rng, 1.0, 2.0, allow_unit=True)
        c = random_complex(rng, 2.0) + 0.3
        scaled = WeightedCompositionOperator(sy.scale(op.psi, c), op.phi, op.p, op.q)
        assert classify(op, CHECK_SPEC).verdict is classify(scaled, CHECK_SPEC).verdict


def test_classify_small_codomain_consistency(rng):
    # q < p: verdict Compact <-> plane norm finite <-> |a| < 1
    for regime, expected in (("interior", Verdict.COMPACT), ("unit", Verdict.UNBOUNDED)):
        phi = random_affine(rng, regime=regime, a_max=0.6)
        psi = random_entire_function(rng, max_terms=2, max_degree=1, rate_radius=0.5)
        op = WeightedCompositionOperator(psi, phi, 3.0, 2.0)
        c = classify(op, CHECK_SPEC, SMALL_FAMILY)
        assert c.verdict is expected
        assert math.isinf(c.ls_norm) == (expected is Verdict.UNBOUNDED)
        if expected is Verdict.COMPACT:
            assert c.norm_lower <= c.norm_upper * (1 + 1e-9)


def test_empirical_within_bracket(rng):
    from focklab.operators import empirical_norm

    for _ in range(3):
        op = random_bounded_operator(rng, 2.0, 2.0, a_max=0.6, b_radius=0.5, rate_radius=0.5)
        c = classify(op, CHECK_SPEC)
        e = empirical_norm(op, SMALL_FAMILY, CHECK_SPEC)
        assert c.norm_lower * (1 - 1e-6) <= e <= c.norm_upper * (1 + 1e-6)


def test_classification_essential_fields_stay_inside_norm_bracket():
    # raw essential bracket for the unit rotation is (1, 2) but the operator
    # norm bound is 1; the classification keeps the tighter upper bound
    rotation = composition_operator(AffineMap(UNIT, 0.0), 2.0, 2.0)
    c = classify(rotation)
    assert c.verdict is Verdict.BOUNDED_NONCOMPACT
    assert c.ess_lower <= c.ess_upper <= c.norm_upper
    assert math.isclose(c.ess_lower, 1.0, rel_tol=1e-12)
    assert math.isclose(c.ess_upper, 1.0, rel_tol=1e-12)


def test_essential_norm_brackets():
    rotation = composition_operator(AffineMap(UNIT, 0.0), 2.0, 2.0)
    assert essential_norm_bracket(rotation) == (1.0, 2.0)

    compact = composition_operator(AffineMap(0.5, 0.2), 2.0, 2.0)
    assert essential_norm_bracket(compact) == (0.0, 0.0)

    phi = AffineMap(UNIT, 1.0)
    op = WeightedCompositionOperator(unit_leaf_weight(phi, 1.0), phi, 2.0, 4.0)
    lo, hi = essential_norm_bracket(op)
    assert math.isclose(lo, math.exp(0.5), rel_tol=1e-12)
    assert math.isclose(hi, 2.0 * 2.0**0.25 * math.exp(0.5), rel_tol=1e-12)


def test_essential_norm_refusals():
    with pytest.raises(HypothesisViolated):
        essential_norm_bracket(composition_operator(AffineMap(0.5, 0.0), 0.5, 2.0))
    with pytest.raises(HypothesisViolated):
        essential_norm_bracket(composition_operator(AffineMap(0.5, 0.0), 3.0, 2.0))
    with pytest.raises(HypothesisViolated):
        essential_norm_bracket(composition_operator(AffineMap(UNIT, 0.0), 2.0, 2.0).__class__(
            sy.variable(), IDENTITY, 2.0, 2.0))


def test_dilation_compose():
    base = composition_operator(AffineMap(0.8, 0.5), 2.0, 2.0)
    shrunk = dilation_compose(base, 0.5)
    assert shrunk.phi.isclose(AffineMap(0.4, 0.5))
    with pytest.raises(ValueError):
        dilation_compose(base, 1.0)

    # sigma gap for the rotation against its dilates stays at most 1
    rotation = composition_operator(AffineMap(UNIT, 0.0), 2.0, 2.0)
    m_full = f2_matrix(rotation, 48)
    for r in (0.3, 0.9):
        m_r = f2_matrix(dilation_compose(rotation, r), 48)
        gap = matrix_sigma_max(m_full.entries - m_r.entries)
        assert math.isclose(gap, 1.0 - r**47, rel_tol=1e-8)
        assert gap <= 1.0 + 1e-12


def test_norm_chain_small(rng):
    from focklab.operators import berezin

    op = random_bounded_operator(rng, 1.5, 3.0)
    upper = classify(op, CHECK_SPEC).norm_upper
    for z in (0.5 + 0.5j, -1 + 2j, 2.0):
        witness = berezin(op, op.phi(z), CHECK_SPEC) ** (1.0 / op.q)
        assert gauge_at(op.psi, op.phi, z) <= witness * (1 + 1e-6)
        assert witness <= upper * (1 + 1e-6)
