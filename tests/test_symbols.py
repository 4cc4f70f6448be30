"""Algebra of the poly-exp symbol class: closure, canonical form, calculus."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from focklab import symbols as sy
from focklab.errors import Inadmissible
from focklab.fock import fock_norm, kernel, log_gauge_grid
from focklab.parsing import parse_symbol
from focklab.quadrature import gaussian_integral
from focklab.sampling import random_complex, random_entire_function
from focklab.symbols import AffineMap, EntireFunction, PolyExpTerm

finite_complex = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
unit_disc = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)

terms_st = st.lists(
    st.tuples(st.lists(finite_complex, min_size=1, max_size=4), finite_complex),
    min_size=0,
    max_size=3,
)


def growth_envelope(f: EntireFunction, r: float) -> float:
    """sum_i phat_i(r) exp(|c_i| r) with phat the coefficient-modulus polynomial.

    Upper-bounds max_{|z|=r} |f(z)| for every r >= 0.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    total = 0.0
    for t in f.terms:
        phat = sum(abs(c) * r**k for k, c in enumerate(t.coeffs))
        total += phat * math.exp(abs(t.rate) * r)
    return total


def compose(phi: AffineMap, other: AffineMap) -> AffineMap:
    """phi after other: z -> phi(other(z))."""
    return AffineMap(phi.a * other.a, phi.a * other.b + phi.b)


def build_ef(raw) -> EntireFunction:
    return EntireFunction(tuple(PolyExpTerm(tuple(cs), r) for cs, r in raw))


def test_evaluate_examples():
    assert sy.evaluate(kernel(0), 3 + 2j) == 1
    assert cmath.isclose(sy.evaluate(kernel(1), 1), math.exp(0.5))
    f = sy.add(sy.monomial(2), sy.exp_term(2.0))
    assert cmath.isclose(sy.evaluate(f, 0), 1)


def test_add_cancellation_gives_zero():
    f = sy.add(sy.exp_term(1.0), sy.negate(sy.exp_term(1.0)))
    assert f.is_zero


def test_sums_past_the_float_range_are_not_rounding_noise():
    big = sy.monomial(1, 1e308)
    # the merged coefficient overflows: refused, not trimmed to the zero function
    with pytest.raises(Inadmissible, match=r"finite real and imaginary parts, got \(inf\+0j\)"):
        sy.add(big, big)
    # only the summed moduli overflow: the sum is exact and kept
    assert sy.add(sy.monomial(1, 1.5e308), sy.monomial(1, -1e308)).terms[0].coeffs == (
        0j, complex(1.5e308 - 1e308))
    assert sy.add(big, sy.monomial(1, 1e308j)).terms[0].coeffs == (0j, 1e308 + 1e308j)
    assert sy.add(big, sy.negate(big)).is_zero
    # finite parts whose modulus overflows are refused like non-finite ones
    with pytest.raises(Inadmissible, match="modulus inside the float range"):
        sy.add(sy.monomial(1, 1e308), sy.monomial(1, 1.5e308j))
    with pytest.raises(Inadmissible, match="modulus inside the float range"):
        AffineMap(0.5, 1e308 + 1.5e308j)
    # two rates whose difference has a modulus past the float range are distinct
    f = sy.add(sy.exp_term(1e308), sy.exp_term(-0.5e308 + 1.5e308j))
    assert [t.rate for t in f.terms] == [-0.5e308 + 1.5e308j, 1e308]


def test_terms_are_checked_when_a_symbol_is_built():
    # a PolyExpTerm is a plain named tuple; EntireFunction converts and checks it
    f = EntireFunction((PolyExpTerm((1, 2.0), 0.5), PolyExpTerm((3,), 0.5)))
    assert f.terms == (((4 + 0j, 2 + 0j), 0.5 + 0j),)
    assert all(type(c) is complex for c in (*f.terms[0].coeffs, f.terms[0].rate))
    with pytest.raises(ValueError, match="at least one coefficient"):
        EntireFunction((PolyExpTerm((), 0j),))
    with pytest.raises(Inadmissible, match="coefficient must have finite"):
        EntireFunction((PolyExpTerm((1.0, math.nan), 0j),))
    with pytest.raises(Inadmissible, match="rate must have a modulus"):
        EntireFunction((PolyExpTerm((1.0,), 1.5e308 + 1.5e308j),))


def test_mul_merges_rates():
    f = sy.mul(sy.variable(), sy.exp_term(1.0))
    assert len(f.terms) == 1
    assert f.terms[0].coeffs == (0j, 1 + 0j)
    assert f.terms[0].rate == 1 + 0j


@pytest.mark.parametrize("a", [0.2, 0.3, 0.5 - 0.4j])
def test_binomial_powers_keep_every_coefficient(a):
    # ||(a z + 1)^n||_2^2 = sum_k C(n, k)^2 |a|^{2k} k!: the top coefficients
    # a^k are tiny but z^k carries norm sqrt(k!), so none may be trimmed
    for n in (5, 12, 27, 40):
        f = parse_symbol(f"(({a.real}+{a.imag}i)*z+1)^{n}" if isinstance(a, complex)
                         else f"({a}*z+1)^{n}")
        assert f.degree == n
        exact = math.sqrt(math.fsum(math.comb(n, k) ** 2 * abs(a) ** (2 * k) * math.factorial(k)
                                    for k in range(n + 1)))
        norm = fock_norm(f, 2.0)
        assert abs(norm.value - exact) <= norm.error_estimate + 1e-14 * exact
        quad = gaussian_integral(f, 2.0, 2.0)
        assert abs(math.sqrt(quad.value) - exact) <= quad.error_estimate / exact + 1e-14 * exact


def test_differentiate_kernel_is_rate_multiple():
    w = 2 - 1j
    dk = sy.differentiate(kernel(w))
    expected = sy.scale(kernel(w), w.conjugate())
    assert sy.isclose(dk, expected, tol=1e-12)


def test_differentiate_matches_finite_differences(rng):
    h = 1e-5
    for _ in range(10):
        f = random_entire_function(rng)
        df = sy.differentiate(f)
        for _ in range(5):
            z = random_complex(rng, 3.0)
            numeric = (sy.evaluate(f, z + h) - sy.evaluate(f, z - h)) / (2 * h)
            exact = sy.evaluate(df, z)
            assert abs(numeric - exact) <= 1e-5 * (1.0 + abs(exact))


def test_compose_affine_examples():
    half = AffineMap(0.5, 0.0)
    assert sy.isclose(sy.compose_affine(sy.variable(), half), sy.monomial(1, 0.5))

    shifted = sy.compose_affine(sy.monomial(2), AffineMap(1.0, 1.0))
    expected = EntireFunction((PolyExpTerm((1 + 0j, 2 + 0j, 1 + 0j), 0j),))
    assert sy.isclose(shifted, expected)


def test_compose_kernel_matches_direct_substitution(rng):
    w = 1.5 - 0.5j
    phi = AffineMap(0.4 + 0.3j, -0.7 + 0.2j)
    composed = sy.compose_affine(kernel(w), phi)
    for _ in range(20):
        z = random_complex(rng, 4.0)
        direct = sy.evaluate(kernel(w), phi(z))
        assert cmath.isclose(sy.evaluate(composed, z), direct, rel_tol=1e-10)


@settings(max_examples=60, deadline=None)
@given(terms_st, terms_st, finite_complex)
def test_ring_operations_pointwise(raw_f, raw_g, z):
    f, g = build_ef(raw_f), build_ef(raw_g)
    fz, gz = sy.evaluate(f, z), sy.evaluate(g, z)
    tol = 1e-10 * (1.0 + abs(fz) + abs(gz) + abs(fz * gz))
    assert abs(sy.evaluate(sy.add(f, g), z) - (fz + gz)) <= tol
    assert abs(sy.evaluate(sy.mul(f, g), z) - fz * gz) <= tol


def test_ring_operations_on_disc_sample(rng):
    f = random_entire_function(rng)
    g = random_entire_function(rng)
    fg_sum, fg_prod = sy.add(f, g), sy.mul(f, g)
    for _ in range(200):
        z = random_complex(rng, 10.0)
        fz, gz = sy.evaluate(f, z), sy.evaluate(g, z)
        assert abs(sy.evaluate(fg_sum, z) - (fz + gz)) <= 1e-10 * (1 + abs(fz) + abs(gz))
        assert abs(sy.evaluate(fg_prod, z) - fz * gz) <= 1e-10 * (1 + abs(fz * gz))


@settings(max_examples=60, deadline=None)
@given(terms_st, unit_disc, finite_complex, unit_disc, finite_complex, finite_complex)
def test_compose_associativity(raw_f, a1, b1, a2, b2, z):
    f = build_ef(raw_f)
    phi1, phi2 = AffineMap(a1, b1), AffineMap(a2, b2)
    left = sy.compose_affine(sy.compose_affine(f, phi1), phi2)
    right = sy.compose_affine(f, compose(phi1, phi2))
    lz, rz = sy.evaluate(left, z), sy.evaluate(right, z)
    assert abs(lz - rz) <= 1e-10 * (1.0 + abs(lz) + abs(rz))


def test_growth_envelope_dominates_circle(rng):
    for _ in range(10):
        f = random_entire_function(rng)
        for r in (1.0, 2.0, 4.0, 8.0):
            bound = growth_envelope(f, r)
            zs = r * np.exp(1j * 2 * np.pi * np.arange(256) / 256)
            values = np.exp(sy.log_abs_grid(f, zs))
            assert values.max() <= bound * (1 + 1e-12)


def test_growth_envelope_examples():
    assert growth_envelope(sy.ONE, 5.0) == 1.0
    assert growth_envelope(sy.variable(), 3.0) == 3.0
    f = sy.mul(sy.monomial(1, 2.0), sy.exp_term(1 + 1j))
    assert math.isclose(growth_envelope(f, 2.0), 4.0 * math.exp(2.0 * math.sqrt(2.0)))


def test_log_abs_matches_evaluate(rng):
    for _ in range(10):
        f = random_entire_function(rng)
        z = random_complex(rng, 3.0)
        value = abs(sy.evaluate(f, z))
        if value > 0:
            log_abs = float(sy.log_abs_grid(f, np.array([z]))[0])
            assert math.isclose(log_abs, math.log(value), rel_tol=1e-9, abs_tol=1e-9)


one_term_st = st.tuples(
    st.lists(st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
             min_size=1, max_size=4),
    st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(one_term_st, st.lists(st.complex_numbers(max_magnitude=40.0, allow_nan=False,
                                                allow_infinity=False), min_size=1, max_size=8))
def test_one_term_log_kernel_matches_the_scaled_values(raw, points):
    # log|P| + Re(cz) against the general path's m + log|P e^{i Im(cz)}|
    f = build_ef([raw])
    if f.is_zero:
        return
    zs = np.array(points, dtype=complex)
    m, acc = sy._scaled_values(f, zs)
    with np.errstate(divide="ignore"):
        expected = m + np.log(np.abs(acc))
    got = sy.log_abs_grid(f, zs)
    for g, e in zip(got, expected):
        if e == -math.inf:
            assert g == -math.inf
        else:
            assert abs(g - e) <= 8 * 2.0**-52 * max(1.0, abs(e)), (g, e)


def test_one_term_log_kernel_at_zeros_and_overflow():
    # an exact zero of P reads -inf, with or without a polynomial part
    f = parse_symbol("(z-0.5)*exp((1+2i)*z)")
    assert sy.log_abs_grid(f, np.array([0.5 + 0j]))[0] == -math.inf
    # Re(cz) past the float range reads +inf (and -inf on the other side),
    # as fock.log_gauge_grid promises, not nan
    f = parse_symbol("exp(1e308*z)")
    assert list(sy.log_abs_grid(f, np.array([10 + 0j, -10 + 0j]))) == [math.inf, -math.inf]
    assert log_gauge_grid(f, AffineMap(0.5), np.array([10 + 0j]))[0] == math.inf
    # both products of Re(c)x - Im(c)y overflow with opposite signs although
    # Re(cz) is 0 at 10 - 10i and 2e309 at 10 + 10i
    f = parse_symbol("exp((1e308-1e308i)*z)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sy.log_abs_grid(f, np.array([10 - 10j, 10 + 10j, 1 + 0j]))
    assert list(got) == [0.0, math.inf, 1e308]
    # a constant P reads log|c| everywhere
    f = sy.exp_term(0.25 - 1j, 3 - 4j)
    zs = np.array([0j, 2 + 1j, -7j])
    assert np.array_equal(sy.log_abs_grid(f, zs), 0.25 * zs.real + zs.imag + math.log(5.0))


def test_affine_map_validation():
    with pytest.raises(ValueError):
        AffineMap(1.5, 0.0)
    with pytest.raises(ValueError):
        AffineMap(complex("nan"), 0.0)
    assert AffineMap(1.0, 0.0).is_unit_modulus
    assert AffineMap(0.0, 2.0).is_constant_map


def test_constant_and_proportionality():
    assert sy.constant_value(sy.constant(3 - 1j)) == 3 - 1j
    assert sy.constant_value(sy.ZERO) == 0
    assert sy.constant_value(sy.variable()) is None
    f = sy.add(sy.variable(), sy.exp_term(0.5))
    lam = sy.proportionality_ratio(f, sy.scale(f, 2 - 1j))
    assert lam is not None and cmath.isclose(lam, 2 - 1j)
    assert sy.proportionality_ratio(f, sy.add(f, sy.ONE)) is None


def test_fock_index_validation():
    with pytest.raises(ValueError):
        sy.validate_fock_index(0.0)
    with pytest.raises(ValueError):
        sy.validate_fock_index(math.inf)
    assert sy.validate_fock_index(2) == 2.0


def test_zeros_of_one_term_merge_multiple_roots():
    # np.roots splits the triple root into a cluster about eps^{1/3} wide
    f = parse_symbol("exp((0.3-0.2i)*z)*(z-(0.6+0.8i))^3*(z+2)")
    zeros = sorted(sy.zeros(f, 4.0), key=lambda zm: zm[1])
    assert [m for _, m in zeros] == [1, 3]
    assert abs(zeros[0][0] + 2) < 1e-12 and abs(zeros[1][0] - (0.6 + 0.8j)) < 1e-4
    assert sy.zeros(f, 1.5) == [zeros[1]]


def test_zeros_of_several_terms_match_the_argument_principle(rng):
    # sinh z vanishes at i pi k
    zeros = sy.zeros(parse_symbol("exp(z) - exp(-z)"), 7.0)
    assert sorted(round(z.imag / math.pi) for z, _ in zeros) == [-2, -1, 0, 1, 2]
    assert all(abs(z - 1j * math.pi * round(z.imag / math.pi)) < 1e-12 for z, _ in zeros)
    for _ in range(10):
        f = random_entire_function(rng, max_terms=3, max_degree=3, rate_radius=1.5)
        zeros = sy.zeros(f, 8.0)
        if zeros is None:
            continue
        assert len(zeros) == sy._winding_number(f, 8.0)
        for z, _ in zeros:
            assert abs(z) < 8.0 and abs(f(z)) <= 1e-10 * growth_envelope(f, abs(z))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_family_image_zeros_carry_the_map_root():
    # a family image psi * phi^n has an n-fold zero at -b/a; today np.roots
    # scatters it into n simple zeros, and the Newton search does not certify it
    power = AffineMap(0.5, 0.2)
    for psi in (sy.ONE, parse_symbol("1 + z*exp(0.3*z)")):
        for n in (5, 10, 17):
            zeros = sy.zeros(sy.mul(psi, sy.compose_affine(sy.monomial(n), power)), 12.0)
            assert zeros is not None
            assert any(abs(z + 0.4) <= 1e-6 and m == n for z, m in zeros)
