"""Dual-route checks: the polar quadrature engine against independent oracles.

The Hilbert-space route expands a symbol in the normalized monomial basis
and sums squared coefficients (Parseval); the lattice route is a plain
Cartesian Riemann sum, converged offline and frozen here.  Neither touches
the polar engine's panels, tails, or angular rules.  At even p the exact
Gram route of ``fock.norm_power`` meets the engine, Parseval, the Weyl
closed form and a 50-digit mpmath sum of the same series.
"""

import itertools
import math

import mpmath
import numpy as np
import pytest

from focklab import symbols as sy
from focklab.fock import _gram_power, fock_norm, kernel, norm_power
from focklab.operators import _normalized_coefficients
from focklab.quadrature import CHECK_SPEC, DEFAULT_SPEC, gaussian_integral
from focklab.sampling import random_entire_function
from focklab.symbols import EntireFunction


def _basis_coefficients(f: EntireFunction, order: int) -> tuple[np.ndarray, float]:
    """First ``order`` normalized-basis coefficients of f, plus the tail fraction."""
    terms = [(t.rate, np.array(t.coeffs)[:, None]) for t in f.terms]
    alpha, fraction = _normalized_coefficients(terms, order, 1)
    return alpha[:, 0], float(fraction[0])


def parseval_norm(f, order=160):
    alpha, tail_fraction = _basis_coefficients(f, order)
    assert tail_fraction < 1e-9
    return math.sqrt(float(np.sum(np.abs(alpha) ** 2)))


def test_hilbert_norm_matches_parseval(rng):
    cases = [kernel(1 + 2j), sy.add(sy.monomial(3), sy.exp_term(0.5 - 1j))]
    cases += [random_entire_function(rng, max_terms=2, max_degree=3, rate_radius=1.0)
              for _ in range(8)]
    for f in cases:
        series = parseval_norm(f)
        quad = math.sqrt(gaussian_integral(f, 2.0, 2.0).value)
        assert math.isclose(series, quad, rel_tol=1e-9)


@pytest.mark.parametrize(
    "p, frozen, tol",
    [
        # Cartesian Riemann sums on [-11, 11]^2, 4800^2 points, convergence
        # checked across three grid refinements
        (0.5, 1.84520080, 5e-7),
        (1.0, 1.54857246, 2e-7),
    ],
)
def test_cusp_norm_matches_lattice_oracle(p, frozen, tol):
    f = sy.sub(sy.variable(), sy.ONE)
    nv = fock_norm(f, p, CHECK_SPEC)
    assert abs(nv.value - frozen) <= tol + nv.error_estimate


def weyl(a: complex, n: int):
    """k_a(z) (z - a)^n, whose p-norm is Gamma(np/2 + 1)^{1/p} (2/p)^{n/2}."""
    return sy.mul(kernel(a), sy.compose_affine(sy.monomial(n), sy.AffineMap(1.0, -a)))


def weyl_norm(n: int, p: float) -> float:
    return math.exp(math.lgamma(n * p / 2.0 + 1.0) / p) * (2.0 / p) ** (n / 2.0)


def mp_norm_power(f, k: int) -> mpmath.mpf:
    """||f||_{2k}^{2k} = ||f^k(./sqrt k)||_2^2 at 50 digits, summed in the
    monomial basis with <z^m e^{az}, z^n e^{bz}>
    = sum_l C(m, l) n!/(n-l)! a^{n-l} conj(b)^{m-l} e^{a conj(b)}."""
    with mpmath.workdps(50):
        s = 1 / mpmath.sqrt(k)
        factors = [(mpmath.mpc(t.rate) * s, [mpmath.mpc(c) * s**n for n, c in enumerate(t.coeffs)])
                   for t in f.terms]
        g = {}
        for combo in itertools.product(range(len(factors)), repeat=k):
            rate, poly = mpmath.mpc(0), [mpmath.mpc(1)]
            for j in combo:
                rate += factors[j][0]
                poly = [sum(poly[i] * factors[j][1][n - i] for i in range(len(poly))
                            if 0 <= n - i < len(factors[j][1]))
                        for n in range(len(poly) + len(factors[j][1]) - 1)]
            key = tuple(sorted(combo))
            if key in g:
                g[key] = (rate, [x + y for x, y in zip(g[key][1], poly)])
            else:
                g[key] = (rate, poly)
        total = mpmath.mpc(0)
        for a, p in g.values():
            for b, q in g.values():
                cb = mpmath.conj(b)
                for m, pm in enumerate(p):
                    for n, qn in enumerate(q):
                        inner = sum(mpmath.binomial(m, l) * mpmath.factorial(n) / mpmath.factorial(n - l)
                                    * a ** (n - l) * cb ** (m - l) for l in range(min(m, n) + 1))
                        total += pm * mpmath.conj(qn) * inner * mpmath.exp(a * cb)
        return total.real


def _gram_cases(rng):
    cases = [weyl(1.2 * np.exp(0.7j), 12), weyl(0.3 - 0.8j, 3), kernel(1 + 2j),
             sy.add(sy.monomial(3), sy.exp_term(0.5 - 1j))]
    cases += [random_entire_function(rng, max_terms=2, max_degree=3, rate_radius=1.0)
              for _ in range(4)]
    cases.append(random_entire_function(rng, max_terms=3, max_degree=2, rate_radius=1.5))
    return cases


@pytest.mark.parametrize("p", [2.0, 4.0, 6.0])
def test_even_p_routes_agree(rng, p):
    """Gram, quadrature, Parseval and the Weyl closed form agree, and every
    Gram estimate bounds the distance to the 50-digit sum."""
    k = int(p) // 2
    for f in _gram_cases(rng):
        exact = mp_norm_power(f, k)
        gram = _gram_power(f, k, DEFAULT_SPEC)
        assert gram is not None and gram.truncation_radius is None
        assert abs(gram.value - exact) <= gram.error_estimate
        assert norm_power(f, p) == gram
        quad = gaussian_integral(f, p, p)
        assert abs(gram.value - quad.value) <= gram.error_estimate + quad.error_estimate
        # Parseval on g = f^k(./sqrt k), expanded by the symbol algebra; its
        # sum in the monomial basis cancels, by 1e-8 relative on the
        # degree-36 Weyl case, where the recentred Gram sum does not
        g = sy.compose_affine(f, sy.AffineMap(1.0 / math.sqrt(k)))
        power = g
        for _ in range(k - 1):
            power = sy.mul(power, g)
        assert math.isclose(parseval_norm(power) ** 2, gram.value, rel_tol=1e-7)
        norm = fock_norm(f, p)
        root = float(exact ** (1 / mpmath.mpf(p)))
        assert abs(norm.value - root) <= norm.error_estimate + 8 * math.ulp(root)
    # the symbol's coefficients carry the rounding of expanding (z - a)^n,
    # so the closed form of the exact Weyl function meets it to 1e-13
    for n in (0, 1, 5, 12):
        norm = fock_norm(weyl(0.9 - 0.6j, n), p)
        assert abs(norm.value - weyl_norm(n, p)) <= norm.error_estimate + 1e-13 * norm.value


def test_near_equal_rates_fall_back_or_stay_bounded():
    # e^{cz} - e^{(c + eps) z}: blocks of size amp^2 cancel down to a small
    # norm, which the rounding bound either still resolves or hands to the
    # quadrature
    c, fallbacks = 0.8 + 0.3j, 0
    for amp, eps in itertools.product((1.0, 1e6), (1e-3, 1e-6, 1e-9)):
        f = sy.scale(sy.sub(sy.exp_term(c), sy.exp_term(c + eps)), amp)
        for k in (1, 2):
            gram = _gram_power(f, k, DEFAULT_SPEC)
            if gram is None:
                fallbacks += 1
            else:
                assert abs(gram.value - mp_norm_power(f, k)) <= gram.error_estimate
    assert fallbacks
