"""Fock-space norms, kernel functions and the growth-inequality suite.

The p-norm of an entire function is
    ||f||_p = ( (p / 2 pi) * integral |f(z)|^p exp(-p |z|^2 / 2) dA(z) )^{1/p},
a quasi-norm for 0 < p < 1 (no triangle inequality is ever assumed; the
metric there is ||f - g||_p^p, exposed as ``fock_distance``).  Every member
of the symbol class lies in every Fock space, since its growth envelope is
exponential-of-linear while the weight decays like a Gaussian.

At p = 2, 4, 6, ... the norm is a closed-form series (``norm_power``):
||f||_{2k}^{2k} = ||g||_2^2 for g(u) = f^k(u / sqrt k), and every term
P(u) e^{c u} of g is e^{|w|^2/2} W_w Q with w = conj(c), Q(u) = P(u + w) and
W_w h(u) = h(u - w) k_w(u) the unitary Weyl operator (Zhu, *Analysis on Fock
Spaces*, GTM 263, 2012).  A term's own block is then e^{|w|^2} sum |q_n|^2 n!,
a sum of positive numbers, and two terms meet in
    <W_w Q, W_v Q'> = e^{-i Im(conj(v) w)} <W_{w-v} Q, Q'>,
    <z^m e^{alpha z}, z^n> = n! / (n-m)! alpha^{n-m}.
There the error estimate is a rigorous bound on the rounding of that sum and
``truncation_radius`` is None; where the bound misses the tolerance, a
partial sum overflows or the expansion of f^k is too large, the norm falls
back to the quadrature like every other p.

The inequality checks certify, on sample grids, the three workhorse bounds:
pointwise growth |f(z)| <= e^{|z|^2/2} ||f||_p, the derivative variant with
constant e^2 (1+|z|), and the inclusion constant (q/p)^{1/q} between spaces.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import symbols
from .errors import BoundViolated, NumericFailure
from .quadrature import DEFAULT_SPEC, QuadratureSpec, gaussian_integral, polar_grid
from .symbols import EntireFunction, validate_fock_index


# the exact route expands f^k for p = 2k only while k times the number of
# coefficients of the expansion, the work of expanding it factor by factor,
# stays within this cap (so p = 1000 never expands f^500)
_GRAM_MAX_WORK = 400
_UNIT_ROUNDOFF = 2.0**-53
# the bound's own arithmetic adds and multiplies nonnegative numbers, so it
# errs relatively, by far less than this margin, at the sizes the cap admits
_BOUND_MARGIN = 1.0 + 1e-9


@dataclass(frozen=True)
class NormValue:
    """A norm (or its p-th power) with its error estimate.

    ``truncation_radius`` is the quadrature's truncation radius; the exact
    route at even p has none, and its estimate is a rounding bound.
    """

    value: float
    error_estimate: float
    truncation_radius: float | None = None

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("norm value must be nonnegative")

    @property
    def lower(self) -> float:
        """The certified lower side, value - error_estimate but at least 0."""
        return max(self.value - self.error_estimate, 0.0)

    @property
    def upper(self) -> float:
        """The certified upper side, value + error_estimate."""
        return self.value + self.error_estimate


def exp_matrix(rate: complex, rows: int, cols: int) -> np.ndarray:
    """Multiplication by e^{rate z} in the normalized basis z^n / sqrt(n!).

    K[n, m] = rate^{n-m} sqrt(n!/m!) / (n-m)! for n >= m, else 0, built by
    the multiplicative recurrence K[n + 1, m] = K[n, m] rate sqrt(n + 1) /
    (n + 1 - m), one cumulative product over n for all m.  K[n, m] is also
    <z^m e^{rate z}, z^n> in that basis, and the transpose K(t)^T shifts a
    polynomial, Q(u) = P(u + t).
    """
    n = np.arange(rows)[:, None]
    gap = n - np.arange(cols)
    steps = np.where(gap > 0, rate * np.sqrt(n) / np.maximum(gap, 1), 1.0)
    return np.tril(np.cumprod(steps, axis=0))


def _gamma(n: float) -> float:
    """Higham's gamma_n = n u / (1 - n u): n roundings err by at most this, relatively."""
    return n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)


def _apply(m: np.ndarray, m_err: np.ndarray,
           x: np.ndarray, x_err: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """m @ x and a bound on its error, given bounds on the errors of m and x."""
    value = m @ x
    am, ax = np.abs(m), np.abs(x)
    err = am @ x_err + m_err @ (ax + x_err) + _gamma(m.shape[-1] + 3) * (am @ ax)
    return value, err


def _convolve(a: np.ndarray, a_err: np.ndarray,
              b: np.ndarray, b_err: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The product of two polynomials and a bound on its error."""
    aa, ab = np.abs(a), np.abs(b)
    err = (np.convolve(aa, b_err) + np.convolve(a_err, ab + b_err)
           + _gamma(min(a.size, b.size) + 3) * np.convolve(aa, ab))
    return np.convolve(a, b), err


def _bounded_exp_matrix(t: complex, t_err: float, rows: int,
                        cols: int) -> tuple[np.ndarray, np.ndarray]:
    """exp_matrix(t) and a bound on its distance from exp_matrix(t0), |t0 - t| <= t_err.

    An entry is t^j times a positive number, j = n - m; |t0^j - t^j| <= j
    t_err x^{j-1} with x = |t| + t_err, and the recurrence's 6 j roundings
    (a complex product, a root, a product and a quotient per step) err by
    gamma_{6j} relatively.
    """
    k = exp_matrix(t, rows, cols)
    x = abs(t) + t_err
    gap = np.maximum(np.arange(rows)[:, None] - np.arange(cols), 0)
    moved = exp_matrix(x, rows, cols) * gap * (t_err / x) if t_err > 0 else 0.0
    return k, moved + _gamma(6 * max(rows, cols)) * np.abs(k)


def _expansion(f: EntireFunction, k: int) -> list[tuple[complex, float, np.ndarray, np.ndarray]]:
    """The terms of g(u) = f^k(u / sqrt k) as (w, bound, q, bound) with
    w = conj(rate) and q the coefficients of Q(u) = P(u + w) in the
    normalized basis, each with a bound on its rounding error.

    One term per multiset of k terms of f: their product times the
    multinomial coefficient, so equal multisets are never summed twice.
    """
    s = 1.0 / math.sqrt(k)
    factors = []
    for t in f.terms:
        n = np.arange(t.degree + 1)
        coeffs = np.asarray(t.coeffs) * s**n
        rate = t.rate * s
        factors.append((rate, _gamma(3) * abs(rate), coeffs, _gamma(2 * n + 2) * np.abs(coeffs)))
    out = []
    for combo in itertools.combinations_with_replacement(range(len(factors)), k):
        rate, rate_err, moduli = 0j, 0.0, 0.0
        p, p_err = np.ones(1, dtype=complex), np.zeros(1)
        for j in combo:
            c, c_err, coeffs, coeffs_err = factors[j]
            rate, rate_err, moduli = rate + c, rate_err + c_err, moduli + abs(c)
            p, p_err = _convolve(p, p_err, coeffs, coeffs_err)
        multiplicities = [combo.count(j) for j in set(combo)]
        weight = float(math.factorial(k) // math.prod(math.factorial(m) for m in multiplicities))
        p = weight * p
        p_err = (1.0 + _gamma(2)) * weight * p_err + _gamma(2) * np.abs(p)
        # to the normalized basis: sqrt(n!) as a running product, 2n roundings
        size = p.size
        root = np.cumprod(np.sqrt(np.maximum(np.arange(size), 1)))
        p_err = (1.0 + _gamma(2 * size)) * root * (p_err + _gamma(2 * size) * np.abs(p))
        p = p * root
        w, w_err = rate.conjugate(), rate_err + _gamma(k) * moduli
        shift, shift_err = _bounded_exp_matrix(w, w_err, size, size)
        q, q_err = _apply(shift.T, shift_err.T, p, p_err)
        out.append((w, w_err, q, q_err))
    return out


def _block(first, second) -> tuple[float, float]:
    """<G, G'> (or twice its real part, for two different terms) and its error
    bound, for G = e^{|w|^2/2} W_w Q and G' = e^{|v|^2/2} W_v Q'.

    <G, G'> = e^{conj(w) v} <R e^{alpha z}, Q'> with d = w - v, R(u) = Q(u - d)
    and alpha = conj(d).
    """
    w, w_err, q, q_err = first
    v, v_err, q2, q2_err = second
    if first is second:
        y, y_err, weight = q, q_err, 1.0
    else:
        d = w - v
        d_err = (1.0 + _gamma(1)) * (w_err + v_err) + _gamma(1) * abs(d)
        shift, shift_err = _bounded_exp_matrix(-d, d_err, q.size, q.size)
        r, r_err = _apply(shift.T, shift_err.T, q, q_err)
        mult, mult_err = _bounded_exp_matrix(d.conjugate(), d_err, q2.size, q.size)
        y, y_err = _apply(mult, mult_err, r, r_err)
        weight = 2.0
    inner, inner_err = _apply(q2.conj()[None, :], q2_err[None, :], y, y_err)
    inner, inner_err = complex(inner[0]), float(inner_err[0])
    x = w.conjugate() * v
    x_err = abs(w) * v_err + abs(v) * w_err + w_err * v_err + _gamma(3) * abs(x)
    factor = cmath.exp(x)
    # exp's own rounding, and how far the rounded exponent moves it
    factor_rel = math.expm1(x_err) + _gamma(4)
    value = weight * (factor * inner).real
    err = weight * abs(factor) * (inner_err + factor_rel * (abs(inner) + inner_err)
                                  + _gamma(3) * abs(inner))
    return value, err


def _gram_power(f: EntireFunction, k: int, spec: QuadratureSpec) -> NormValue | None:
    """||f||_{2k}^{2k} in closed form, or None where the route does not hold."""
    terms, degree = len(f.terms), f.degree
    if k > _GRAM_MAX_WORK or k * math.comb(terms + k - 1, k) * (k * degree + 1) > _GRAM_MAX_WORK:
        return None
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            expansion = _expansion(f, k)
            blocks = [_block(a, b) for i, a in enumerate(expansion) for b in expansion[i:]]
        value = math.fsum(b for b, _ in blocks)
    except (OverflowError, ValueError):  # an exponential, or inf - inf, past the float range
        return None
    error = _BOUND_MARGIN * (sum(e for _, e in blocks)
                             + _gamma(len(blocks)) * sum(abs(b) for b, _ in blocks))
    if not (math.isfinite(value) and math.isfinite(error)):
        return None
    if error > max(spec.abs_tol, spec.rel_tol * value):
        return None
    return NormValue(max(value, 0.0), error, None)


def _scaled_norm_power(f: EntireFunction, p: float,
                      spec: QuadratureSpec | None) -> tuple[NormValue, float]:
    """||f||_p^p as (v, log_scale): the power is v times exp(log_scale)."""
    spec = spec or DEFAULT_SPEC
    if p % 2.0 == 0.0:
        exact = _gram_power(f, int(p) // 2, spec)
        if exact is not None:
            return exact, 0.0
    res = gaussian_integral(f, p, p, spec)
    return NormValue(res.value, res.error_estimate, res.truncation_radius), res.log_scale


def norm_power(f: EntireFunction, p: float, spec: QuadratureSpec | None = None) -> NormValue:
    """||f||_p^p: the closed-form Gram sum at p = 2, 4, 6, ... where its
    rounding bound meets the spec's tolerance, the quadrature otherwise."""
    res, log_scale = _scaled_norm_power(f, p, spec)
    if log_scale:
        scale = symbols.safe_exp(log_scale)
        res = NormValue(res.value * scale, res.error_estimate * scale, res.truncation_radius)
    return res


def fock_norm(f: EntireFunction, p: float,
              spec: QuadratureSpec | None = None) -> NormValue:
    """||f||_p from ``norm_power``; exact zero for the zero function."""
    p = validate_fock_index(p)
    if f.is_zero:
        return NormValue(0.0, 0.0, None)
    amp, _, _ = symbols.envelope_majorant(f)
    if not math.isfinite(amp):
        raise NumericFailure("the symbol's coefficient sum exceeds the float range")
    # the norm is homogeneous: so that the Gram sum neither overflows nor
    # underflows, 2^ceil(log2 amp) (at least 2^-1023, whose reciprocal is a
    # float) is divided out exactly and multiplied back at the end
    mantissa, exponent = math.frexp(amp)
    exponent = max(exponent - (mantissa == 0.5), -1023)
    if exponent:
        f = symbols.scale(f, math.ldexp(1.0, -exponent))
    res, log_scale = _scaled_norm_power(f, p, spec)
    if res.value == 0.0 and res.error_estimate == 0.0:
        # a nonzero function has a positive norm: |f|^p fell below the float range
        raise NumericFailure(f"|f|^{p} underflows the float range")
    value = res.value ** (1.0 / p)
    if res.value > res.error_estimate:
        # x^{1/p} is concave, so the step down to (I - dI)^{1/p} is the
        # larger side; to first order it is I^{1/p} dI / (p I)
        error = -value * math.expm1(math.log1p(-res.error_estimate / res.value) / p)
    else:
        error = res.upper ** (1.0 / p)
    try:
        if log_scale:  # the quadrature integrated |f|^p / exp(log_scale)
            scale = math.exp(log_scale / p)
            value, error = value * scale, error * scale
        value, error = math.ldexp(value, exponent), math.ldexp(error, exponent)
    except OverflowError:
        raise NumericFailure(f"the {p}-norm exceeds the float range") from None
    return NormValue(value, error, res.truncation_radius)


def fock_distance(f: EntireFunction, g: EntireFunction, p: float,
                  spec: QuadratureSpec | None = None) -> float:
    """||f-g||_p for p >= 1; the complete metric ||f-g||_p^p for 0 < p < 1."""
    p = validate_fock_index(p)
    n = fock_norm(symbols.sub(f, g), p, spec).value
    return n if p >= 1.0 else n**p


def sup_norm(f: EntireFunction) -> NormValue:
    """sup over the plane of |f(z)| exp(-|z|^2/2): the gauge of f and the zero map."""
    if f.is_zero:
        return NormValue(0.0, 0.0)
    _, best = gauge_peak(f, symbols.AffineMap(0.0))
    value = symbols.safe_exp(best)
    return NormValue(value, 1e-11 * value)


def kernel(w: complex) -> EntireFunction:
    """The unit-norm kernel function exp(conj(w) z - |w|^2 / 2); the zero
    function where exp(-|w|^2 / 2) underflows, past |w| = 38.6."""
    w = complex(w)
    return symbols.exp_term(w.conjugate(), math.exp(-symbols.square(abs(w)) / 2.0))


def log_gauge_grid(psi: EntireFunction, phi: symbols.AffineMap, zs) -> np.ndarray:
    """log of |psi(z)| exp((|phi(z)|^2 - |z|^2)/2), the symbol gauge, on an array.

    Never raises: a log beyond the float range reads +inf, and a point where
    overflowing parts cancel (inf - inf) reads -inf, so no nan reaches a
    maximum.
    """
    zs = np.asarray(zs, dtype=complex)
    a, b = phi.a, phi.b
    with np.errstate(over="ignore", invalid="ignore"):
        quad = (abs(a) ** 2 - 1.0) * np.abs(zs) ** 2
        linear = 2.0 * (b.conjugate() * a * zs).real
        logs = symbols.log_abs_grid(psi, zs) + 0.5 * (quad + linear + symbols.square(abs(b)))
    return np.where(np.isnan(logs), -np.inf, logs)


def gauge_at(psi: EntireFunction, phi: symbols.AffineMap, z: complex) -> float:
    """The pointwise symbol gauge, evaluated in the log domain."""
    return symbols.safe_exp(float(log_gauge_grid(psi, phi, z)))


# The gauge maximizer: a polar grid of _GRID_RADII x _GRID_ANGLES points and
# the per-term stationary points seed a damped Newton ascent of the _POLISHED
# best points; the cap only bounds a call's work, no seed comes near it.
_GRID_RADII = 24
_GRID_ANGLES = 32
_POLISHED = 4
_MAX_ROUNDS = 100


def _newton_ascent(psi: EntireFunction, phi: symbols.AffineMap,
                   zs: np.ndarray, values: np.ndarray) -> tuple[complex, float]:
    """Damped Newton ascent of every point at once; the best point reached.

    With F = psi'/psi and lam = 1 - |a|^2 the log gauge G has gradient g =
    conj(F) - lam z + b conj(a) and Hessian d -> conj(F' d) - lam d; a step
    solves lam d - conj(F' d) = g, lam raised to |F'| + min(lam, |g|)/2 where
    smaller (a Levenberg shift: the model stays concave, a flat direction
    takes a bounded step).  A step is kept where it raises G, else halved;
    a point's last promises a rise below G's rounding and may lose that much.
    """
    dpsi = symbols.differentiate(psi)
    derivatives = (dpsi, symbols.differentiate(dpsi))
    lam, pull = 1.0 - abs(phi.a) ** 2, phi.b * phi.a.conjugate()

    def newton(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # psi, psi' and psi'' at one scale keep F and F' finite where psi overflows
        m, v = symbols._scaled_values(psi, z)
        f, f2 = (symbols._scaled_values(d, z, m)[1] / v for d in derivatives)
        c, g = f2 - f * f, f.conjugate() - lam * z + pull
        shift = np.maximum(lam, np.abs(c) + np.minimum(lam, np.abs(g)) / 2.0)
        return g, (shift * g + c.conjugate() * g.conjugate()) / (shift**2 - np.abs(c) ** 2)

    with np.errstate(all="ignore"):
        (grad, step), scale, active = newton(zs), np.ones(zs.shape), np.ones(zs.shape, dtype=bool)
        for _ in range(_MAX_ROUNDS):
            trial = zs + scale * step
            trial_values, (trial_grad, trial_step) = log_gauge_grid(psi, phi, trial), newton(trial)
            rounding = 4.0 * _UNIT_ROUNDOFF * (1.0 + np.abs(values))
            final = active & ~(scale * (grad.conjugate() * step).real > rounding)
            moved = active & (trial_values > values - np.where(final, rounding, 0.0))
            zs, values = np.where(moved, trial, zs), np.where(moved, trial_values, values)
            grad, step = np.where(moved, trial_grad, grad), np.where(moved, trial_step, step)
            scale, active = np.where(moved, 1.0, 0.5 * scale), active & ~final
            if not active.any():
                break
    k = int(np.argmax(values))
    return complex(zs[k]), float(values[k])


def gauge_peak(psi: EntireFunction, phi: symbols.AffineMap) -> tuple[complex, float]:
    """argmax of the gauge and its log value (finite for |a| < 1 unless the
    log itself overflows, which reads +inf).

    For unit-modulus maps, whose gauge is constant or unbounded, and for the
    zero weight the origin is returned as a representative point.
    For |a| < 1 the grid reaches past both the concavity scale 4/(1-|a|^2)
    (at most 60) and the reach (rate + |ab|)/alpha + sqrt(degree/alpha) of
    psi's growth against the Gaussian decay alpha = (1-|a|^2)/2.
    """
    if phi.is_unit_modulus or psi.is_zero:
        return 0j, float(log_gauge_grid(psi, phi, 0j))
    a, b = phi.a, phi.b
    alpha = (1.0 - abs(a) ** 2) / 2.0
    reach = (psi.max_rate + abs(a * b)) / alpha + math.sqrt(psi.degree / alpha)
    radius = max(min(2.0 / max(alpha, 5e-4), 60.0), reach)
    stationary = [(t.rate + b.conjugate() * a).conjugate() / (2.0 * alpha) for t in psi.terms]
    # a reach past the float range puts nan on the grid; the log peak is then
    # past it too and reads +inf, or the ascent fails with its own error, so
    # numpy's warning would only repeat that
    with np.errstate(invalid="ignore"):
        grid = polar_grid(radius, _GRID_RADII, _GRID_ANGLES, include_origin=True)
    zs = np.concatenate((stationary, grid))
    values = log_gauge_grid(psi, phi, zs)
    best = np.argsort(values)[-_POLISHED:]
    return _newton_ascent(psi, phi, zs[best], values[best])


def default_bound_grid() -> np.ndarray:
    # the growth bounds are tightest at moderate |z|
    return polar_grid(6.0, 30, 16, include_origin=True)


@dataclass(frozen=True)
class BoundReport:
    bound: str
    max_ratio: float
    witness: complex
    norm: NormValue


def _certified(bound: str, ratios: np.ndarray, sample: np.ndarray, norm: NormValue,
               tolerance: float) -> BoundReport:
    k = int(np.argmax(ratios))
    report = BoundReport(bound, float(ratios[k]), complex(sample.ravel()[k]), norm)
    if report.max_ratio > 1.0 + tolerance:
        raise BoundViolated(
            f"{bound.replace('-', ' ')} bound violated: ratio {report.max_ratio} at z = {report.witness}",
            witness=report.witness,
        )
    return report


def check_growth_inequalities(f: EntireFunction, p: float,
                              sample: np.ndarray | None = None,
                              spec: QuadratureSpec | None = None,
                              tolerance: float = 1e-8) -> tuple[BoundReport, BoundReport]:
    """Certify |f(z)| <= e^{|z|^2/2} ||f||_p and |f'(z)| <= e^2 (1+|z|)
    e^{|z|^2/2} ||f||_p on the sample from one norm; returns the pointwise
    and the derivative report, each with its max ratio."""
    sample = default_bound_grid() if sample is None else np.asarray(sample, dtype=complex)
    norm = fock_norm(f, p, spec)
    if norm.value == 0.0:
        return (BoundReport("pointwise-growth", 0.0, 0j, norm),
                BoundReport("derivative-growth", 0.0, 0j, norm))
    r = np.abs(sample)
    lhs = np.exp(symbols.log_abs_grid(f, sample) - r**2 / 2.0)
    pointwise = _certified("pointwise-growth", lhs / norm.value, sample, norm, tolerance)
    df = symbols.differentiate(f)
    if df.is_zero:
        return pointwise, BoundReport("derivative-growth", 0.0, 0j, norm)
    log_bound = 2.0 + np.log1p(r) + r**2 / 2.0 + math.log(norm.value)
    ratios = np.exp(symbols.log_abs_grid(df, sample) - log_bound)
    return pointwise, _certified("derivative-growth", ratios, sample, norm, tolerance)


@dataclass(frozen=True)
class EmbeddingReport:
    norm_small: NormValue  # ||f||_p, the smaller space
    norm_large: NormValue  # ||f||_q
    constant: float        # (q/p)^{1/q}
    ratio: float           # ||f||_q / (constant ||f||_p)


def check_embedding(f: EntireFunction, p: float, q: float,
                    spec: QuadratureSpec | None = None,
                    tolerance: float = 1e-8) -> EmbeddingReport:
    """Certify ||f||_q <= (q/p)^{1/q} ||f||_p for p < q."""
    p, q = validate_fock_index(p), validate_fock_index(q)
    if not p < q:
        raise ValueError("embedding check requires p < q")
    np_, nq = fock_norm(f, p, spec), fock_norm(f, q, spec)
    constant = (q / p) ** (1.0 / q)
    ratio = 0.0 if np_.value == 0.0 else nq.value / (constant * np_.value)
    report = EmbeddingReport(np_, nq, constant, ratio)
    if ratio > 1.0 + tolerance:
        raise BoundViolated(f"embedding constant violated: ratio {ratio} for p={p}, q={q}")
    return report
