"""Weighted composition operators: application, Berezin transform, truncated
matrices on the Hilbert Fock space, and empirical operator-norm lower bounds.

The operator sends f to psi * (f o phi).  On the p = q = 2 space the
normalized monomials z^n / sqrt(n!) are an orthonormal basis, so truncating
the operator to the first N basis vectors yields a matrix whose largest
singular value (from LAPACK's SVD) is a lower bound for the operator norm
and converges to it from below as N grows.  The columns psi (az + b)^j /
sqrt(j!) come from a Pascal recurrence over j and one batched coefficient
transform per weight term; they are exact up to truncation, and the only
error is column tail mass, which is measured and reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import symbols
from .errors import Inadmissible, NumericFailure, TailLoss, ZeroSymbol
from .fock import NormValue, exp_matrix, fock_norm, gauge_peak, kernel, norm_power
from .quadrature import DEFAULT_SPEC, QuadratureSpec, polar_grid
from .symbols import AffineMap, EntireFunction, validate_fock_index

_TAIL_FRACTION = 1e-6
_EXTENSION = 192


@dataclass(frozen=True)
class WeightedCompositionOperator:
    """f -> psi * (f o phi) from the p-space into the q-space."""

    psi: EntireFunction
    phi: AffineMap
    p: float
    q: float

    def __post_init__(self):
        if self.psi.is_zero:
            raise ZeroSymbol("the weight symbol must not be identically zero")
        object.__setattr__(self, "p", validate_fock_index(self.p))
        object.__setattr__(self, "q", validate_fock_index(self.q))

    def apply(self, f: EntireFunction) -> EntireFunction:
        try:
            return symbols.mul(self.psi, symbols.compose_affine(f, self.phi))
        except Inadmissible:  # two admissible factors whose product overflows
            raise NumericFailure("psi (f o phi) has a coefficient beyond the float range") from None


def composition_operator(phi: AffineMap, p: float, q: float) -> WeightedCompositionOperator:
    return WeightedCompositionOperator(symbols.ONE, phi, p, q)


def berezin(op: WeightedCompositionOperator, w: complex,
            spec: QuadratureSpec | None = None) -> float:
    """||W k_w||_q^q, the kernel-witness transform of operator size."""
    image = op.apply(kernel(w))
    if image.is_zero:
        return 0.0
    return norm_power(image, op.q, spec).value


@dataclass(frozen=True)
class TruncatedMatrix:
    """Operator truncation in the normalized monomial basis of the Hilbert space.

    Column j holds the first ``order`` basis coefficients of the image of
    z^j / sqrt(j!); ``column_tail_fractions`` records, per column, the norm
    fraction lost to truncation.
    """

    order: int
    entries: np.ndarray
    column_tail_fractions: tuple[float, ...]


def _normalized_coefficients(terms: list[tuple[complex, np.ndarray]], order: int,
                             width: int) -> tuple[np.ndarray, np.ndarray]:
    """Normalized-basis coefficients of a batch of functions sum_i Q_i(z) e^{c_i z}.

    Each (c, Q) pair holds a rate and raw polynomial coefficients, Q[m, j]
    the coefficient of z^m in function j of the ``width`` in the batch.  The
    coefficient of z^n / sqrt(n!) is
        sum_m Q[m, j] sqrt(m!) K[n, m],   K = fock.exp_matrix(c, ...).
    Returns the first ``order`` coefficients of each function (one per
    column) and each function's tail fraction.
    """
    extended = order + _EXTENSION
    alpha = np.zeros((extended, width), dtype=complex)
    ratio = np.zeros(width)
    for rate, raw in terms:
        m = np.arange(raw.shape[0])
        kernel = exp_matrix(rate, extended, raw.shape[0])
        root_factorials = np.exp(0.5 * np.array([math.lgamma(k + 1) for k in m]))
        alpha += kernel @ (raw * root_factorials[:, None])
        # the ratio of consecutive terms at the window's edge, for the
        # highest power with a nonzero coefficient in each function
        nonzero = raw != 0
        degree = raw.shape[0] - 1 - np.argmax(nonzero[::-1], axis=0)
        edge = abs(rate) * math.sqrt(extended + 1) / (extended + 1 - degree)
        ratio = np.where(nonzero.any(axis=0), np.maximum(ratio, edge), ratio)
    mass = np.abs(alpha) ** 2
    head = mass[:order].sum(axis=0)
    tail = mass[order:].sum(axis=0)
    # geometric bound on the mass beyond the extension window; when the
    # coefficient ratio cannot certify decay yet, count the whole head as
    # uncertain so the tail check fails loudly instead of under-reporting
    decaying = np.where((ratio > 0.0) & (ratio < 0.9), ratio**2, 0.0)
    tail = tail + mass[-1] * decaying / (1.0 - decaying)
    tail = np.where(ratio >= 0.9, np.maximum(tail, head), tail)
    total = head + tail
    fraction = np.sqrt(np.divide(tail, total, out=np.zeros(width), where=total > 0))
    return alpha[:order], fraction


def _basis_coefficients(f: EntireFunction, order: int) -> tuple[np.ndarray, float]:
    """First ``order`` normalized-basis coefficients of f, plus the tail fraction."""
    terms = [(t.rate, np.array(t.coeffs)[:, None]) for t in f.terms]
    alpha, fraction = _normalized_coefficients(terms, order, 1)
    return alpha[:, 0], float(fraction[0])


def _column_powers(phi: AffineMap, order: int) -> np.ndarray:
    """Raw coefficients of (a z + b)^j / sqrt(j!) in column j, by Pascal's rule."""
    powers = np.zeros((order, order), dtype=complex)
    powers[0, 0] = 1.0
    for j in range(1, order):
        powers[:j + 1, j] = phi.b * powers[:j + 1, j - 1]
        powers[1:j + 1, j] += phi.a * powers[:j, j - 1]
        powers[:j + 1, j] /= math.sqrt(j)
    return powers


def f2_matrix(op: WeightedCompositionOperator, order: int = 64,
              check_tail: bool = True) -> TruncatedMatrix:
    """Exact truncated matrix of the operator on the Hilbert Fock space.

    Column j is the image psi(z) (a z + b)^j / sqrt(j!) of the j-th basis
    vector; all columns go through one coefficient transform per weight
    term.  Meaningful as a norm bracket only for p = q = 2.  Raises TailLoss
    when a column loses more than 1e-6 of its norm to truncation (disable
    via ``check_tail`` to inspect deliberately lossy truncations, e.g. for
    witnessing unbounded operators).
    """
    if order < 8:
        raise ValueError("matrix order must be at least 8")
    # b^j and sqrt(k!) (past k ~ 300) can overflow; matrix_sigma_max reports
    # the non-finite entries, so numpy's warnings would only repeat that
    with np.errstate(over="ignore", invalid="ignore"):
        powers = _column_powers(op.phi, order)
        terms = []
        for t in op.psi.terms:
            raw = np.zeros((order + t.degree, order), dtype=complex)
            for i, coefficient in enumerate(t.coeffs):
                raw[i:i + order] += coefficient * powers
            terms.append((t.rate, raw))
        entries, fractions = _normalized_coefficients(terms, order, order)
    tails = tuple(fractions.tolist())
    matrix = TruncatedMatrix(order, entries, tails)
    if check_tail and max(tails) > _TAIL_FRACTION:
        raise TailLoss(
            f"column tail fraction {max(tails):g} exceeds {_TAIL_FRACTION:g} at order {order}"
        )
    return matrix


def matrix_sigma_max(matrix: TruncatedMatrix | np.ndarray) -> float:
    """Largest singular value, from LAPACK's SVD.

    A truncated matrix is the compression P_N W P_N of the operator to the
    first N basis vectors, so its sigma is a lower bound of the operator norm
    (of the difference's norm, for a difference of two truncations) that
    cannot decrease as N grows.
    """
    m = matrix.entries if isinstance(matrix, TruncatedMatrix) else np.asarray(matrix)
    if not np.isfinite(m).all():
        raise NumericFailure("matrix entries are not finite")
    return float(np.linalg.svd(m, compute_uv=False)[0])


@dataclass(frozen=True)
class FamilySpec:
    """Test-function family for empirical norm bounds: kernels on a polar grid
    of centers plus normalized monomials."""

    kernel_radius: float = 6.0
    kernel_radii: int = 12
    kernel_angles: int = 16
    monomial_degree: int = 20


DEFAULT_FAMILY = FamilySpec()


def _family_sup(image_norm, p: float, family: FamilySpec,
                spec: QuadratureSpec,
                extra_centers: Sequence[complex] = ()) -> float:
    """max over the family of the lower side of ||image(f)||_q / ||f||_p,
    under both error estimates; kernels have unit p-norm.

    The monomials go first, highest degree first: an image norm beyond the
    float range, which ends the sweep, shows there soonest.
    """
    ratios = [image_norm(f).lower / fock_norm(f, p, spec).upper
              for f in map(symbols.monomial, range(family.monomial_degree, -1, -1))]
    centers = list(polar_grid(family.kernel_radius, family.kernel_radii, family.kernel_angles,
                              include_origin=True))
    ratios += [image_norm(kernel(w)).lower for w in centers + list(extra_centers)]
    return max(ratios)


def _gauge_witness_centers(op: WeightedCompositionOperator,
                           family: FamilySpec) -> list[complex]:
    # the kernel at phi(argmax of the gauge) witnesses the gauge supremum, so
    # including it makes the empirical bound reach the theoretical lower
    # bracket; skipped when the witness sits too far out for stable quadrature
    z, log_peak = gauge_peak(op.psi, op.phi)
    if not math.isfinite(log_peak):
        return []
    w = op.phi(z)
    if abs(w) <= 2.0 * family.kernel_radius + 4.0:
        return [w]
    return []


def empirical_norm(op: WeightedCompositionOperator, family: FamilySpec | None = None,
                   spec: QuadratureSpec | None = None) -> float:
    """A certified lower bound for the operator norm from a finite test family.

    The family is the configured kernel grid and normalized monomials, plus
    the kernel at the gauge-sup witness point, so the result is never below
    the gauge supremum (up to quadrature error) for bounded operators.
    """
    family = family or DEFAULT_FAMILY
    spec = spec or DEFAULT_SPEC

    def image_norm(f: EntireFunction) -> NormValue:
        return fock_norm(op.apply(f), op.q, spec)

    return _family_sup(image_norm, op.p, family, spec,
                       extra_centers=_gauge_witness_centers(op, family))


def empirical_distance(first: WeightedCompositionOperator,
                       second: WeightedCompositionOperator,
                       family: FamilySpec | None = None,
                       spec: QuadratureSpec | None = None) -> float:
    """A certified lower bound for ||W1 - W2|| from the same test family."""
    if first.p != second.p or first.q != second.q:
        raise ValueError("operators must share domain and codomain exponents")
    family = family or DEFAULT_FAMILY
    spec = spec or DEFAULT_SPEC

    def image_norm(f: EntireFunction) -> NormValue:
        try:
            difference = symbols.sub(first.apply(f), second.apply(f))
        except Inadmissible:  # two admissible images whose difference overflows
            raise NumericFailure("W1 f - W2 f has a coefficient beyond the float range") from None
        return fock_norm(difference, first.q, spec)

    return _family_sup(image_norm, first.p, family, spec)
