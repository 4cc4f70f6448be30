"""Seeded random generators for symbols, maps and operators.

Used by the verification suite and the regression tests; everything is a
pure function of the supplied numpy Generator, so runs replay exactly from
a seed.
"""

from __future__ import annotations

import math

import numpy as np

from . import symbols
from .symbols import AffineMap, EntireFunction, PolyExpTerm
from .operators import WeightedCompositionOperator

# coefficients are drawn from a disc of this radius, then pushed past _MIN_COEFF
_COEFF_RADIUS = 1.5
_MIN_COEFF = 0.25


def random_complex(rng: np.random.Generator, radius: float) -> complex:
    r = radius * math.sqrt(rng.uniform())
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return r * complex(math.cos(theta), math.sin(theta))


def random_entire_function(rng: np.random.Generator, *, max_terms: int = 3,
                           max_degree: int = 3, rate_radius: float = 1.5) -> EntireFunction:
    """A nonzero random member of the poly-exp class with O(1) coefficients."""
    while True:
        n_terms = int(rng.integers(1, max_terms + 1))
        terms = []
        for _ in range(n_terms):
            degree = int(rng.integers(0, max_degree + 1))
            coeffs = []
            for _ in range(degree + 1):
                c = random_complex(rng, _COEFF_RADIUS)
                if abs(c) < _MIN_COEFF:
                    c += _MIN_COEFF * complex(math.cos(rng.uniform(0, 2 * math.pi)),
                                              math.sin(rng.uniform(0, 2 * math.pi)))
                coeffs.append(c)
            terms.append(PolyExpTerm(tuple(coeffs), random_complex(rng, rate_radius)))
        f = EntireFunction(tuple(terms))
        if not f.is_zero:
            return f


def random_affine(rng: np.random.Generator, *, regime: str = "interior",
                  a_max: float = 0.9, b_radius: float = 1.0) -> AffineMap:
    """regime: 'interior' (0 < |a| < 1), 'unit' (|a| = 1), 'zero' (a = 0)."""
    b = random_complex(rng, b_radius)
    if regime == "zero":
        return AffineMap(0.0, b)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    phase = complex(math.cos(theta), math.sin(theta))
    if regime == "unit":
        return AffineMap(phase, b)
    if regime == "interior":
        modulus = rng.uniform(0.15, a_max)
        return AffineMap(modulus * phase, b)
    raise ValueError(f"unknown regime {regime!r}")


def unit_leaf_weight(phi: AffineMap, coefficient: complex) -> EntireFunction:
    """The admissible weight c * exp(-conj(b) a z) for a unit-modulus map."""
    if not phi.is_unit_modulus:
        raise ValueError("leaf weights exist for unit-modulus maps only")
    return symbols.exp_term(-phi.b.conjugate() * phi.a, coefficient)


def random_bounded_operator(rng: np.random.Generator, p: float, q: float, *,
                            a_max: float = 0.7, allow_unit: bool = False,
                            rate_radius: float = 0.8,
                            b_radius: float = 0.8) -> WeightedCompositionOperator:
    """A random operator that is bounded from the p-space to the q-space.

    Interior maps give compact operators for any class weight; with
    ``allow_unit`` (p <= q only) one third of the draws sit on a
    unit-modulus leaf with its admissible weight.
    """
    if allow_unit and p <= q and rng.uniform() < 1.0 / 3.0:
        phi = random_affine(rng, regime="unit", b_radius=b_radius)
        c = random_complex(rng, 1.5)
        if abs(c) < 0.25:
            c += 0.5
        return WeightedCompositionOperator(unit_leaf_weight(phi, c), phi, p, q)
    phi = random_affine(rng, regime="interior", a_max=a_max, b_radius=b_radius)
    psi = random_entire_function(rng, max_terms=2, max_degree=2, rate_radius=rate_radius)
    return WeightedCompositionOperator(psi, phi, p, q)
