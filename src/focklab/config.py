"""Run configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import HypothesisViolated
from .quadrature import QuadratureSpec

# the normalized basis z^n / sqrt(n!) leaves the float range past n = 300,
# so no larger truncation order yields a finite matrix
MAX_MATRIX_ORDER = 256


@dataclass(frozen=True)
class RunConfig:
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)
    matrix_order: int = 64
    grid_radius: float = 6.0
    seed: int = 0

    def __post_init__(self):
        if not 8 <= self.matrix_order <= MAX_MATRIX_ORDER:
            raise HypothesisViolated(f"matrix_order must lie in [8, {MAX_MATRIX_ORDER}]")
        if self.grid_radius <= 0:
            raise HypothesisViolated("grid_radius must be positive")


def max_workers() -> int:
    # every computation runs on the calling thread; the benchmark harness
    # still reports this as its thread count
    return 1
