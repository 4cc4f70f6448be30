"""Run configuration and the parallelism cap.

FOCKLAB_THREADS caps the thread pool used for embarrassingly parallel grid
and family scans; every computation is a pure function, so the results do
not depend on the worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

from .errors import HypothesisViolated
from .quadrature import QuadratureSpec

T = TypeVar("T")
R = TypeVar("R")

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
    cap = os.environ.get("FOCKLAB_THREADS")
    if cap is not None:
        try:
            return max(1, int(cap))
        except ValueError:
            return 1
    return min(8, os.cpu_count() or 1)


def parallel_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Order-preserving map, threaded when the cap and the batch allow it."""
    workers = min(max_workers(), len(items))
    if workers <= 1 or len(items) < 4:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
