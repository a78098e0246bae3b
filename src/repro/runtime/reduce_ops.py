"""Reduction operators for the simulated MPI collectives.

Operators work uniformly on Python scalars and NumPy arrays, combining
pairwise like MPI's predefined operations.  The two predefined here, SUM and
MAX, are the ones the implementations reduce with; both are associative and
commutative, so reduction order does not change results (up to
floating-point round-off, exactly as in real MPI).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


@dataclass(frozen=True)
class ReduceOp:
    """A named, binary, elementwise reduction operator."""

    name: str
    fn: Callable[[Any, Any], Any]

    def __call__(self, a, b):
        return self.fn(a, b)

    def reduce(self, values: list) -> Any:
        """Fold a non-empty list of rank contributions."""
        if not values:
            raise ValueError("cannot reduce an empty contribution list")
        acc = values[0]
        for v in values[1:]:
            acc = self.fn(acc, v)
        return acc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReduceOp({self.name})"


def _sum(a, b):
    return a + b


def _max(a, b):
    return np.maximum(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else max(a, b)


SUM = ReduceOp("SUM", _sum)
MAX = ReduceOp("MAX", _max)
