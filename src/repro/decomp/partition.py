"""Cartesian-product block partitions with movable boundaries.

The domain's ``cells x cells`` mesh is split into ``Px x Py`` rectangular
blocks by two monotone split vectors: ``xsplits`` (length ``Px + 1``) and
``ysplits`` (length ``Py + 1``).  Processor ``(i, j)`` owns cell columns
``[xsplits[i], xsplits[i+1])`` and rows ``[ysplits[j], ysplits[j+1])``.

Keeping the decomposition a Cartesian *product* — all processors in one
column share the same x-extent — is the paper's deliberate design choice for
the diffusion load balancer (§IV-B): subdomains stay rectangular, neighbor
relations stay regular, and a boundary move is a single split adjustment.

The partition is immutable; load balancers produce new instances via
:meth:`BlockPartition.with_xsplits` / :meth:`with_ysplits`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def even_splits(cells: int, parts: int) -> np.ndarray:
    """Split ``cells`` into ``parts`` contiguous chunks as evenly as possible."""
    if parts <= 0:
        raise ValueError("parts must be positive")
    if parts > cells:
        raise ValueError(
            f"cannot split {cells} cell columns/rows into {parts} non-empty blocks"
        )
    return np.linspace(0, cells, parts + 1).round().astype(np.int64)


def _validate_splits(splits: np.ndarray, cells: int, what: str) -> np.ndarray:
    splits = np.asarray(splits, dtype=np.int64)
    if splits.ndim != 1 or len(splits) < 2:
        raise ValueError(f"{what} must be a 1D vector of at least 2 entries")
    if splits[0] != 0 or splits[-1] != cells:
        raise ValueError(f"{what} must start at 0 and end at {cells}")
    if np.any(np.diff(splits) < 1):
        raise ValueError(f"{what} must be strictly increasing (no empty blocks)")
    return splits


@dataclass(frozen=True)
class BlockPartition:
    """An immutable ``Px x Py`` Cartesian-product partition of the mesh."""

    cells: int
    xsplits: np.ndarray
    ysplits: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "xsplits", _validate_splits(self.xsplits, self.cells, "xsplits")
        )
        object.__setattr__(
            self, "ysplits", _validate_splits(self.ysplits, self.cells, "ysplits")
        )

    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, cells: int, px: int, py: int) -> "BlockPartition":
        """The static, evenly-split partition used by the mpi-2d baseline."""
        return cls(cells, even_splits(cells, px), even_splits(cells, py))

    @property
    def px(self) -> int:
        return len(self.xsplits) - 1

    @property
    def py(self) -> int:
        return len(self.ysplits) - 1

    # ------------------------------------------------------------------
    # Ownership
    # ------------------------------------------------------------------
    def x_owner(self, cols):
        """Processor-column index owning each cell column (vectorized)."""
        return np.searchsorted(self.xsplits, np.asarray(cols), side="right") - 1

    def y_owner(self, rows):
        """Processor-row index owning each cell row (vectorized)."""
        return np.searchsorted(self.ysplits, np.asarray(rows), side="right") - 1

    def owner_rank(self, cols, rows):
        """Cartesian rank (row-major, matching CartComm) owning each cell."""
        return self.x_owner(cols) * self.py + self.y_owner(rows)

    # ------------------------------------------------------------------
    # Block geometry
    # ------------------------------------------------------------------
    def x_range(self, i: int) -> tuple[int, int]:
        return int(self.xsplits[i]), int(self.xsplits[i + 1])

    def y_range(self, j: int) -> tuple[int, int]:
        return int(self.ysplits[j]), int(self.ysplits[j + 1])

    def block_shape(self, i: int, j: int) -> tuple[int, int]:
        x0, x1 = self.x_range(i)
        y0, y1 = self.y_range(j)
        return x1 - x0, y1 - y0

    def block_cells(self, i: int, j: int) -> int:
        w, h = self.block_shape(i, j)
        return w * h

    def widths(self) -> np.ndarray:
        """Cell-column counts per processor column."""
        return np.diff(self.xsplits)

    def heights(self) -> np.ndarray:
        """Cell-row counts per processor row."""
        return np.diff(self.ysplits)

    # ------------------------------------------------------------------
    # Boundary moves (load balancing)
    # ------------------------------------------------------------------
    def with_xsplits(self, xsplits) -> "BlockPartition":
        return BlockPartition(self.cells, np.asarray(xsplits), self.ysplits)

    def with_ysplits(self, ysplits) -> "BlockPartition":
        return BlockPartition(self.cells, self.xsplits, np.asarray(ysplits))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BlockPartition)
            and self.cells == other.cells
            and np.array_equal(self.xsplits, other.xsplits)
            and np.array_equal(self.ysplits, other.ysplits)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BlockPartition({self.px}x{self.py} over {self.cells}^2, "
            f"x={self.xsplits.tolist()}, y={self.ysplits.tolist()})"
        )
