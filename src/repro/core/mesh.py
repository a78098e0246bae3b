"""The fixed background mesh of the PIC PRK (paper §III-B/C).

The simulation domain is an ``L x L`` square with periodic boundaries in both
directions, discretized into square cells of size ``h x h``.  Mesh *points*
carry fixed charges in an alternating column pattern: points whose discrete
x-index is even carry ``+q``, odd columns carry ``-q`` (Fig. 2).

Because the pattern is fully determined by column parity, the mesh charge
field never needs to be materialized: :meth:`Mesh.point_charge` computes it on
the fly.  This keeps the memory footprint O(1) even for the paper's
11,998 x 11,998 weak-scaling grid, while the byte size a *stored* charge grid
would occupy is still reported via :meth:`Mesh.stored_bytes_for_cells` so the
communication cost model can account for subgrid migration exactly as the
paper does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Mesh:
    """Periodic square mesh with alternating-by-column point charges.

    Parameters
    ----------
    cells:
        Number of cells per side (``c`` in the paper); must be even so that
        the alternating charge pattern is consistent across the periodic seam.
    h:
        Cell edge length.
    q:
        Magnitude of the fixed charge at each mesh point.
    """

    cells: int
    h: float = 1.0
    q: float = 1.0

    def __post_init__(self) -> None:
        if self.cells <= 0 or self.cells % 2:
            raise ValueError(
                f"cells must be positive and even (got {self.cells}); an odd "
                "cell count breaks the alternating charge pattern at the "
                "periodic boundary"
            )
        if self.h <= 0:
            raise ValueError("h must be positive")
        if self.q <= 0:
            raise ValueError("q must be positive")

    @property
    def L(self) -> float:
        """Domain edge length."""
        return self.cells * self.h

    # ------------------------------------------------------------------
    # Charges
    # ------------------------------------------------------------------
    def point_charge(self, i):
        """Charge at mesh points with discrete x-index ``i`` (vectorized).

        Even columns carry ``+q``, odd columns ``-q`` (§III-C).  ``i`` may be
        any integer array; it is wrapped periodically first.
        """
        i = np.asarray(i)
        return np.where((i % self.cells) % 2 == 0, self.q, -self.q)

    def column_sign(self, i):
        """``+1`` for even columns, ``-1`` for odd ones (vectorized)."""
        i = np.asarray(i)
        return np.where((i % self.cells) % 2 == 0, 1.0, -1.0)

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def cell_of(self, coord):
        """Discrete cell index of physical coordinate(s), wrapped periodically.

        Positions exactly on a cell boundary belong to the cell on their
        right/top, matching the convention of the reference PRK.
        """
        idx = np.floor(np.asarray(coord) / self.h).astype(np.int64)
        return np.mod(idx, self.cells)

    def stored_bytes_for_cells(self, n_cells: int, bytes_per_point: int = 8) -> int:
        """Bytes a materialized charge grid would use for ``n_cells`` cells.

        Used by the cost model to charge for subgrid migration during load
        balancing, as the paper's implementations physically move their grid
        storage along with ownership.
        """
        return int(n_cells) * bytes_per_point

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Mesh(cells={self.cells}, h={self.h}, q={self.q})"
