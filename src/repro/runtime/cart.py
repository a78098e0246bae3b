"""2D Cartesian communicator for the simulated MPI runtime.

The paper's implementations arrange processors in a ``Px x Py`` grid with
periodic boundaries (§IV-A).  :class:`CartComm` adds coordinate bookkeeping
and neighbor lookup on top of :class:`repro.runtime.comm.Comm`.

Coordinates are row-major: local rank ``r`` has coordinates
``(r // Py, r % Py)`` — i.e. ``x`` (the column of processors) varies slowest.
"""

from __future__ import annotations

from repro.runtime.comm import Comm


class CartComm(Comm):
    """A communicator with a periodic 2D Cartesian topology."""

    def __init__(self, scheduler, comm_id, world_ranks, rank, dims, periodic=True):
        super().__init__(scheduler, comm_id, world_ranks, rank)
        self.dims = tuple(dims)
        self.periodic = periodic
        if self.dims[0] * self.dims[1] != self.size:
            raise ValueError(
                f"dims {self.dims} do not match communicator size {self.size}"
            )
        #: Processor-grid extents in x (columns) and y (rows of processors).
        self.px, self.py = self.dims
        #: This rank's Cartesian coordinates ``(cx, cy)``.
        self.coords = self.coords_of(rank)
        self._shift_cache: dict[tuple[int, int], tuple[int | None, int | None]] = {}

    # ------------------------------------------------------------------
    def coords_of(self, rank: int) -> tuple[int, int]:
        self._check_peer(rank)
        return rank // self.py, rank % self.py

    def rank_at(self, cx: int, cy: int) -> int | None:
        """Local rank at coordinates, wrapping periodically.

        Returns None for out-of-range coordinates on a non-periodic grid.
        """
        if self.periodic:
            cx %= self.px
            cy %= self.py
        elif not (0 <= cx < self.px and 0 <= cy < self.py):
            return None
        return cx * self.py + cy

    def shift(self, dim: int, displacement: int = 1) -> tuple[int | None, int | None]:
        """(source, destination) ranks for a shift along ``dim`` (0=x, 1=y).

        Mirrors MPI_Cart_shift: ``dst`` is the neighbor ``displacement``
        steps in the positive direction, ``src`` the mirror neighbor.
        Results are cached — the topology never changes.
        """
        key = (dim, displacement)
        cached = self._shift_cache.get(key)
        if cached is not None:
            return cached
        cx, cy = self.coords
        if dim == 0:
            dst = self.rank_at(cx + displacement, cy)
            src = self.rank_at(cx - displacement, cy)
        elif dim == 1:
            dst = self.rank_at(cx, cy + displacement)
            src = self.rank_at(cx, cy - displacement)
        else:
            raise ValueError("dim must be 0 (x) or 1 (y)")
        self._shift_cache[key] = (src, dst)
        return src, dst

    # ------------------------------------------------------------------
    # Sub-communicators (MPI_Cart_sub analogue)
    # ------------------------------------------------------------------
    def sub_x(self):
        """Collective: communicator of the ranks sharing this rank's cy.

        The result groups ranks along the x direction (one per processor
        column), ordered by cx — used for the per-row reductions of the 2D
        diffusion scheme (§IV-B).  Must be yielded.
        """
        cx, cy = self.coords
        return self.split(color=cy, key=cx)

    def sub_y(self):
        """Collective: communicator of the ranks sharing this rank's cx."""
        cx, cy = self.coords
        return self.split(color=cx, key=cy)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CartComm(id={self.comm_id}, rank={self.rank}, dims={self.dims}, "
            f"coords={self.coords})"
        )
