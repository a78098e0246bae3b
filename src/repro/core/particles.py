"""Particle storage and charge assignment for the PIC PRK.

Particles are stored in structure-of-arrays form (:class:`ParticleArray`) so
the force/integration kernel can be fully vectorized.  A particle is its
dynamic state only:

``x, y, vx, vy``
    Position and velocity.
``q``
    Charge (Eq. 3).
``pid``
    Unique id in ``1..n`` (checksum ``n (n+1) / 2`` detects lost/duplicated
    particles after communication).

What the self-verification of §III-D needs besides that — the birth
position, the drift ``2k+1``, the vertical ``m`` and the birth step — never
changes and is a function of ``pid`` and the spec, so it is not carried:
:class:`repro.core.verification.ParticleOrigins` looks it up by id.

For communication, particles are packed into a flat ``(n, 6)`` float64
buffer (:func:`ParticleArray.pack` / :func:`ParticleArray.from_packed`);
ids round-trip exactly for any realistic problem size (below 2**53).  The
cost model still prices the paper's 11-double particle record
(:func:`record_nbytes`), so payload sizes and simulated clocks do not depend
on how many columns are really shipped.

Storage model (capacity-managed)
--------------------------------
Each field attribute is a length-``n`` *view* into a backing array whose
capacity may exceed ``n``.  The in-place mutators — :meth:`compact`,
:meth:`extend`, :meth:`extend_packed` — resize the views without
reallocating the backing store (growing it with amortized doubling only
when capacity is exhausted), so a steady-state simulation loop performs no
per-step full-population allocations.  The copy-based API
(:meth:`select` / :meth:`append` / :meth:`pack`) is retained; the in-place
methods are element-for-element equivalent to it, except the tail-fill
``compact(drop=...)`` the particle exchange uses, which keeps the same
particles in a different (deterministic) order (see
tests/core/test_particles_pooled.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import PARTICLE_RECORD_FIELDS
from repro.core.mesh import Mesh

_FIELDS = ("x", "y", "vx", "vy", "q", "pid")
#: Columns of a packed particle: the width of wire buffers and PUP bodies.
STATE_FIELDS: int = len(_FIELDS)

#: Minimum backing capacity allocated when an empty container first grows.
_MIN_GROW = 16


def record_nbytes(n: int) -> int:
    """Bytes the cost model charges for ``n`` particles.

    The paper's implementations ship an 11-double particle struct
    (:data:`PARTICLE_RECORD_FIELDS`); every modelled payload, migration and
    checkpoint size reads this, never a buffer's real ``.nbytes``.
    """
    return n * PARTICLE_RECORD_FIELDS * 8


@dataclass
class ParticleArray:
    """Structure-of-arrays particle container.

    All arrays share the same length.  Mutating methods operate in place
    where possible; selection methods return new containers holding copies
    (so the originals can be compacted independently).

    The field attributes are views of the logical length ``n`` into backing
    arrays of capacity ``>= n`` (see module docstring).  In-place arithmetic
    on the fields (``p.x += ...``) works as usual; code that needs to grow or
    shrink the container must go through :meth:`extend` /
    :meth:`extend_packed` / :meth:`compact` so the views stay consistent.
    """

    x: np.ndarray
    y: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    q: np.ndarray
    pid: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.x)
        for name in _FIELDS:
            arr = getattr(self, name)
            if len(arr) != n:
                raise ValueError(
                    f"field {name!r} has length {len(arr)}, expected {n}"
                )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def _raw(cls, arrays: list[np.ndarray]) -> "ParticleArray":
        """Fast constructor for internal hot paths.

        Bypasses the dataclass __init__ (and its per-field length check):
        callers guarantee ``arrays`` holds the 6 fields in ``_FIELDS``
        order with equal lengths and correct dtypes.
        """
        self = object.__new__(cls)
        d = self.__dict__
        for name, arr in zip(_FIELDS, arrays):
            d[name] = arr
        return self

    @classmethod
    def empty(cls, n: int = 0) -> "ParticleArray":
        """An all-zeros container with ``n`` slots."""
        return cls._raw(
            [np.zeros(n, dtype=np.float64) for _ in range(5)]
            + [np.zeros(n, dtype=np.int64)]
        )

    @classmethod
    def concatenate(
        cls, parts: list["ParticleArray"], *, copy: bool = True
    ) -> "ParticleArray":
        """Concatenate several containers into a new one.

        With ``copy=False`` a single surviving input is returned *as is*
        (no defensive copy) — the fast path for callers that immediately
        discard their inputs, e.g. the particle exchange.
        """
        parts = [p for p in parts if len(p) > 0]
        if not parts:
            return cls.empty(0)
        if len(parts) == 1:
            return parts[0] if not copy else parts[0].copy()
        return cls._raw(
            [
                np.concatenate([getattr(p, name) for p in parts])
                for name in _FIELDS
            ]
        )

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.x)

    def copy(self) -> "ParticleArray":
        return ParticleArray._raw([getattr(self, name).copy() for name in _FIELDS])

    def select(self, mask_or_index) -> "ParticleArray":
        """Return a new container holding the selected particles (copies)."""
        return ParticleArray._raw(
            [
                np.ascontiguousarray(getattr(self, name)[mask_or_index])
                for name in _FIELDS
            ]
        )

    def append(self, other: "ParticleArray") -> "ParticleArray":
        """Return the concatenation of ``self`` and ``other``."""
        return ParticleArray.concatenate([self, other])

    # ------------------------------------------------------------------
    # Capacity-managed in-place mutation
    # ------------------------------------------------------------------
    def _backing(self) -> list[np.ndarray]:
        """The backing arrays (field views are prefixes of these).

        Lazily initialized: a container built from plain arrays starts with
        capacity == length, and only acquires headroom on first growth.
        """
        store = self.__dict__.get("_store")
        if store is None:
            store = [getattr(self, name) for name in _FIELDS]
            self.__dict__["_store"] = store
        return store

    @property
    def capacity(self) -> int:
        """Current backing capacity (slots available without reallocating)."""
        return len(self._backing()[0])

    def reserve(self, n_needed: int) -> None:
        """Grow the backing store to hold at least ``n_needed`` particles.

        Amortized doubling: each reallocation at least doubles capacity, so a
        sequence of ``extend`` calls costs O(total) copies overall.  Logical
        content and length are unchanged.
        """
        store = self._backing()
        cap = len(store[0])
        if cap >= n_needed:
            return
        new_cap = max(n_needed, 2 * cap, _MIN_GROW)
        n = len(self)
        d = self.__dict__
        alloc = d.get("_allocator")
        for i, name in enumerate(_FIELDS):
            if alloc is None:
                grown = np.empty(new_cap, dtype=store[i].dtype)
            else:
                grown = alloc(new_cap, store[i].dtype)
            grown[:n] = d[name]
            store[i] = grown
            d[name] = grown[:n]

    def rebase_backing(self, alloc) -> None:
        """Move the backing store into allocator-provided memory.

        ``alloc(capacity, dtype)`` must return a writable 1-D array of that
        capacity — e.g. :meth:`repro.runtime.executor.ShmArena.alloc`, which
        hands out ``multiprocessing.shared_memory`` views so worker
        processes can operate on the fields zero-copy.  Current contents
        are copied once; the allocator is remembered, so later
        :meth:`reserve` growth stays inside allocator memory and the
        container never silently migrates back to private pages.
        """
        store = self._backing()
        cap = len(store[0])
        n = len(self)
        d = self.__dict__
        d["_allocator"] = alloc
        for i, name in enumerate(_FIELDS):
            moved = alloc(cap, store[i].dtype)
            moved[:n] = d[name]
            store[i] = moved
            d[name] = moved[:n]

    def adopt(self, columns) -> None:
        """Make ``columns`` — the six fields, in order, of equal length —
        this container's fields *and* backing store.

        Capacity equals length, so the container never writes past the
        given views: :meth:`compact` stays inside them and any growth
        reallocates privately.  That is what lets the fused exchange
        round hand every member a slice of one shared block
        (:func:`repro.runtime.exchange.exchange_wave`).
        """
        d = self.__dict__
        for name, col in zip(_FIELDS, columns):
            d[name] = col
        d["_store"] = list(columns)

    def compact(self, keep=None, *, drop=None) -> None:
        """Shrink in place: keep the rows of boolean mask ``keep``, or remove
        the rows of the strictly increasing index array ``drop``.

        ``compact(keep)`` is a stable partition: survivors retain their
        relative order, matching ``select(keep)``, at O(n) per field.
        ``compact(drop=idx)`` is tail-fill: each hole below the new length
        is filled from the surviving tail rows (in ascending order), at
        O(len(idx)) per field.  Survivors are the same multiset as
        ``select(~mask)``; their order is deterministic but not stable.
        Unsorted, duplicate or out-of-range indices raise ``ValueError``.
        Neither form reallocates the backing store, and dropping nothing
        is a no-op (no copies, no allocations).
        """
        n = len(self)
        store = self._backing()
        if drop is not None:
            drop = np.asarray(drop)
            n_drop = len(drop)
            if n_drop == 0:
                return
            if (drop[0] < 0 or drop[-1] >= n
                    or np.count_nonzero(drop[1:] > drop[:-1]) != n_drop - 1):
                raise ValueError("drop must be strictly increasing indices in [0, n)")
            k = n - n_drop
            n_holes = int(drop.searchsorted(k))
            if n_holes == n_drop:  # no tail row dropped: all of them fill
                fill = np.arange(k, n)
            else:
                alive = np.ones(n_drop, dtype=bool)  # tail rows [k, n) not dropped
                alive[drop[n_holes:] - k] = False
                fill = alive.nonzero()[0] + k
            holes = drop[:n_holes]
            d = self.__dict__
            for name, arr in zip(_FIELDS, store):
                arr[holes] = arr[fill]
                d[name] = arr[:k]
            return
        k = int(np.count_nonzero(keep))
        if k == n:
            return
        d = self.__dict__
        for i, name in enumerate(_FIELDS):
            # RHS fancy indexing materializes the survivors first, so the
            # overlapping in-place assignment is safe.
            store[i][:k] = d[name][keep]
            d[name] = store[i][:k]

    def extend(self, other: "ParticleArray") -> None:
        """Append ``other``'s particles in place (equivalent to ``append``)."""
        m = len(other)
        if m == 0:
            return
        n = len(self)
        self.reserve(n + m)
        store = self._backing()
        d = self.__dict__
        for i, name in enumerate(_FIELDS):
            store[i][n : n + m] = getattr(other, name)
            d[name] = store[i][: n + m]

    def extend_packed(self, buf: np.ndarray) -> None:
        """Append particles from a packed ``(m, 6)`` wire buffer, in place.

        Equivalent to ``append(from_packed(buf))`` — ``pid`` is recovered by
        the same float64 -> int64 cast — but copies each column
        exactly once, straight into the backing store.
        """
        buf = np.asarray(buf)
        m = buf.shape[0]
        if m == 0:
            return
        if buf.ndim != 2 or buf.shape[1] != STATE_FIELDS:
            raise ValueError(
                f"packed particle buffer must be (n, {STATE_FIELDS}), "
                f"got shape {buf.shape}"
            )
        n = len(self)
        end = n + m
        self.reserve(end)
        tail = slice(n, end)
        d = self.__dict__
        for name, arr, col in zip(_FIELDS, self._backing(), buf.T):
            # Assignment casts float64 -> int64 the same way .astype does.
            arr[tail] = col
            d[name] = arr[:end]

    def pack_into(self, mask_or_index, out: np.ndarray) -> np.ndarray:
        """Pack the selected particles into a caller-owned wire buffer.

        ``out`` must be a float64 array of shape ``(cap, 6)`` with
        ``cap >= n_selected``; the filled prefix ``out[:n_selected]`` is
        returned (a view).  Element-for-element equivalent to :meth:`pack`,
        but reuses the destination instead of allocating it.
        """
        d = self.__dict__
        k = None
        for j, name in enumerate(_FIELDS):
            col = d[name][mask_or_index]
            if k is None:
                k = len(col)
                if out.shape[0] < k or out.shape[1] != STATE_FIELDS:
                    raise ValueError(
                        f"wire buffer {out.shape} too small for {k} particles"
                    )
            out[:k, j] = col
        return out[: k or 0]

    # ------------------------------------------------------------------
    # Communication packing
    # ------------------------------------------------------------------
    def pack(self, mask_or_index=None) -> np.ndarray:
        """Pack (a subset of) the particles into a flat float64 buffer.

        The result has shape ``(n_selected, 6)`` and can be transmitted as a
        contiguous byte buffer, mirroring how the MPI implementations of the
        paper ship particle structs (priced at their 11 doubles by
        :func:`record_nbytes`).
        """
        if mask_or_index is None:
            cols = [getattr(self, name) for name in _FIELDS]
            n = len(self)
        else:
            cols = [getattr(self, name)[mask_or_index] for name in _FIELDS]
            n = len(cols[0])
        out = np.empty((n, STATE_FIELDS), dtype=np.float64)
        for j, col in enumerate(cols):
            out[:, j] = col
        return out

    @classmethod
    def from_packed(cls, buf: np.ndarray) -> "ParticleArray":
        """Inverse of :meth:`pack`."""
        buf = np.asarray(buf, dtype=np.float64)
        if buf.size == 0:
            return cls.empty(0)
        if buf.ndim != 2 or buf.shape[1] != STATE_FIELDS:
            raise ValueError(
                f"packed particle buffer must be (n, {STATE_FIELDS}), "
                f"got shape {buf.shape}"
            )
        arrays = []
        for j, name in enumerate(_FIELDS):
            col = np.ascontiguousarray(buf[:, j])
            if name == "pid":
                col = col.astype(np.int64)
            arrays.append(col)
        return cls._raw(arrays)

    @property
    def nbytes(self) -> int:
        """Modelled payload bytes (:func:`record_nbytes`), not the real
        footprint of the stored columns."""
        return record_nbytes(len(self))

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def cell_columns(self, mesh: Mesh) -> np.ndarray:
        """Cell column index of each particle."""
        return mesh.cell_of(self.x)

    def cell_rows(self, mesh: Mesh) -> np.ndarray:
        """Cell row index of each particle."""
        return mesh.cell_of(self.y)

    def id_checksum(self) -> int:
        """Sum of particle ids (int); compared against the analytic total."""
        return int(np.sum(self.pid, dtype=np.int64))


# ----------------------------------------------------------------------
# Charge assignment (Eq. 3)
# ----------------------------------------------------------------------
def charge_magnitude(mesh: Mesh, dt: float, rel_x: float = 0.5) -> float:
    """Base particle charge magnitude ``q_pi`` of Eq. 3.

    For a particle at relative abscissa ``rel_x * h`` on the horizontal axis
    of symmetry of a cell, Eq. 3 chooses ``q_pi`` so the particle crosses
    exactly one cell per step when starting from rest:

    ``q_pi = h / (dt^2 * q * (cos(theta)/d1^2 + cos(phi)/d2^2))``

    with ``d1 = sqrt(h^2/4 + x^2)``, ``d2 = sqrt(h^2/4 + (h-x)^2)``,
    ``cos(theta) = x/d1`` and ``cos(phi) = (h-x)/d2`` where ``x = rel_x * h``.
    """
    h = mesh.h
    if not 0.0 < rel_x < 1.0:
        raise ValueError("rel_x must lie strictly inside the cell")
    x = rel_x * h
    d1 = np.sqrt(h * h / 4.0 + x * x)
    d2 = np.sqrt(h * h / 4.0 + (h - x) * (h - x))
    cos_theta = x / d1
    cos_phi = (h - x) / d2
    denom = dt * dt * mesh.q * (cos_theta / (d1 * d1) + cos_phi / (d2 * d2))
    return float(h / denom)


def assign_charges(
    mesh: Mesh,
    dt: float,
    cell_col: np.ndarray,
    k,
    rel_x: float = 0.5,
) -> np.ndarray:
    """Vectorized particle charge assignment (§III-E1).

    Particles born in an even cell column receive ``+(2k+1) q_pi``, those in
    an odd column ``-(2k+1) q_pi``.  With the alternating mesh pattern this
    makes *every* particle drift in the positive x direction at ``2k+1``
    cells per step, which is what the closed-form verification of Eq. 5
    assumes.  ``k`` may be a scalar or a per-particle integer array.
    """
    q_pi = charge_magnitude(mesh, dt, rel_x)
    sign = mesh.column_sign(cell_col)
    k = np.asarray(k)
    return sign * (2 * k + 1) * q_pi
