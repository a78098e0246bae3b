"""Coverage for the particle exchange's range test and wire buffers.

Wire buffers: six columns shipped, eleven doubles charged per particle.

Range test: :func:`repro.runtime.exchange._outside` — the one range test
of the per-rank hop, the wave and the settlement count — flags leavers
straight from positions and computes (and re-tests) cells for the flagged
rows only; a generated property holds it to the ``mesh.cell_of`` +
``searchsorted`` owner oracle on the positions where the shortcut could
differ (cell boundaries, signed zero, both ends of the domain, the
``x == L`` rounding edge, ``h != 1``), with one rank's scalar bounds and
with a wave's bounds per row.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.mesh import Mesh
from repro.core.particles import STATE_FIELDS, ParticleArray
from repro.core.spec import Distribution, PICSpec
from repro.decomp.partition import BlockPartition
from repro.parallel import Mpi2dPIC
from repro.runtime.exchange import EMPTY_WIRE, _count_misplaced, _outside


class TestWire:
    def test_shape_and_dtype(self):
        assert EMPTY_WIRE.dtype == np.float64
        assert EMPTY_WIRE.shape == (0, STATE_FIELDS) == (0, 6)

    def test_run_ships_six_columns_and_charges_eleven(self, monkeypatch):
        """Every arrival's wire buffer is 6 columns wide, while the run's
        ``bytes_sent`` stays the paper's 88 B (11 doubles) per particle
        shipped: payload sizes, and so clocks, do not see the narrower
        record."""
        widths, shipped = set(), []
        real = ParticleArray.extend_packed

        def counting(self, buf):
            widths.add(buf.shape[1])
            shipped.append(len(buf))
            real(self, buf)

        monkeypatch.setattr(ParticleArray, "extend_packed", counting)
        spec = PICSpec(cells=24, n_particles=600, steps=6, k=1, m_vertical=1,
                       distribution=Distribution.UNIFORM)
        res = Mpi2dPIC(spec, 6).run()
        assert res.verification.ok
        assert widths == {6} and sum(shipped) > 0
        assert res.bytes_sent == 88 * sum(shipped)


def _edge_positions(mesh: Mesh, n: int, rng) -> np.ndarray:
    """Uniform draws salted with every position class the range test could
    get wrong: exact cell boundaries, ``0.0``, ``-0.0``, the last in-domain
    double and ``L`` itself (what ``np.mod(-1e-20, L)`` returns)."""
    coord = rng.uniform(0.0, mesh.L, n)
    kind = rng.integers(0, 8, n)
    on_boundary = kind == 0
    coord[on_boundary] = rng.integers(0, mesh.cells, n)[on_boundary] * mesh.h
    coord[kind == 1] = 0.0
    coord[kind == 2] = -0.0
    coord[kind == 3] = np.nextafter(mesh.L, 0.0)
    coord[kind == 4] = np.mod(-1e-20, mesh.L)
    return coord


@given(
    h=st.sampled_from([1.0, 0.5, 0.3]),
    dims=st.sampled_from([(1, 1), (2, 1), (3, 2), (4, 5)]),
    n=st.integers(0, 200),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_outside_matches_cell_of_owner_oracle(h, dims, n, seed):
    """On every block — including those with ``lo == 0`` and ``hi == cells``
    — the returned rows are exactly the rows the owner oracle sends away,
    and their cells are ``mesh.cell_of`` bit for bit: with one rank's
    scalar bounds and with bounds drawn per row."""
    mesh = Mesh(20, h)
    part = BlockPartition.uniform(mesh.cells, *dims)
    rng = np.random.default_rng(seed)
    x, y = _edge_positions(mesh, n, rng), _edge_positions(mesh, n, rng)
    col, row = mesh.cell_of(x), mesh.cell_of(y)
    for i in range(part.px):
        lo, hi = part.x_range(i)
        rows, cells = _outside(x, lo, hi, mesh)
        assert cells.dtype == np.int64
        np.testing.assert_array_equal(cells, col[rows])
        np.testing.assert_array_equal(
            rows, np.flatnonzero(part.x_owner(col) != i)
        )
        for j in range(part.py):
            owner = part.owner_rank(col, row)
            assert _count_misplaced(
                mesh, x, y, (lo, hi), part.y_range(j)
            ) == np.count_nonzero(owner != i * part.py + j)
    # A wave's form: every row tested against its own member's block, the
    # bounds as float64 (the hop) and as int64 (the arrivals' count).
    block = rng.integers(0, part.px, n)
    for dtype in (np.float64, np.int64):
        lo = part.xsplits[block].astype(dtype)
        hi = part.xsplits[block + 1].astype(dtype)
        rows, cells = _outside(x, lo, hi, mesh)
        assert cells.dtype == np.int64
        np.testing.assert_array_equal(cells, col[rows])
        np.testing.assert_array_equal(
            rows, np.flatnonzero(part.x_owner(col) != block)
        )
