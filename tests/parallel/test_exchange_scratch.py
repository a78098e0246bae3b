"""Coverage for :class:`repro.parallel.base.ExchangeScratch`.

Wire buffers: pins the growth policy (``cap = max(n, 2 * prev, 16)``), the
per ``(axis, direction)`` keying, and reuse without reallocation when the
existing capacity suffices — the invariants the zero-churn exchange in
``ParallelPICBase._exchange`` relies on.

Range test: ``outside`` flags leavers straight from positions and computes
(and re-tests) cells for the flagged rows only; a generated property holds
it to the ``mesh.cell_of`` + ``searchsorted`` owner oracle on the positions
where the shortcut could differ (cell boundaries, signed zero, both ends of
the domain, the ``x == L`` rounding edge, ``h != 1``).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.mesh import Mesh
from repro.core.particles import STATE_FIELDS, ParticleArray
from repro.core.spec import Distribution, PICSpec
from repro.decomp.partition import BlockPartition
from repro.parallel import Mpi2dPIC
from repro.parallel.base import ExchangeScratch, _count_misplaced
from repro.runtime.executor import EMPTY_WIRE


class TestWire:
    def test_shape_and_dtype(self):
        buf = ExchangeScratch().wire(0, +1, 5)
        assert buf.dtype == np.float64
        assert buf.ndim == 2 and buf.shape[1] == STATE_FIELDS == 6
        assert EMPTY_WIRE.shape == (0, 6)

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

    def test_minimum_capacity_is_16(self):
        s = ExchangeScratch()
        assert s.wire(0, +1, 0).shape[0] == 16
        assert s.wire(1, -1, 3).shape[0] == 16

    def test_reuse_without_realloc_when_capacity_suffices(self):
        s = ExchangeScratch()
        first = s.wire(0, +1, 10)
        again = s.wire(0, +1, 7)
        assert again is first  # same object: zero-churn steady state

    def test_growth_doubles_previous_capacity(self):
        s = ExchangeScratch()
        assert s.wire(0, +1, 10).shape[0] == 16
        assert s.wire(0, +1, 17).shape[0] == 32  # 2*16 > 17
        assert s.wire(0, +1, 100).shape[0] == 100  # n > 2*32

    def test_axis_direction_pairs_are_independent(self):
        s = ExchangeScratch()
        bufs = {
            key: s.wire(*key, 20)
            for key in ((0, +1), (0, -1), (1, +1), (1, -1))
        }
        assert len({id(b) for b in bufs.values()}) == 4
        # Growing one pair leaves the others untouched.
        grown = s.wire(0, +1, 200)
        assert grown is not bufs[(0, +1)]
        for key in ((0, -1), (1, +1), (1, -1)):
            assert s.wire(*key, 20) is bufs[key]

    def test_contents_survive_reuse_up_to_n(self):
        """A smaller follow-up request must not clear previously packed rows."""
        s = ExchangeScratch()
        buf = s.wire(1, +1, 16)
        buf[:4] = 7.5
        assert np.all(s.wire(1, +1, 4)[:4] == 7.5)


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
    and their cells are ``mesh.cell_of`` bit for bit."""
    mesh = Mesh(20, h)
    part = BlockPartition.uniform(mesh.cells, *dims)
    rng = np.random.default_rng(seed)
    x, y = _edge_positions(mesh, n, rng), _edge_positions(mesh, n, rng)
    col, row = mesh.cell_of(x), mesh.cell_of(y)
    scratch = ExchangeScratch()
    for i in range(part.px):
        lo, hi = part.x_range(i)
        rows, cells = scratch.outside(x, mesh, lo, hi)
        assert cells.dtype == np.int64
        np.testing.assert_array_equal(cells, col[rows])
        np.testing.assert_array_equal(
            rows, np.flatnonzero(part.x_owner(col) != i)
        )
        for j in range(part.py):
            owner = part.owner_rank(col, row)
            assert _count_misplaced(
                scratch, mesh, x, y, (lo, hi), part.y_range(j)
            ) == np.count_nonzero(owner != i * part.py + j)
