"""Tests for particle storage, packing, and Eq. 3 charge assignment."""

import numpy as np
import pytest

from repro.core.mesh import Mesh
from repro.core.particles import (
    STATE_FIELDS,
    ParticleArray,
    assign_charges,
    charge_magnitude,
    record_nbytes,
)


def sample_particles(n=5):
    p = ParticleArray.empty(n)
    p.x[:] = np.arange(n) + 0.5
    p.y[:] = 0.5
    p.vx[:] = 0.0
    p.vy[:] = 1.0
    p.q[:] = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    p.pid[:] = np.arange(1, n + 1)
    return p


class TestParticleArray:
    def test_empty(self):
        p = ParticleArray.empty(0)
        assert len(p) == 0
        assert p.nbytes == 0

    def test_length_mismatch_rejected(self):
        p = sample_particles(3)
        with pytest.raises(ValueError, match="length"):
            ParticleArray(
                x=p.x, y=p.y, vx=p.vx, vy=p.vy, q=p.q,
                pid=p.pid[:2],
            )

    def test_select_copies(self):
        p = sample_particles(5)
        sel = p.select(np.array([0, 2]))
        sel.x[0] = 99.0
        assert p.x[0] == 0.5  # original untouched

    def test_select_by_mask(self):
        p = sample_particles(5)
        sel = p.select(p.q > 0)
        assert len(sel) == 3

    def test_append(self):
        a, b = sample_particles(3), sample_particles(2)
        c = a.append(b)
        assert len(c) == 5
        assert c.pid.tolist() == [1, 2, 3, 1, 2]

    def test_concatenate_empty_list(self):
        assert len(ParticleArray.concatenate([])) == 0

    def test_concatenate_skips_empty(self):
        c = ParticleArray.concatenate([ParticleArray.empty(0), sample_particles(2)])
        assert len(c) == 2

    def test_copy_is_deep(self):
        p = sample_particles(2)
        c = p.copy()
        c.y[0] = -1.0
        assert p.y[0] == 0.5

    def test_id_checksum(self):
        assert sample_particles(5).id_checksum() == 15


class TestPacking:
    def test_pack_roundtrip(self):
        p = sample_particles(7)
        buf = p.pack()
        assert buf.shape == (7, STATE_FIELDS) == (7, 6)
        q = ParticleArray.from_packed(buf)
        for name in ("x", "y", "vx", "vy", "q"):
            np.testing.assert_array_equal(getattr(p, name), getattr(q, name))
        np.testing.assert_array_equal(p.pid, q.pid)
        assert q.pid.dtype == np.int64

    def test_pack_subset(self):
        p = sample_particles(5)
        buf = p.pack(np.array([1, 3]))
        q = ParticleArray.from_packed(buf)
        assert q.pid.tolist() == [2, 4]

    def test_from_packed_empty(self):
        q = ParticleArray.from_packed(np.empty((0, 6)))
        assert len(q) == 0

    def test_from_packed_bad_shape(self):
        for width in (5, 11):  # 11: a parent commit's wire record
            with pytest.raises(ValueError, match=r"\(n, 6\)"):
                ParticleArray.from_packed(np.zeros((3, width)))

    def test_nbytes(self):
        # Six columns are stored and shipped; the cost model still charges
        # the paper's 11-double particle struct.
        assert sample_particles(10).nbytes == record_nbytes(10) == 10 * 11 * 8

    def test_large_pid_roundtrip(self):
        p = sample_particles(1)
        p.pid[0] = 2**52  # below the float64 exact-integer limit
        q = ParticleArray.from_packed(p.pack())
        assert q.pid[0] == 2**52


class TestChargeAssignment:
    def test_charge_magnitude_center(self):
        """At rel_x = 1/2 with h = dt = q = 1 Eq. 3 reduces to 1/(2*sqrt(2))... * scaling."""
        m = Mesh(cells=8)
        qpi = charge_magnitude(m, dt=1.0, rel_x=0.5)
        # d1 = d2 = sqrt(1/2); cos = (1/2)/d1; denom = 2 * cos/d1^2 = 2 * (1/2) / d1^3
        d1 = np.sqrt(0.5)
        expected = 1.0 / (2 * 0.5 / d1**3)
        assert qpi == pytest.approx(expected, rel=1e-15)

    def test_charge_magnitude_rejects_boundary(self):
        m = Mesh(cells=8)
        with pytest.raises(ValueError):
            charge_magnitude(m, dt=1.0, rel_x=0.0)
        with pytest.raises(ValueError):
            charge_magnitude(m, dt=1.0, rel_x=1.0)

    def test_assign_charges_sign_by_column_parity(self):
        m = Mesh(cells=8)
        cols = np.array([0, 1, 2, 3])
        q = assign_charges(m, dt=1.0, cell_col=cols, k=0)
        assert np.all(q[::2] > 0)
        assert np.all(q[1::2] < 0)

    def test_assign_charges_odd_multiples(self):
        m = Mesh(cells=8)
        cols = np.zeros(1, dtype=np.int64)
        q0 = assign_charges(m, dt=1.0, cell_col=cols, k=0)[0]
        q2 = assign_charges(m, dt=1.0, cell_col=cols, k=2)[0]
        assert q2 == pytest.approx(5 * q0, rel=1e-15)

    def test_charge_scales_with_mesh_charge(self):
        """Doubling the mesh charge halves the particle charge (Eq. 3)."""
        cols = np.zeros(1, dtype=np.int64)
        q1 = assign_charges(Mesh(cells=8, q=1.0), dt=1.0, cell_col=cols, k=0)[0]
        q2 = assign_charges(Mesh(cells=8, q=2.0), dt=1.0, cell_col=cols, k=0)[0]
        assert q1 == pytest.approx(2 * q2, rel=1e-15)

    def test_charge_scales_with_dt_squared(self):
        cols = np.zeros(1, dtype=np.int64)
        m = Mesh(cells=8)
        qa = assign_charges(m, dt=1.0, cell_col=cols, k=0)[0]
        qb = assign_charges(m, dt=2.0, cell_col=cols, k=0)[0]
        assert qa == pytest.approx(4 * qb, rel=1e-15)
