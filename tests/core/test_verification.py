"""Tests for the §III-D self-verification (Eqs. 5-6 + id checksum)."""

import numpy as np
import pytest

from repro.core import verification as vf
from repro.core.initialization import place_particles
from repro.core.kernel import advance
from repro.core.mesh import Mesh
from repro.core.spec import Distribution, InjectionEvent, PICSpec, Region, RemovalEvent


def run_particles(mesh, p, steps, dt=1.0):
    for _ in range(steps):
        advance(mesh, p, dt)
    return p


class TestExpectedPositions:
    def test_matches_kernel_basic(self):
        mesh = Mesh(8)
        p = place_particles(mesh, np.array([0]), np.array([0]),
                            dt=1.0, k=0, m_vertical=1, start_id=1)
        run_particles(mesh, p, 5)
        xs, ys = vf.expected_final_positions(mesh, p, 5)
        assert xs[0] == pytest.approx(p.x[0], abs=1e-10)
        assert ys[0] == p.y[0]

    def test_wraps_periodically(self):
        mesh = Mesh(4)
        p = place_particles(mesh, np.array([0]), np.array([0]),
                            dt=1.0, k=0, m_vertical=0, start_id=1)
        xs, _ = vf.expected_final_positions(mesh, p, 9)
        assert xs[0] == pytest.approx((0.5 + 9) % 4.0)

    def test_selective_wrap_equals_full_mod_bitwise(self):
        """Only rows outside [0, L) go through fmod; the closed form must
        still be ``np.mod`` of every row, bit for bit — both directions of
        travel, several laps, the exact ``L`` edge and ``-0.0``."""
        mesh = Mesh(8, h=0.5)
        cols = np.arange(8)
        p = place_particles(mesh, cols, cols[::-1].copy(),
                            dt=1.0, k=1, m_vertical=2, start_id=1)
        p.kdisp[::2] *= -1
        p.x0[0], p.birth[0] = -0.0, 8  # -0.0 + (-3 * 0.0) stays -0.0 unwrapped
        p.x0[1], p.kdisp[1] = 0.0, 1  # lands exactly on L after 8 steps
        xs, ys = vf.expected_final_positions(mesh, p, 8)
        s = 8.0 - p.birth
        assert xs.tobytes() == np.mod(p.x0 + p.kdisp * s * mesh.h, mesh.L).tobytes()
        assert ys.tobytes() == np.mod(p.y0 + p.mdisp * s * mesh.h, mesh.L).tobytes()

    def test_birth_reduces_participation(self):
        mesh = Mesh(8)
        p = place_particles(mesh, np.array([0]), np.array([0]),
                            dt=1.0, k=0, m_vertical=0, start_id=1, birth=3)
        xs, _ = vf.expected_final_positions(mesh, p, 5)
        assert xs[0] == pytest.approx(0.5 + 2)  # only 2 steps participated

    def test_birth_beyond_total_rejected(self):
        mesh = Mesh(8)
        p = place_particles(mesh, np.array([0]), np.array([0]),
                            dt=1.0, k=0, m_vertical=0, start_id=1, birth=9)
        with pytest.raises(ValueError):
            vf.expected_final_positions(mesh, p, 5)


class TestPositionErrors:
    def test_periodic_error_metric(self):
        """A particle at ~L and expected at ~0 has tiny periodic error."""
        mesh = Mesh(8)
        p = place_particles(mesh, np.array([0]), np.array([0]),
                            dt=1.0, k=0, m_vertical=0, start_id=1)
        p.x[0] = 8.0 - 1e-9
        p.x0[0] = 8.0 - 1e-9  # expected = x0 for 0 steps
        p.x0[0] = -1e-9 % 8.0
        err = vf.position_errors(mesh, p, 0)
        assert err[0] < 1e-8

    def test_detects_single_cell_error(self):
        mesh = Mesh(8)
        p = place_particles(mesh, np.array([0, 1]), np.array([0, 0]),
                            dt=1.0, k=0, m_vertical=0, start_id=1)
        run_particles(mesh, p, 3)
        p.x[1] += 1.0  # corrupt one particle by one cell
        err = vf.position_errors(mesh, p, 3)
        assert err[0] < 1e-10
        assert err[1] == pytest.approx(1.0)


class TestChecksums:
    def test_initial_checksum(self):
        assert vf.initial_checksum(100) == 5050
        assert vf.initial_checksum(0) == 0

    def test_expected_checksum_no_events(self):
        spec = PICSpec(cells=8, n_particles=10, steps=2)
        assert vf.expected_checksum(spec) == 55

    def test_expected_checksum_with_injection(self):
        spec = PICSpec(
            cells=8, n_particles=10, steps=5,
            events=(InjectionEvent(step=1, region=Region(0, 2, 0, 2), count=5),),
        )
        # ids 11..15 added
        assert vf.expected_checksum(spec) == 55 + sum(range(11, 16))

    def test_expected_checksum_with_removals(self):
        spec = PICSpec(
            cells=8, n_particles=10, steps=5,
            events=(RemovalEvent(step=1, region=Region(0, 2, 0, 2)),),
        )
        assert vf.expected_checksum(spec, removed_ids_sum=7) == 48

    def test_two_injections_sequential_ids(self):
        spec = PICSpec(
            cells=8, n_particles=10, steps=5,
            events=(
                InjectionEvent(step=1, region=Region(0, 2, 0, 2), count=3),
                InjectionEvent(step=2, region=Region(0, 2, 0, 2), count=2),
            ),
        )
        assert vf.expected_checksum(spec) == 55 + (11 + 12 + 13) + (14 + 15)


class TestVerify:
    def test_pass(self):
        mesh = Mesh(8)
        p = place_particles(mesh, np.arange(4), np.zeros(4, dtype=int),
                            dt=1.0, k=0, m_vertical=0, start_id=1)
        run_particles(mesh, p, 4)
        res = vf.verify(mesh, p, 4, expected_ids=10)
        assert res.ok
        assert res.positions_ok and res.checksum_ok
        assert "PASS" in str(res)

    def test_position_failure_detected(self):
        mesh = Mesh(8)
        p = place_particles(mesh, np.arange(4), np.zeros(4, dtype=int),
                            dt=1.0, k=0, m_vertical=0, start_id=1)
        run_particles(mesh, p, 4)
        p.x[2] += 0.5
        res = vf.verify(mesh, p, 4, expected_ids=10)
        assert not res.positions_ok
        assert res.checksum_ok
        assert not res.ok

    def test_checksum_failure_detected(self):
        """A dropped particle fails the checksum even if positions pass."""
        mesh = Mesh(8)
        p = place_particles(mesh, np.arange(4), np.zeros(4, dtype=int),
                            dt=1.0, k=0, m_vertical=0, start_id=1)
        run_particles(mesh, p, 4)
        p = p.select(np.array([0, 1, 2]))  # lose particle 4
        res = vf.verify(mesh, p, 4, expected_ids=10)
        assert res.positions_ok
        assert not res.checksum_ok

    def test_duplicated_particle_detected(self):
        mesh = Mesh(8)
        p = place_particles(mesh, np.arange(4), np.zeros(4, dtype=int),
                            dt=1.0, k=0, m_vertical=0, start_id=1)
        run_particles(mesh, p, 4)
        p = p.append(p.select(np.array([0])))
        res = vf.verify(mesh, p, 4, expected_ids=10)
        assert not res.checksum_ok

    def test_empty_population(self):
        mesh = Mesh(8)
        from repro.core.particles import ParticleArray

        res = vf.verify(mesh, ParticleArray.empty(0), 4, expected_ids=0)
        assert res.ok

    def test_verify_distributed_assembles_reductions(self):
        mesh = Mesh(8)
        from repro.core.particles import ParticleArray

        res = vf.verify_distributed(
            mesh, ParticleArray.empty(0), 4, expected_ids=10,
            global_max_error=1e-9, global_count=4, global_id_sum=10,
        )
        assert res.ok
        res_bad = vf.verify_distributed(
            mesh, ParticleArray.empty(0), 4, expected_ids=10,
            global_max_error=0.5, global_count=4, global_id_sum=10,
        )
        assert not res_bad.ok
