"""Tests for the §III-D self-verification (Eqs. 5-6 + id checksum)."""

import numpy as np
import pytest

from repro.core import events as ev
from repro.core import verification as vf
from repro.core.initialization import initialize, per_particle_speeds, place_particles
from repro.core.kernel import advance
from repro.core.mesh import Mesh
from repro.core.spec import Distribution, InjectionEvent, PICSpec, Region, RemovalEvent


def run_particles(mesh, p, steps, dt=1.0):
    for _ in range(steps):
        advance(mesh, p, dt)
    return p


def origins_of(mesh, p, **spec_kw):
    """The origin table of a hand-placed, unpushed population (ids 1..n)."""
    spec = PICSpec(cells=mesh.cells, n_particles=len(p), steps=100, h=mesh.h, **spec_kw)
    return vf.ParticleOrigins(spec, p.x.copy(), p.y.copy())


def late_injection_spec(step=3):
    """One initial particle (id 1) and one injected at ``step`` (id 2)."""
    event = InjectionEvent(step=step, region=Region(0, 1, 0, 1), count=1)
    return PICSpec(cells=8, n_particles=1, steps=10, events=(event,))


class TestExpectedPositions:
    def test_matches_kernel_basic(self):
        mesh = Mesh(8)
        p = place_particles(mesh, np.array([0]), np.array([0]),
                            dt=1.0, k=0, m_vertical=1, start_id=1)
        origins = origins_of(mesh, p, m_vertical=1)
        run_particles(mesh, p, 5)
        xs, ys = vf.expected_final_positions(mesh, p, 5, origins)
        assert xs[0] == pytest.approx(p.x[0], abs=1e-10)
        assert ys[0] == p.y[0]

    def test_wraps_periodically(self):
        mesh = Mesh(4)
        p = place_particles(mesh, np.array([0]), np.array([0]),
                            dt=1.0, k=0, m_vertical=0, start_id=1)
        xs, _ = vf.expected_final_positions(mesh, p, 9, origins_of(mesh, p))
        assert xs[0] == pytest.approx((0.5 + 9) % 4.0)

    def test_selective_wrap_equals_full_mod_bitwise(self):
        """Only rows outside [0, L) go through fmod; the closed form must
        still be ``np.mod`` of every row, bit for bit — both directions of
        travel (vertically), several laps, the exact ``L`` edge and
        ``-0.0``."""
        mesh = Mesh(8, h=0.5)
        event = InjectionEvent(step=8, region=Region(0, 8, 0, 8), count=1)
        spec = PICSpec(cells=8, n_particles=7, steps=10, h=0.5, k_choices=(0, 1),
                       m_choices=(2, -2), events=(event,))
        cols = np.arange(8)
        k, m = per_particle_speeds(spec, cols + 1)
        p = place_particles(mesh, cols, cols[::-1].copy(),
                            dt=1.0, k=k, m_vertical=m, start_id=1)
        origins = vf.ParticleOrigins(spec, p.x.copy(), p.y.copy())
        origins.x0[0] = 0.0  # id 1 drifts 1 cell/step: lands exactly on L
        origins.y0[7] = -0.0  # id 8 is born at step 8: -0.0 + (-2 * 0.0) is -0.0
        xs, ys = vf.expected_final_positions(mesh, p, 8, origins)
        s = 8.0 - origins.birth(p.pid)
        assert s.tolist() == [8.0] * 7 + [0.0]
        kdisp = 2 * k + 1
        assert xs.tobytes() == np.mod(origins.x0 + kdisp * s * mesh.h, mesh.L).tobytes()
        assert ys.tobytes() == np.mod(origins.y0 + m * s * mesh.h, mesh.L).tobytes()
        assert xs[0] == 0.0 and ys[7] == 0.0 and not np.signbit(ys[7])

    def test_birth_reduces_participation(self):
        mesh = Mesh(8)
        p = place_particles(mesh, np.array([0, 0]), np.array([0, 0]),
                            dt=1.0, k=0, m_vertical=0, start_id=1)
        spec = late_injection_spec(step=3)
        origins = vf.ParticleOrigins(spec, p.x.copy(), p.y.copy())
        xs, _ = vf.expected_final_positions(mesh, p, 5, origins)
        assert xs.tolist() == [0.5 + 5, 0.5 + 2]  # id 2 participated in 2 steps

    def test_birth_beyond_total_rejected(self):
        mesh = Mesh(8)
        p = place_particles(mesh, np.array([0, 0]), np.array([0, 0]),
                            dt=1.0, k=0, m_vertical=0, start_id=1)
        origins = vf.ParticleOrigins(late_injection_spec(step=9), p.x.copy(), p.y.copy())
        with pytest.raises(ValueError):
            vf.expected_final_positions(mesh, p, 5, origins)


class TestPositionErrors:
    def test_periodic_error_metric(self):
        """A particle at ~L and expected at ~0 has tiny periodic error."""
        mesh = Mesh(8)
        p = place_particles(mesh, np.array([0]), np.array([0]),
                            dt=1.0, k=0, m_vertical=0, start_id=1)
        origins = origins_of(mesh, p)
        p.x[0] = 8.0 - 1e-9
        origins.x0[0] = 1e-9  # expected = x0 for 0 steps
        err = vf.position_errors(mesh, p, 0, origins)
        assert err[0] < 1e-8

    def test_detects_single_cell_error(self):
        mesh = Mesh(8)
        p = place_particles(mesh, np.array([0, 1]), np.array([0, 0]),
                            dt=1.0, k=0, m_vertical=0, start_id=1)
        origins = origins_of(mesh, p)
        run_particles(mesh, p, 3)
        p.x[1] += 1.0  # corrupt one particle by one cell
        err = vf.position_errors(mesh, p, 3, origins)
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
        origins = origins_of(mesh, p)
        run_particles(mesh, p, 4)
        res = vf.verify(mesh, p, 4, expected_ids=10, origins=origins)
        assert res.ok
        assert res.positions_ok and res.checksum_ok
        assert "PASS" in str(res)

    def test_position_failure_detected(self):
        mesh = Mesh(8)
        p = place_particles(mesh, np.arange(4), np.zeros(4, dtype=int),
                            dt=1.0, k=0, m_vertical=0, start_id=1)
        origins = origins_of(mesh, p)
        run_particles(mesh, p, 4)
        p.x[2] += 0.5
        res = vf.verify(mesh, p, 4, expected_ids=10, origins=origins)
        assert not res.positions_ok
        assert res.checksum_ok
        assert not res.ok

    def test_checksum_failure_detected(self):
        """A dropped particle fails the checksum even if positions pass."""
        mesh = Mesh(8)
        p = place_particles(mesh, np.arange(4), np.zeros(4, dtype=int),
                            dt=1.0, k=0, m_vertical=0, start_id=1)
        origins = origins_of(mesh, p)
        run_particles(mesh, p, 4)
        p = p.select(np.array([0, 1, 2]))  # lose particle 4
        res = vf.verify(mesh, p, 4, expected_ids=10, origins=origins)
        assert res.positions_ok
        assert not res.checksum_ok

    def test_duplicated_particle_detected(self):
        mesh = Mesh(8)
        p = place_particles(mesh, np.arange(4), np.zeros(4, dtype=int),
                            dt=1.0, k=0, m_vertical=0, start_id=1)
        origins = origins_of(mesh, p)
        run_particles(mesh, p, 4)
        p = p.append(p.select(np.array([0])))
        res = vf.verify(mesh, p, 4, expected_ids=10, origins=origins)
        assert not res.checksum_ok

    def test_empty_population(self):
        mesh = Mesh(8)
        from repro.core.particles import ParticleArray

        origins = origins_of(mesh, ParticleArray.empty(0))
        res = vf.verify(mesh, ParticleArray.empty(0), 4, expected_ids=0, origins=origins)
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


class TestOrigins:
    """The verification table: birth positions by ``pid - 1``, the rest
    derived from ``pid`` and the spec."""

    def four_pushed(self):
        mesh = Mesh(8)
        p = place_particles(mesh, np.arange(4), np.zeros(4, dtype=int),
                            dt=1.0, k=0, m_vertical=0, start_id=1)
        origins = origins_of(mesh, p)
        return mesh, run_particles(mesh, p, 4), origins

    @pytest.mark.parametrize("bad_pid", [0, 5], ids=["zero", "n_total+1"])
    def test_unknown_id_fails_cleanly(self, bad_pid):
        """An id outside [1, n_total] fails the position test; it neither
        raises nor wraps to the last row.  Particle 4 sits exactly where id
        4 is expected, so a ``pid - 1 == -1`` lookup would pass it."""
        mesh, p, origins = self.four_pushed()
        p.pid[3] = bad_pid
        err = vf.position_errors(mesh, p, 4, origins)
        assert err[:3].max() < 1e-12 and err[3] == np.inf
        xs, ys = vf.expected_final_positions(mesh, p, 4, origins)
        assert np.isnan(xs[3]) and np.isnan(ys[3]) and not np.isnan(xs[:3]).any()
        res = vf.verify(mesh, p, 4, expected_ids=10, origins=origins)
        assert not res.positions_ok and res.max_abs_error == np.inf
        assert "FAIL" in str(res)

    def test_every_id_unknown(self):
        """Also when there is no row to stand in: an empty table."""
        mesh, p, _ = self.four_pushed()
        empty = vf.ParticleOrigins(PICSpec(cells=8, n_particles=0, steps=4),
                                   np.empty(0), np.empty(0))
        assert vf.position_errors(mesh, p, 4, empty).tolist() == [np.inf] * 4
        assert np.isnan(vf.expected_final_positions(mesh, p, 4, empty)[0]).all()

    def test_injected_particle_carries_its_birth_step(self):
        region = Region(2, 6, 1, 5)
        spec = PICSpec(cells=16, n_particles=50, steps=10,
                       distribution=Distribution.UNIFORM,
                       events=(RemovalEvent(step=1, region=region),
                               InjectionEvent(step=3, region=region, count=20),
                               InjectionEvent(step=7, region=region, count=5)))
        mesh = Mesh(spec.cells)
        initial = initialize(spec, mesh)
        injected = ev.materialize_injections(spec, mesh)
        origins = vf.ParticleOrigins.build(spec, initial, injected.values())
        assert origins.n_total == 75
        pid = np.arange(1, 76)
        assert origins.birth(pid).tolist() == [0] * 50 + [3] * 20 + [7] * 5
        for newp in (initial, *injected.values()):
            np.testing.assert_array_equal(origins.x0[newp.pid - 1], newp.x)
            np.testing.assert_array_equal(origins.y0[newp.pid - 1], newp.y)

    def test_table_copies_its_sources(self):
        mesh, p, _ = self.four_pushed()
        origins = vf.ParticleOrigins.build(origins_of(mesh, p).spec, p, [])
        assert not np.shares_memory(origins.x0, p.x)
        assert not np.shares_memory(origins.y0, p.y)

    def test_length_must_match_the_spec(self):
        spec = PICSpec(cells=8, n_particles=4, steps=2)
        with pytest.raises(ValueError, match="spec creates 4"):
            vf.ParticleOrigins(spec, np.zeros(3), np.zeros(3))
