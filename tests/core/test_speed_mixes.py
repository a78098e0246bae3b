"""Tests for per-particle speed variation (§III-E charge/velocity facility)."""

import numpy as np
import pytest

from repro.core.initialization import initialize, per_particle_speeds, speed_choice
from repro.core.mesh import Mesh
from repro.core.simulation import run_serial
from repro.core.spec import Distribution, InjectionEvent, PICSpec, Region
from repro.parallel import Mpi2dLbPIC, Mpi2dPIC


def mixed_spec(**kw):
    cfg = dict(
        cells=48, n_particles=600, steps=12,
        distribution=Distribution.UNIFORM,
        k_choices=(0, 1, 2), m_choices=(0, 1),
    )
    cfg.update(kw)
    return PICSpec(**cfg)


class TestSpecValidation:
    def test_empty_choices_rejected(self):
        with pytest.raises(ValueError, match="k_choices"):
            mixed_spec(k_choices=())
        with pytest.raises(ValueError, match="m_choices"):
            mixed_spec(m_choices=())

    def test_negative_k_choice_rejected(self):
        with pytest.raises(ValueError, match="k_choices"):
            mixed_spec(k_choices=(0, -1))


class TestSpeedChoice:
    def test_cycles_by_pid(self):
        pids = np.array([1, 2, 3, 4, 5])
        out = speed_choice(pids, (10, 20, 30))
        assert out.tolist() == [10, 20, 30, 10, 20]

    def test_independent_of_order(self):
        a = speed_choice(np.array([5, 1, 3]), (7, 8))
        b = speed_choice(np.array([1, 3, 5]), (7, 8))
        assert sorted(zip([5, 1, 3], a)) == sorted(zip([1, 3, 5], b))


class TestMixedPopulation:
    def test_initialization_assigns_mixed_speeds(self):
        spec = mixed_spec()
        mesh = Mesh(spec.cells)
        p = initialize(spec, mesh)
        k, m = per_particle_speeds(spec, p.pid)
        kdisp = 2 * k + 1
        assert set(kdisp.tolist()) == {1, 3, 5}
        assert set(m.tolist()) == {0, 1}
        # Charge magnitude scales with the particle's own (2k+1).
        base = np.abs(p.q[kdisp == 1][0])
        assert np.abs(p.q[kdisp == 5][0]) == pytest.approx(5 * base)
        # ... and its vertical speed with its own m.
        np.testing.assert_array_equal(p.vy, m * spec.h / spec.dt)

    def test_serial_run_verifies(self):
        result = run_serial(mixed_spec())
        assert result.verification.ok

    def test_parallel_run_verifies(self):
        res = Mpi2dPIC(mixed_spec(), 6).run()
        assert res.verification.ok

    def test_parallel_with_lb_verifies(self):
        res = Mpi2dLbPIC(mixed_spec(steps=20), 6, lb_interval=4).run()
        assert res.verification.ok

    def test_injected_particles_use_choice_rule(self):
        spec = mixed_spec(
            steps=15,
            events=(InjectionEvent(step=5, region=Region(0, 8, 0, 8), count=30),),
        )
        result = run_serial(spec)
        assert result.verification.ok
        injected = result.particles.select(result.particles.pid > spec.n_particles)
        assert len(injected) == 30
        k, _ = per_particle_speeds(spec, injected.pid)
        assert set((2 * k + 1).tolist()) <= {1, 3, 5}
        # Each drifts at its own 2k+1: the charge carries the same factor.
        base = np.abs(injected.q[k == 0][0])
        np.testing.assert_allclose(np.abs(injected.q), (2 * k + 1) * base)

    def test_mixture_smears_the_cloud(self):
        """Different drift speeds spread an initially tight distribution."""
        tight = PICSpec(
            cells=64, n_particles=2000, steps=15,
            distribution=Distribution.PATCH, patch=Region(0, 4, 0, 64),
        )
        mixed = PICSpec(
            cells=64, n_particles=2000, steps=15,
            distribution=Distribution.PATCH, patch=Region(0, 4, 0, 64),
            k_choices=(0, 1, 3),
        )
        mesh = Mesh(64)
        tight_cols = np.unique(run_serial(tight).particles.cell_columns(mesh))
        mixed_cols = np.unique(run_serial(mixed).particles.cell_columns(mesh))
        assert len(mixed_cols) > len(tight_cols)
