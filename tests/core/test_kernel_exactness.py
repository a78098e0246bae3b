"""Long-horizon exactness tests of the kernel (the §III-C guarantees).

The PRK's verification tolerance is 1e-5, but the implementation is built
to do far better: exact vertical positions forever, and horizontal error
bounded by accumulated round-off.  These tests pin the actual guarantees so
a regression (e.g. a reordered summation) is caught long before it eats the
verification margin.
"""

import numpy as np
import pytest

from repro.core.initialization import initialize
from repro.core.kernel import advance, compute_acceleration
from repro.core.mesh import Mesh
from repro.core.simulation import SerialSimulation, run_serial
from repro.core.spec import Distribution, InjectionEvent, PICSpec, Region
from repro.core.verification import position_errors


class TestVerticalExactness:
    @pytest.mark.parametrize("k,m", [(0, 0), (1, 2), (2, 1), (3, 3)])
    def test_ordinate_bitwise_exact_500_steps(self, k, m):
        spec = PICSpec(
            cells=64, n_particles=50, steps=1, k=k, m_vertical=m,
            distribution=Distribution.UNIFORM,
        )
        mesh = Mesh(spec.cells)
        p = initialize(spec, mesh)
        y_expected = p.y.copy()
        for step in range(1, 501):
            advance(mesh, p, spec.dt)
            y_expected = np.mod(y_expected + m, mesh.L)
            # Bitwise: no tolerance at all.
            assert np.array_equal(p.y, y_expected), f"step {step}"

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("m", [0, 2, -1])
    def test_every_particle_stays_on_its_row_axis(self, k, m):
        """The fused push computes one corner per column only for blocks
        whose every particle has ``y - floor(y/h)*h == h/2`` bitwise.  If
        the PRK ever stopped keeping that true, the push would quietly fall
        back to four corners, so it is pinned here for every particle after
        every step — injected particles and the y wrap included."""
        spec = PICSpec(
            cells=32, n_particles=600, steps=20, k=k, m_vertical=m,
            events=(InjectionEvent(step=6, region=Region(4, 12, 26, 32), count=200),),
        )
        sim = SerialSimulation(spec)
        h = sim.mesh.h
        for t in range(spec.steps):
            sim.step(t)
            y = sim.particles.y
            off = np.flatnonzero(y - np.floor(y / h) * h != 0.5 * h)
            assert off.size == 0, f"step {t}: {off.size} particles off the axis"
        assert len(sim.particles) == 800

    def test_vertical_velocity_never_drifts(self):
        spec = PICSpec(cells=32, n_particles=20, steps=1, m_vertical=3,
                       distribution=Distribution.UNIFORM)
        mesh = Mesh(spec.cells)
        p = initialize(spec, mesh)
        v0 = p.vy.copy()
        for _ in range(300):
            advance(mesh, p, spec.dt)
        assert np.array_equal(p.vy, v0)


class TestHorizontalAccuracy:
    def test_error_growth_is_subnanometer_over_1000_steps(self):
        spec = PICSpec(cells=64, n_particles=100, steps=1, k=1,
                       distribution=Distribution.UNIFORM)
        mesh = Mesh(spec.cells)
        p = initialize(spec, mesh)
        x0 = p.x.copy()
        for _ in range(1000):
            advance(mesh, p, spec.dt)
        expected = np.mod(x0 + (2 * spec.k + 1) * 1000.0, mesh.L)
        delta = np.abs(p.x - expected)
        delta = np.minimum(delta, mesh.L - delta)
        assert float(delta.max()) < 1e-9

    def test_displacement_per_step_is_2k_plus_1(self):
        for k in (0, 1, 2, 4):
            spec = PICSpec(cells=128, n_particles=30, steps=1, k=k,
                           distribution=Distribution.UNIFORM)
            mesh = Mesh(spec.cells)
            p = initialize(spec, mesh)
            x_before = p.x.copy()
            advance(mesh, p, spec.dt)
            moved = np.mod(p.x - x_before, mesh.L)
            np.testing.assert_allclose(moved, 2 * k + 1, atol=1e-10)

    def test_velocity_returns_to_rest_every_other_step(self):
        spec = PICSpec(cells=32, n_particles=25, steps=1,
                       distribution=Distribution.UNIFORM)
        mesh = Mesh(spec.cells)
        p = initialize(spec, mesh)
        for step in range(1, 21):
            advance(mesh, p, spec.dt)
            if step % 2 == 0:
                np.testing.assert_allclose(p.vx, 0.0, atol=1e-10)
            else:
                assert np.all(np.abs(p.vx) > 0.1)


class TestForceField:
    def test_acceleration_antisymmetric_under_column_shift(self):
        """Shifting a particle one column flips the sign of its
        acceleration (mirrored charges, Fig. 2)."""
        mesh = Mesh(16)
        x = np.array([3.25])
        y = np.array([5.5])
        q = np.array([1.0])
        ax1, _ = compute_acceleration(mesh, x, y, q)
        ax2, _ = compute_acceleration(mesh, x + 1.0, y, q)
        assert ax1[0] == pytest.approx(-ax2[0], rel=1e-12)

    def test_acceleration_periodic_in_two_columns(self):
        mesh = Mesh(16)
        x = np.array([0.7])
        y = np.array([2.5])
        q = np.array([-2.0])
        ax1, ay1 = compute_acceleration(mesh, x, y, q)
        ax2, ay2 = compute_acceleration(mesh, x + 2.0, y, q)
        assert ax1[0] == pytest.approx(ax2[0], rel=1e-12)

    def test_verification_margin_for_long_runs(self):
        """Even 2,000 steps leave 4+ orders of magnitude of margin to the
        1e-5 verification tolerance."""
        spec = PICSpec(cells=32, n_particles=40, steps=2000, r=0.9)
        result = run_serial(spec)
        assert result.verification.ok
        assert result.verification.max_abs_error < 1e-9
