"""Tests for the force/integration kernel (paper §III-B, Fig. 2 motion)."""

import numpy as np
import pytest

from repro.core.kernel import advance, compute_acceleration
from repro.core.mesh import Mesh
from repro.core.initialization import place_particles
from repro.core.particles import ParticleArray


def single_particle(mesh, col=0, row=0, k=0, m_vertical=0, dt=1.0):
    return place_particles(
        mesh,
        np.array([col]),
        np.array([row]),
        dt=dt,
        k=k,
        m_vertical=m_vertical,
        start_id=1,
    )


class TestAcceleration:
    def test_vertical_force_cancels_exactly_on_axis(self):
        """On the cell axis of symmetry the y-force is *bitwise* zero."""
        mesh = Mesh(cells=8)
        x = np.array([0.3, 0.5, 0.7, 1.2])
        y = np.array([0.5, 0.5, 1.5, 3.5])
        q = np.array([1.0, -2.0, 0.5, 3.0])
        _, ay = compute_acceleration(mesh, x, y, q)
        assert np.all(ay == 0.0)

    def test_positive_particle_even_column_accelerates_right(self):
        mesh = Mesh(cells=8)
        ax, _ = compute_acceleration(
            mesh, np.array([0.5]), np.array([0.5]), np.array([1.0])
        )
        assert ax[0] > 0

    def test_positive_particle_odd_column_accelerates_left(self):
        mesh = Mesh(cells=8)
        ax, _ = compute_acceleration(
            mesh, np.array([1.5]), np.array([0.5]), np.array([1.0])
        )
        assert ax[0] < 0

    def test_negative_particle_flips_force(self):
        mesh = Mesh(cells=8)
        pos = (np.array([0.5]), np.array([0.5]))
        ax_pos, _ = compute_acceleration(mesh, *pos, np.array([2.0]))
        ax_neg, _ = compute_acceleration(mesh, *pos, np.array([-2.0]))
        assert ax_pos[0] == -ax_neg[0]

    def test_force_linear_in_particle_charge(self):
        mesh = Mesh(cells=8)
        pos = (np.array([0.5]), np.array([0.5]))
        a1, _ = compute_acceleration(mesh, *pos, np.array([1.0]))
        a3, _ = compute_acceleration(mesh, *pos, np.array([3.0]))
        assert a3[0] == pytest.approx(3 * a1[0], rel=1e-15)

    def test_off_axis_particle_feels_vertical_force(self):
        # x must be off-centre too: at x = h/2 the left-pair repulsion and
        # right-pair attraction cancel vertically by symmetry.
        mesh = Mesh(cells=8)
        _, ay = compute_acceleration(
            mesh, np.array([0.2]), np.array([0.3]), np.array([1.0])
        )
        assert ay[0] != 0.0

    def test_empty_input(self):
        mesh = Mesh(cells=8)
        ax, ay = compute_acceleration(mesh, np.array([]), np.array([]), np.array([]))
        assert len(ax) == 0 and len(ay) == 0


class TestAdvance:
    def test_one_step_moves_exactly_one_cell(self):
        """Eq. 3 charge => from rest, one step crosses exactly (2k+1)=1 cell."""
        mesh = Mesh(cells=8)
        p = single_particle(mesh, col=2, row=3)
        advance(mesh, p, dt=1.0)
        assert p.x[0] == pytest.approx(3.5, abs=1e-12)
        assert p.y[0] == 3.5  # exact

    def test_one_step_k1_moves_three_cells(self):
        mesh = Mesh(cells=16)
        p = single_particle(mesh, col=0, row=0, k=1)
        advance(mesh, p, dt=1.0)
        assert p.x[0] == pytest.approx(3.5, abs=1e-12)

    def test_two_step_oscillation_pattern(self):
        """Velocity alternates a*dt, 0, a*dt, 0 ... (Fig. 2)."""
        mesh = Mesh(cells=8)
        p = single_particle(mesh, col=0, row=0)
        advance(mesh, p, dt=1.0)
        v1 = p.vx[0]
        assert v1 > 0
        advance(mesh, p, dt=1.0)
        assert p.vx[0] == pytest.approx(0.0, abs=1e-12)
        assert p.x[0] == pytest.approx(2.5, abs=1e-12)

    def test_periodic_wrap_in_x(self):
        mesh = Mesh(cells=4)
        p = single_particle(mesh, col=3, row=0)
        advance(mesh, p, dt=1.0)
        assert p.x[0] == pytest.approx(0.5, abs=1e-12)

    def test_vertical_advection_is_exact(self):
        mesh = Mesh(cells=8)
        p = single_particle(mesh, col=0, row=0, m_vertical=3)
        for _ in range(5):
            advance(mesh, p, dt=1.0)
        # 5 steps of 3 cells, wrapped into [0, 8)
        assert p.y[0] == (0.5 + 15) % 8.0

    def test_vertical_position_stays_exactly_on_axis(self):
        """The ordinate remains *bitwise* k+1/2 for many steps (exactness)."""
        mesh = Mesh(cells=8)
        p = single_particle(mesh, col=0, row=2, m_vertical=1)
        for _ in range(50):
            advance(mesh, p, dt=1.0)
        frac = p.y[0] - np.floor(p.y[0])
        assert frac == 0.5

    def test_advance_empty_noop(self):
        mesh = Mesh(cells=8)
        p = ParticleArray.empty(0)
        advance(mesh, p, dt=1.0)  # must not raise
        assert len(p) == 0

    def test_long_run_error_stays_tiny(self):
        mesh = Mesh(cells=8)
        p = single_particle(mesh, col=0, row=0)
        for _ in range(1000):
            advance(mesh, p, dt=1.0)
        expected = (0.5 + 1000) % 8.0
        assert p.x[0] == pytest.approx(expected, abs=1e-9)

    def test_noninteger_dt_still_moves_one_cell(self):
        """Eq. 3 compensates dt: displacement per step is h regardless of dt."""
        mesh = Mesh(cells=8)
        p = single_particle(mesh, col=0, row=0, dt=0.25)
        advance(mesh, p, dt=0.25)
        assert p.x[0] == pytest.approx(1.5, abs=1e-10)
