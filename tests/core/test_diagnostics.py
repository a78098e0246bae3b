"""Tests for statistical diagnostics — including the paper's §III-C point
that they are *not* sufficient for verification."""

import numpy as np
import pytest

from repro.core.diagnostics import (
    PopulationStats,
    column_histogram,
    histogram_l1_distance,
    imbalance_over_columns,
    population_stats,
)
from repro.core.initialization import initialize
from repro.core.mesh import Mesh
from repro.core.particles import ParticleArray
from repro.core.simulation import run_serial
from repro.core.spec import Distribution, PICSpec
from repro.core.verification import ParticleOrigins, position_errors


def uniform_run(n=2000, steps=20):
    spec = PICSpec(
        cells=64, n_particles=n, steps=steps, distribution=Distribution.UNIFORM
    )
    return spec, run_serial(spec)


class TestPopulationStats:
    def test_empty_population(self):
        s = population_stats(ParticleArray.empty(0))
        assert s.count == 0
        assert s.kinetic_energy == 0.0

    def test_basic_quantities(self):
        p = ParticleArray.empty(2)
        p.x[:] = [1.0, 3.0]
        p.y[:] = [2.0, 2.0]
        p.vx[:] = [1.0, -1.0]
        p.q[:] = [0.5, -0.5]
        s = population_stats(p)
        assert s.mean_x == 2.0
        assert s.var_y == 0.0
        assert s.kinetic_energy == pytest.approx(1.0)
        assert s.total_charge == 0.0

    def test_close_to_tolerates_small_drift(self):
        a = PopulationStats(10, 1.0, 1.0, 2.0, 2.0, 5.0, 0.0)
        b = PopulationStats(10, 1.0005, 1.0, 2.0, 2.0, 5.0, 0.0)
        assert a.close_to(b, rtol=1e-3)

    def test_close_to_rejects_count_change(self):
        a = PopulationStats(10, 1.0, 1.0, 2.0, 2.0, 5.0, 0.0)
        b = PopulationStats(9, 1.0, 1.0, 2.0, 2.0, 5.0, 0.0)
        assert not a.close_to(b)


class TestHistogram:
    def test_column_histogram_counts(self):
        mesh = Mesh(8)
        p = ParticleArray.empty(3)
        p.x[:] = [0.5, 0.7, 5.5]
        hist = column_histogram(mesh, p)
        assert hist.tolist() == [2, 0, 0, 0, 0, 1, 0, 0]

    def test_l1_distance(self):
        a = np.array([10, 0])
        b = np.array([0, 10])
        assert histogram_l1_distance(a, a) == 0.0
        assert histogram_l1_distance(a, b) == 2.0

    def test_l1_shape_mismatch(self):
        with pytest.raises(ValueError):
            histogram_l1_distance(np.zeros(3), np.zeros(4))

    def test_imbalance_uniform_near_one(self):
        spec, result = uniform_run()
        mesh = Mesh(spec.cells)
        assert imbalance_over_columns(mesh, result.particles) < 1.5

    def test_imbalance_geometric_large(self):
        spec = PICSpec(cells=64, n_particles=5000, steps=1, r=0.8)
        result = run_serial(spec)
        mesh = Mesh(spec.cells)
        assert imbalance_over_columns(mesh, result.particles) > 5.0


class TestStatisticalVerificationIsInsufficient:
    """The paper's §III-C claim, demonstrated.

    A single-particle position error is a needle the statistical haystack
    cannot find: every moment shifts by O(1/n), far inside the tolerance
    such checks must grant — while the exact Eq. 5-6 check pinpoints it.
    """

    def test_single_particle_error_invisible_statistically(self):
        spec, result = uniform_run(n=2000)
        mesh = Mesh(spec.cells)
        clean = result.particles
        before = population_stats(clean)

        corrupted = clean.copy()
        corrupted.x[7] = (corrupted.x[7] + 1.0) % mesh.L  # one cell off

        after = population_stats(corrupted)
        # Statistical verification (loose tolerance): passes.
        assert before.close_to(after, rtol=1e-3)
        # Histogram comparison at a statistical tolerance: also passes.
        d = histogram_l1_distance(
            column_histogram(mesh, clean), column_histogram(mesh, corrupted)
        )
        assert d < 0.01

        # The PRK's exact verification: caught, and localized.
        origins = ParticleOrigins.build(spec, initialize(spec, mesh), [])
        errors = position_errors(mesh, corrupted, spec.steps, origins)
        assert errors[7] == pytest.approx(1.0)
        assert np.count_nonzero(errors > 1e-5) == 1

    def test_exact_check_beats_energy_conservation(self):
        """Swapping two particles' velocities conserves energy exactly but
        derails both trajectories — only the exact check notices later."""
        spec, result = uniform_run(n=500, steps=10)
        p = result.particles
        before = population_stats(p)
        p.vx[[0, 1]] = p.vx[[1, 0]]
        after = population_stats(p)
        assert before.kinetic_energy == pytest.approx(after.kinetic_energy)
