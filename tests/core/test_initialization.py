"""Tests for the §III-E initial particle distributions."""

import numpy as np
import pytest

from repro.core.initialization import (
    column_weights,
    geometric_weights,
    initialize,
    integer_counts,
    linear_weights,
    per_particle_speeds,
    place_particles,
    sinusoidal_weights,
)
from repro.core.mesh import Mesh
from repro.core.spec import Distribution, InjectionEvent, PICSpec, Region
from repro.core.verification import ParticleOrigins


def column_histogram(spec):
    mesh = Mesh(spec.cells, spec.h, spec.q)
    p = initialize(spec, mesh)
    return np.bincount(p.cell_columns(mesh), minlength=spec.cells), p


class TestIntegerCounts:
    def test_sums_to_n(self):
        w = np.array([1.0, 2.0, 3.0])
        assert integer_counts(w, 100).sum() == 100

    def test_proportionality(self):
        counts = integer_counts(np.array([1.0, 3.0]), 400)
        assert counts.tolist() == [100, 300]

    def test_zero_items(self):
        assert integer_counts(np.array([1.0, 1.0]), 0).sum() == 0

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            integer_counts(np.zeros(3), 5)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            integer_counts(np.array([1.0, -1.0]), 5)

    def test_largest_remainder_determinism(self):
        w = np.ones(7)
        a = integer_counts(w, 10)
        b = integer_counts(w, 10)
        np.testing.assert_array_equal(a, b)
        assert a.sum() == 10
        assert a.max() - a.min() <= 1

    def test_n_less_than_bins(self):
        counts = integer_counts(np.ones(10), 3)
        assert counts.sum() == 3
        assert counts.max() == 1


class TestWeightProfiles:
    def test_geometric_ratio(self):
        w = geometric_weights(10, 0.5)
        np.testing.assert_allclose(w[1:] / w[:-1], 0.5, rtol=1e-12)

    def test_geometric_r_one_is_uniform(self):
        np.testing.assert_allclose(geometric_weights(10, 1.0), 1.0)

    def test_geometric_no_overflow_for_extreme_r(self):
        w = geometric_weights(12000, 0.999)
        assert np.all(np.isfinite(w))
        w2 = geometric_weights(2000, 1.01)
        assert np.all(np.isfinite(w2))

    def test_sinusoidal_endpoints_heavy(self):
        w = sinusoidal_weights(101)
        assert w[0] == pytest.approx(2.0)
        assert w[50] == pytest.approx(0.0, abs=1e-12)

    def test_linear_decreasing(self):
        w = linear_weights(10, alpha=1.0, beta=2.0)
        assert w[0] == 2.0
        assert w[-1] == 1.0
        assert np.all(np.diff(w) < 0)

    def test_linear_negative_rejected(self):
        with pytest.raises(ValueError):
            linear_weights(10, alpha=3.0, beta=1.0)

    def test_column_weights_dispatch(self):
        for dist in (
            Distribution.GEOMETRIC,
            Distribution.SINUSOIDAL,
            Distribution.LINEAR,
            Distribution.UNIFORM,
        ):
            spec = PICSpec(cells=16, n_particles=10, steps=1, distribution=dist,
                           alpha=1.0, beta=2.0)
            assert len(column_weights(spec)) == 16

    def test_patch_weights_zero_outside(self):
        spec = PICSpec(
            cells=16, n_particles=10, steps=1,
            distribution=Distribution.PATCH, patch=Region(4, 8, 0, 16),
        )
        w = column_weights(spec)
        assert np.all(w[:4] == 0) and np.all(w[8:] == 0) and np.all(w[4:8] == 1)


class TestInitialize:
    def test_total_count(self):
        spec = PICSpec(cells=32, n_particles=777, steps=1)
        _, p = column_histogram(spec)
        assert len(p) == 777

    def test_unique_consecutive_ids(self):
        spec = PICSpec(cells=32, n_particles=100, steps=1)
        _, p = column_histogram(spec)
        assert sorted(p.pid.tolist()) == list(range(1, 101))

    def test_particles_at_cell_centres(self):
        spec = PICSpec(cells=32, n_particles=500, steps=1)
        _, p = column_histogram(spec)
        assert np.all(p.x - np.floor(p.x) == 0.5)
        assert np.all(p.y - np.floor(p.y) == 0.5)

    def test_geometric_histogram_decreasing(self):
        spec = PICSpec(cells=16, n_particles=20000, steps=1, r=0.8)
        hist, _ = column_histogram(spec)
        # The geometric profile must be (weakly) decreasing left to right.
        assert np.all(np.diff(hist.astype(int)) <= 0)
        assert hist[0] > 10 * max(hist[-1], 1)

    def test_geometric_block_ratio_eq8(self):
        """Per-block counts form a geometric series with ratio r**(c/P) (Eq. 8)."""
        c, P, r = 64, 4, 0.9
        spec = PICSpec(cells=c, n_particles=200000, steps=1, r=r)
        hist, _ = column_histogram(spec)
        blocks = hist.reshape(P, c // P).sum(axis=1)
        measured = blocks[1:] / blocks[:-1]
        np.testing.assert_allclose(measured, r ** (c / P), rtol=0.02)

    def test_uniform_distribution_flat(self):
        spec = PICSpec(
            cells=16, n_particles=16000, steps=1, distribution=Distribution.UNIFORM
        )
        hist, _ = column_histogram(spec)
        assert hist.min() == hist.max() == 1000

    def test_patch_contains_all_particles(self):
        region = Region(2, 6, 3, 9)
        spec = PICSpec(
            cells=16, n_particles=1000, steps=1,
            distribution=Distribution.PATCH, patch=region,
        )
        mesh = Mesh(16)
        p = initialize(spec, mesh)
        cx, cy = p.cell_columns(mesh), p.cell_rows(mesh)
        assert np.all(region.contains(cx, cy))

    def test_determinism_same_seed(self):
        spec = PICSpec(cells=32, n_particles=100, steps=1, seed=7)
        _, p1 = column_histogram(spec)
        _, p2 = column_histogram(spec)
        np.testing.assert_array_equal(p1.x, p2.x)
        np.testing.assert_array_equal(p1.y, p2.y)

    def test_different_seed_differs(self):
        base = dict(cells=32, n_particles=1000, steps=1)
        _, p1 = column_histogram(PICSpec(seed=1, **base))
        _, p2 = column_histogram(PICSpec(seed=2, **base))
        assert not np.array_equal(p1.y, p2.y)

    def test_rotate90_swaps_axes(self):
        spec = PICSpec(cells=16, n_particles=8000, steps=1, r=0.7, rotate90=True)
        mesh = Mesh(16)
        p = initialize(spec, mesh)
        row_hist = np.bincount(p.cell_rows(mesh), minlength=16)
        col_hist = np.bincount(p.cell_columns(mesh), minlength=16)
        # Profile now lives on rows; columns look ~uniform.
        assert np.all(np.diff(row_hist.astype(int)) <= 0)
        assert col_hist.max() < row_hist.max()

    def test_zero_particles(self):
        spec = PICSpec(cells=16, n_particles=0, steps=1)
        _, p = column_histogram(spec)
        assert len(p) == 0

    def test_charges_follow_birth_column_parity(self):
        spec = PICSpec(cells=16, n_particles=1000, steps=1)
        mesh = Mesh(16)
        p = initialize(spec, mesh)
        signs = np.where(p.cell_columns(mesh) % 2 == 0, 1.0, -1.0)
        assert np.all(np.sign(p.q) == signs)

    def test_initial_velocity_from_m(self):
        spec = PICSpec(cells=16, n_particles=10, steps=1, m_vertical=4)
        mesh = Mesh(16)
        p = initialize(spec, mesh)
        assert np.all(p.vx == 0.0)
        assert np.all(p.vy == 4.0)


class TestPlaceParticles:
    def test_metadata_recorded(self):
        """Particles carry their id; the origins table recovers the rest
        (birth position, drift 2k+1, vertical m, birth step) from it."""
        mesh = Mesh(8)
        p = place_particles(
            mesh, np.array([1, 2]), np.array([3, 4]),
            dt=1.0, k=1, m_vertical=2, start_id=10,
        )
        assert p.pid.tolist() == [10, 11]
        assert p.vy.tolist() == [2.0, 2.0]
        # Ids 10-11 are the block of an injection at step 5 after 9 initial.
        event = InjectionEvent(step=5, region=Region(1, 3, 3, 5), count=2)
        spec = PICSpec(cells=8, n_particles=9, steps=8, k=1, m_vertical=2,
                       events=(event,))
        origins = ParticleOrigins(spec, np.r_[np.zeros(9), p.x], np.r_[np.zeros(9), p.y])
        k, m = per_particle_speeds(spec, p.pid)
        assert 2 * k + 1 == 3 and m == 2
        assert origins.birth(p.pid).tolist() == [5, 5]
        np.testing.assert_array_equal(origins.x0[p.pid - 1], p.x)
        np.testing.assert_array_equal(origins.y0[p.pid - 1], p.y)
