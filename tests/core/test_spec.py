"""Tests for the PICSpec problem description (paper §III knobs)."""

import pytest

from repro.core.spec import (
    Distribution,
    InjectionEvent,
    PICSpec,
    Region,
    RemovalEvent,
)


def make_spec(**kw):
    base = dict(cells=32, n_particles=100, steps=10)
    base.update(kw)
    return PICSpec(**base)


class TestSpecValidation:
    def test_basic_spec_is_valid(self):
        spec = make_spec()
        assert spec.L == 32.0

    def test_odd_cells_rejected(self):
        with pytest.raises(ValueError, match="even"):
            make_spec(cells=31)

    def test_zero_cells_rejected(self):
        with pytest.raises(ValueError):
            make_spec(cells=0)

    def test_negative_particles_rejected(self):
        with pytest.raises(ValueError):
            make_spec(n_particles=-1)

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            make_spec(steps=0)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            make_spec(k=-1)

    def test_patch_requires_region(self):
        with pytest.raises(ValueError, match="patch"):
            make_spec(distribution=Distribution.PATCH)

    def test_patch_region_must_fit_mesh(self):
        with pytest.raises(ValueError, match="exceeds"):
            make_spec(
                distribution=Distribution.PATCH,
                patch=Region(0, 64, 0, 8),
            )

    def test_geometric_requires_positive_r(self):
        with pytest.raises(ValueError, match="r must be positive"):
            make_spec(r=0.0)

    def test_linear_requires_nonnegative_density(self):
        with pytest.raises(ValueError, match="non-negative"):
            make_spec(distribution=Distribution.LINEAR, alpha=5.0, beta=1.0)

    def test_event_outside_simulation_rejected(self):
        ev = InjectionEvent(step=50, region=Region(0, 4, 0, 4), count=10)
        with pytest.raises(ValueError, match="outside"):
            make_spec(events=(ev,))

    def test_event_region_must_fit_mesh(self):
        ev = RemovalEvent(step=5, region=Region(0, 64, 0, 4))
        with pytest.raises(ValueError, match="exceeds"):
            make_spec(events=(ev,))

    def test_nonpositive_h_dt_q_rejected(self):
        for field in ("h", "dt", "q"):
            with pytest.raises(ValueError):
                make_spec(**{field: 0.0})


class TestRegion:
    def test_empty_region_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            Region(4, 4, 0, 2)

    def test_negative_bounds_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Region(-1, 4, 0, 2)

    def test_n_cells(self):
        assert Region(2, 6, 1, 3).n_cells == 8

    def test_contains_vectorized(self):
        import numpy as np

        r = Region(2, 4, 0, 2)
        cx = np.array([1, 2, 3, 4])
        cy = np.array([0, 1, 1, 0])
        assert r.contains(cx, cy).tolist() == [False, True, True, False]


class TestEvents:
    def test_injection_count_must_be_positive(self):
        with pytest.raises(ValueError):
            InjectionEvent(step=0, region=Region(0, 2, 0, 2), count=0)

    def test_removal_fraction_bounds(self):
        with pytest.raises(ValueError):
            RemovalEvent(step=0, region=Region(0, 2, 0, 2), fraction=0.0)
        with pytest.raises(ValueError):
            RemovalEvent(step=0, region=Region(0, 2, 0, 2), fraction=1.5)


class TestHelpers:
    def test_scaled_preserves_minimums(self):
        spec = make_spec(n_particles=10, steps=10)
        tiny = spec.scaled(particle_factor=0.0001, step_factor=0.0001)
        assert tiny.n_particles == 1
        assert tiny.steps == 1

    def test_scaled_rounds(self):
        spec = make_spec(n_particles=100, steps=10)
        half = spec.scaled(particle_factor=0.5)
        assert half.n_particles == 50
        assert half.steps == 10

    def test_describe_mentions_distribution(self):
        assert "geometric" in make_spec().describe()
