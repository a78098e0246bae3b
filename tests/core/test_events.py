"""Tests for particle injection/removal events (paper §III-E5)."""

import numpy as np
import pytest

from repro.core import events as ev
from repro.core.initialization import initialize
from repro.core.mesh import Mesh
from repro.core.spec import Distribution, InjectionEvent, PICSpec, Region, RemovalEvent
from repro.core.verification import ParticleOrigins


def uniform_spec(**kw):
    base = dict(
        cells=16, n_particles=200, steps=20, distribution=Distribution.UNIFORM
    )
    base.update(kw)
    return PICSpec(**base)


class TestInjectionIds:
    def test_base_id_first_event(self):
        spec = uniform_spec(
            events=(InjectionEvent(step=2, region=Region(0, 4, 0, 4), count=50),)
        )
        assert ev.injection_base_id(spec, 0) == 201

    def test_base_id_second_event_after_injection(self):
        spec = uniform_spec(
            events=(
                InjectionEvent(step=2, region=Region(0, 4, 0, 4), count=50),
                InjectionEvent(step=5, region=Region(4, 8, 0, 4), count=30),
            )
        )
        assert ev.injection_base_id(spec, 1) == 251

    def test_removals_do_not_consume_ids(self):
        spec = uniform_spec(
            events=(
                RemovalEvent(step=2, region=Region(0, 4, 0, 4)),
                InjectionEvent(step=5, region=Region(4, 8, 0, 4), count=30),
            )
        )
        assert ev.injection_base_id(spec, 1) == 201

    def test_bad_index(self):
        spec = uniform_spec()
        with pytest.raises(IndexError):
            ev.injection_base_id(spec, 0)


class TestMaterializeInjection:
    def test_particles_inside_region(self):
        region = Region(2, 6, 1, 5)
        event = InjectionEvent(step=3, region=region, count=100)
        spec = uniform_spec(events=(event,))
        mesh = Mesh(spec.cells)
        newp = ev.materialize_injection(spec, mesh, event, 0)
        assert len(newp) == 100
        assert np.all(region.contains(newp.cell_columns(mesh), newp.cell_rows(mesh)))
        origins = ParticleOrigins.build(spec, initialize(spec, mesh), [newp])
        assert np.all(origins.birth(newp.pid) == 3)
        np.testing.assert_array_equal(origins.x0[newp.pid - 1], newp.x)

    def test_deterministic(self):
        event = InjectionEvent(step=3, region=Region(0, 4, 0, 4), count=10)
        spec = uniform_spec(events=(event,))
        mesh = Mesh(spec.cells)
        a = ev.materialize_injection(spec, mesh, event, 0)
        b = ev.materialize_injection(spec, mesh, event, 0)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.pid, b.pid)


class TestRemoval:
    def test_full_removal_in_region(self):
        spec = uniform_spec()
        mesh = Mesh(spec.cells)
        p = initialize(spec, mesh)
        event = RemovalEvent(step=0, region=Region(0, 8, 0, 16))
        mask = ev.removal_mask(event, mesh, p)
        assert mask.sum() == np.sum(p.cell_columns(mesh) < 8)

    def test_fractional_removal_decomposition_independent(self):
        spec = uniform_spec(n_particles=2000)
        mesh = Mesh(spec.cells)
        p = initialize(spec, mesh)
        event = RemovalEvent(step=0, region=Region(0, 16, 0, 16), fraction=0.5)
        mask_full = ev.removal_mask(event, mesh, p)
        # Split particles arbitrarily in two halves: the same ids must be chosen.
        left = p.select(np.arange(len(p)) < 1000)
        right = p.select(np.arange(len(p)) >= 1000)
        got = set()
        for part in (left, right):
            m = ev.removal_mask(event, mesh, part)
            got.update(part.pid[m].tolist())
        assert got == set(p.pid[mask_full].tolist())

    def test_fraction_roughly_respected(self):
        spec = uniform_spec(n_particles=5000)
        mesh = Mesh(spec.cells)
        p = initialize(spec, mesh)
        event = RemovalEvent(step=0, region=Region(0, 16, 0, 16), fraction=0.3)
        frac = ev.removal_mask(event, mesh, p).mean()
        assert 0.2 < frac < 0.4


class TestApplyEventsLocally:
    def test_injection_updates_population_and_ids(self):
        event = InjectionEvent(step=4, region=Region(0, 4, 0, 4), count=25)
        spec = uniform_spec(events=(event,))
        mesh = Mesh(spec.cells)
        p = initialize(spec, mesh)
        p2, outcome = ev.apply_events_locally(spec, mesh, p, step=4)
        assert len(p2) == 225
        assert outcome.added == 25
        assert outcome.added_ids_sum == sum(range(201, 226))

    def test_no_event_at_other_steps(self):
        event = InjectionEvent(step=4, region=Region(0, 4, 0, 4), count=25)
        spec = uniform_spec(events=(event,))
        mesh = Mesh(spec.cells)
        p = initialize(spec, mesh)
        p2, outcome = ev.apply_events_locally(spec, mesh, p, step=3)
        assert len(p2) == 200
        assert outcome.added == outcome.removed == 0

    def test_subdomain_filter(self):
        event = InjectionEvent(step=0, region=Region(0, 16, 0, 16), count=100)
        spec = uniform_spec(events=(event,))
        mesh = Mesh(spec.cells)
        p0 = initialize(spec, mesh).select(np.zeros(200, dtype=bool))  # empty
        keep_left = lambda cx, cy: cx < 8
        p2, outcome = ev.apply_events_locally(
            spec, mesh, p0, step=0, in_subdomain=keep_left
        )
        assert np.all(p2.cell_columns(mesh) < 8)
        assert 0 < len(p2) < 100

    def test_removal_outcome_records_ids(self):
        event = RemovalEvent(step=1, region=Region(0, 16, 0, 16))
        spec = uniform_spec(events=(event,))
        mesh = Mesh(spec.cells)
        p = initialize(spec, mesh)
        p2, outcome = ev.apply_events_locally(spec, mesh, p, step=1)
        assert len(p2) == 0
        assert outcome.removed == 200
        assert outcome.removed_ids_sum == 200 * 201 // 2

    def test_has_events_at(self):
        event = RemovalEvent(step=7, region=Region(0, 2, 0, 2))
        spec = uniform_spec(events=(event,))
        assert ev.has_events_at(spec, 7)
        assert not ev.has_events_at(spec, 6)
