"""Failure injection: the self-verification must catch induced bugs.

The PRK's value as a benchmark rests on §III-D's claim that verification is
"sensitive enough to reveal any relevant implementation or runtime error,
even as minor as a single particle miscalculation in a single time step".
These tests *inject* such errors into the parallel machinery and assert the
run fails verification — guarding against the verification itself rotting
into a rubber stamp.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.parallel.base as base_mod
from repro.core.spec import Distribution, PICSpec
from repro.parallel import Mpi2dPIC
from repro.parallel.base import exchange_particles as real_exchange


def spec():
    return PICSpec(
        cells=32, n_particles=400, steps=10, distribution=Distribution.UNIFORM
    )


@pytest.fixture()
def restore_exchange():
    yield
    base_mod.exchange_particles = real_exchange


class TestInjectedFaultsAreDetected:
    def test_clean_run_passes(self):
        assert Mpi2dPIC(spec(), 4).run().verification.ok

    def test_dropped_particle_fails_checksum(self, restore_exchange):
        state = {"dropped": False}

        def dropping_exchange(comm, cart, partition, mesh, particles, cost,
                              scratch=None, **kw):
            result = yield from real_exchange(
                comm, cart, partition, mesh, particles, cost, scratch, **kw
            )
            if not state["dropped"] and cart.rank == 0 and len(result) > 0:
                state["dropped"] = True
                result = result.select(np.arange(len(result)) != 0)
            return result

        base_mod.exchange_particles = dropping_exchange
        res = Mpi2dPIC(spec(), 4).run()
        assert not res.verification.checksum_ok
        assert not res.verification.ok

    def test_duplicated_particle_fails_checksum(self, restore_exchange):
        state = {"done": False}

        def duplicating_exchange(comm, cart, partition, mesh, particles, cost,
                                 scratch=None, **kw):
            result = yield from real_exchange(
                comm, cart, partition, mesh, particles, cost, scratch, **kw
            )
            if not state["done"] and cart.rank == 1 and len(result) > 0:
                state["done"] = True
                result = result.append(result.select(np.array([0])))
            return result

        base_mod.exchange_particles = duplicating_exchange
        res = Mpi2dPIC(spec(), 4).run()
        assert not res.verification.checksum_ok

    def test_single_step_position_corruption_fails(self, restore_exchange):
        """Mimic one force miscalculation on one rank in one step."""
        state = {"done": False}

        def corrupting_exchange(comm, cart, partition, mesh, particles, cost,
                                scratch=None, **kw):
            result = yield from real_exchange(
                comm, cart, partition, mesh, particles, cost, scratch, **kw
            )
            if not state["done"] and cart.rank == 2 and len(result) > 0:
                state["done"] = True
                result.x[0] = (result.x[0] + 0.125) % mesh.L
            return result

        base_mod.exchange_particles = corrupting_exchange
        res = Mpi2dPIC(spec(), 4).run()
        assert not res.verification.positions_ok
        assert res.verification.checksum_ok  # nothing lost, "just" wrong

    def test_velocity_corruption_compounds_and_fails(self, restore_exchange):
        """A corrupted velocity derails every subsequent step."""
        state = {"done": False}

        def corrupting_exchange(comm, cart, partition, mesh, particles, cost,
                                scratch=None, **kw):
            result = yield from real_exchange(
                comm, cart, partition, mesh, particles, cost, scratch, **kw
            )
            if not state["done"] and cart.rank == 0 and len(result) > 0:
                state["done"] = True
                result.vx[0] += 0.25
            return result

        base_mod.exchange_particles = corrupting_exchange
        res = Mpi2dPIC(spec(), 4).run()
        assert not res.verification.positions_ok
