"""Property-based tests (hypothesis) on the core invariants.

These encode the guarantees the paper's design rests on:

* any valid spec self-verifies after a serial run (the §III-C/D contract);
* the verification *detects* any corruption (sensitivity);
* parallel runs are bitwise equivalent to serial ones;
* apportionment, partitions and load-balancing strategies keep their
  structural invariants for arbitrary inputs.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.ampi.loadbalancer import GreedyLB, GreedyTransferLB, RefineLB
from repro.core.initialization import initialize, integer_counts
from repro.core.mesh import Mesh
from repro.core.particles import ParticleArray
from repro.core.simulation import SerialSimulation, run_serial
from repro.core.spec import Distribution, PICSpec
from repro.core.verification import position_errors
from repro.decomp.partition import BlockPartition, even_splits
from repro.parallel import Mpi2dPIC
from repro.parallel.diffusion import diffuse_splits
from repro.runtime.machine import MachineModel


# ----------------------------------------------------------------------
# Spec strategies
# ----------------------------------------------------------------------
def spec_strategy():
    return st.builds(
        PICSpec,
        cells=st.integers(4, 32).map(lambda c: c * 2),
        n_particles=st.integers(0, 300),
        steps=st.integers(1, 15),
        k=st.integers(0, 2),
        m_vertical=st.integers(0, 2),
        distribution=st.sampled_from(
            [Distribution.GEOMETRIC, Distribution.SINUSOIDAL, Distribution.UNIFORM]
        ),
        r=st.floats(0.5, 1.5, allow_nan=False),
        seed=st.integers(0, 2**16),
    )


class TestSerialSelfVerification:
    @settings(max_examples=30, deadline=None)
    @given(spec=spec_strategy())
    def test_any_valid_spec_verifies(self, spec):
        result = run_serial(spec)
        assert result.verification.ok, str(result.verification)

    @settings(max_examples=15, deadline=None)
    @given(
        spec=spec_strategy().filter(lambda s: s.n_particles > 0),
        victim=st.integers(0, 10**6),
        dx=st.floats(0.01, 0.49, allow_nan=False),
    )
    def test_verification_detects_any_position_corruption(self, spec, victim, dx):
        """Corrupting a single particle by a sub-cell offset is detected."""
        sim = SerialSimulation(spec)
        mesh = sim.mesh
        p = sim.run().particles
        idx = victim % len(p)
        p.x[idx] = (p.x[idx] + dx * spec.h) % mesh.L
        errors = position_errors(mesh, p, spec.steps, sim.origins)
        assert errors[idx] > 1e-5

    @settings(max_examples=15, deadline=None)
    @given(
        spec=spec_strategy().filter(lambda s: s.n_particles > 1),
        victim=st.integers(0, 10**6),
    )
    def test_checksum_detects_any_lost_particle(self, spec, victim):
        result = run_serial(spec)
        p = result.particles
        idx = victim % len(p)
        survivors = p.select(np.arange(len(p)) != idx)
        assert survivors.id_checksum() != result.verification.expected_checksum


class TestParallelEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(
        spec=spec_strategy().filter(lambda s: 0 < s.n_particles),
        cores=st.sampled_from([2, 3, 4, 6]),
    )
    def test_parallel_positions_bitwise_match_serial(self, spec, cores):
        serial = run_serial(spec)
        par = Mpi2dPIC(spec, cores).run()
        assert par.verification.ok
        assert par.verification.n_particles == len(serial.particles)
        assert par.verification.id_checksum == serial.particles.id_checksum()


class TestApportionment:
    @settings(max_examples=50, deadline=None)
    @given(
        weights=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=50).filter(
            lambda w: sum(w) > 0
        ),
        n=st.integers(0, 10_000),
    )
    def test_integer_counts_sum_exactly(self, weights, n):
        counts = integer_counts(np.array(weights), n)
        assert counts.sum() == n
        assert np.all(counts >= 0)

    @settings(max_examples=50, deadline=None)
    @given(
        weights=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=50),
        n=st.integers(1, 10_000),
    )
    def test_integer_counts_within_one_of_ideal(self, weights, n):
        w = np.array(weights)
        counts = integer_counts(w, n)
        ideal = w / w.sum() * n
        assert np.all(np.abs(counts - ideal) < 1.0 + 1e-9)


class TestPartitionInvariants:
    @settings(max_examples=50, deadline=None)
    @given(
        cells=st.integers(4, 200),
        px=st.integers(1, 16),
        py=st.integers(1, 16),
    )
    def test_uniform_partition_covers_domain(self, cells, px, py):
        if px > cells or py > cells:
            return
        part = BlockPartition.uniform(cells, px, py)
        cols = np.arange(cells)
        owners = part.x_owner(cols)
        assert owners.min() == 0 and owners.max() == px - 1
        assert np.all(np.diff(owners) >= 0)  # contiguous blocks
        widths = np.bincount(owners, minlength=px)
        assert widths.max() - widths.min() <= 1

    @settings(max_examples=50, deadline=None)
    @given(
        cells=st.integers(8, 100),
        parts=st.integers(1, 8),
        loads=st.lists(st.floats(0, 1000), min_size=1, max_size=8),
        width=st.integers(1, 5),
        threshold=st.floats(0, 100),
    )
    def test_diffusion_preserves_partition_invariants(
        self, cells, parts, loads, width, threshold
    ):
        parts = min(parts, len(loads), cells)
        loads = np.array(loads[:parts])
        splits = even_splits(cells, parts)
        new = diffuse_splits(loads, splits, threshold, width)
        assert new[0] == 0 and new[-1] == cells
        assert np.all(np.diff(new) >= 1)  # no empty blocks, monotone


class TestLoadBalancerInvariants:
    @settings(max_examples=40, deadline=None)
    @given(
        loads=st.lists(st.floats(0, 100), min_size=1, max_size=64),
        n_cores=st.integers(1, 8),
        seed=st.integers(0, 1000),
        strategy=st.sampled_from([GreedyLB(), GreedyTransferLB(), RefineLB()]),
    )
    # GreedyLB is LPT list scheduling: it ignores the incoming mapping and
    # can land one unit above a perfectly balanced one (130 vs 129 here).
    @example(
        loads=[0, 0, 73, 0, 0, 0, 2, 55, 72, 56], n_cores=2, seed=0,
        strategy=GreedyLB(),
    )
    def test_rebalance_valid_and_not_worse(self, loads, n_cores, seed, strategy):
        rng = np.random.default_rng(seed)
        mapping = rng.integers(0, n_cores, size=len(loads)).tolist()
        new = strategy.rebalance(loads, mapping, n_cores)
        assert len(new) == len(loads)
        assert all(0 <= c < n_cores for c in new)

        def peak(m):
            out = [0.0] * n_cores
            for vp, core in enumerate(m):
                out[core] += loads[vp]
            return max(out)

        if isinstance(strategy, GreedyLB):
            # Full reassignment owes nothing to the incoming mapping; what
            # list scheduling guarantees is Graham's bound.  (The LPT ratio
            # 4/3 - 1/(3m) is relative to the *optimum*, which
            # max(mean, max load) only bounds from below: loads [5, 5, 5] on
            # two cores have optimum 10 > 7/6 * 7.5.)
            bound = sum(loads) / n_cores + (1 - 1 / n_cores) * max(loads)
        else:
            bound = peak(mapping)
        assert peak(new) <= bound + 1e-9


class TestPackingRoundtrip:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(0, 50),
        seed=st.integers(0, 2**16),
    )
    def test_pack_roundtrip_bitwise(self, n, seed):
        rng = np.random.default_rng(seed)
        p = ParticleArray.empty(n)
        for name in ("x", "y", "vx", "vy", "q"):
            getattr(p, name)[:] = rng.uniform(-1e6, 1e6, size=n)
        p.pid[:] = rng.integers(-(2**40), 2**40, size=n)
        q = ParticleArray.from_packed(p.pack())
        for name in ("x", "y", "vx", "vy", "q", "pid"):
            np.testing.assert_array_equal(getattr(p, name), getattr(q, name))


class TestMachineInvariants:
    @settings(max_examples=50, deadline=None)
    @given(
        a=st.integers(0, 500),
        b=st.integers(0, 500),
        cps=st.integers(1, 16),
        spn=st.integers(1, 4),
    )
    def test_tier_symmetric_and_monotone_costs(self, a, b, cps, spn):
        m = MachineModel(cores_per_socket=cps, sockets_per_node=spn)
        assert m.tier_between(a, b) is m.tier_between(b, a)
        n = 4096
        t = m.transfer_time(a, b, n)
        assert t >= m.costs(m.tier_between(a, b)).latency


class TestInitializationInvariants:
    @settings(max_examples=25, deadline=None)
    @given(spec=spec_strategy())
    def test_initial_population_structure(self, spec):
        mesh = Mesh(spec.cells, spec.h, spec.q)
        p = initialize(spec, mesh)
        assert len(p) == spec.n_particles
        if len(p):
            # All on cell centres, ids 1..n, charges sign-matched to column.
            assert np.all((p.x / spec.h - np.floor(p.x / spec.h)) == 0.5)
            assert sorted(p.pid.tolist()) == list(range(1, spec.n_particles + 1))
            signs = np.where(p.cell_columns(mesh) % 2 == 0, 1.0, -1.0)
            assert np.all(np.sign(p.q) == signs)
