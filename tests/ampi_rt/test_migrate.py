"""Tests for the migrate() collective and PUP sizing."""

import pytest

from repro.ampi.loadbalancer import GreedyLB, NullLB
from repro.ampi.pup import BYTES_PER_CELL, VP_FIXED_BYTES, vp_state_bytes
from repro.ampi.runtime import MigrationReport, migrate
from repro.core.particles import ParticleArray
from repro.runtime import run_spmd
from repro.runtime.scheduler import Scheduler


class TestPup:
    def test_state_bytes_composition(self):
        p = ParticleArray.empty(10)
        assert vp_state_bytes(p, 100) == VP_FIXED_BYTES + 10 * 88 + 100 * BYTES_PER_CELL

    def test_negative_cells_rejected(self):
        with pytest.raises(ValueError):
            vp_state_bytes(ParticleArray.empty(0), -1)


class TestMigrateCollective:
    def test_null_strategy_reports_no_moves(self):
        def prog(comm):
            report = yield from migrate(comm, 1.0, 1000, NullLB(), n_cores=2)
            return (report.migrated, comm.core())

        res = run_spmd(4, prog, rank_to_core=[0, 0, 1, 1])
        assert [r[0] for r in res.returns] == [0, 0, 0, 0]
        assert [r[1] for r in res.returns] == [0, 0, 1, 1]

    def test_greedy_rebalances_cores(self):
        """All VPs start on core 0; GreedyLB spreads them over both cores."""
        def prog(comm):
            load = 10.0 if comm.rank < 2 else 1.0
            report = yield from migrate(comm, load, 1000, GreedyLB(), n_cores=2)
            return (report.migrated, comm.core())

        res = run_spmd(4, prog, rank_to_core=[0, 0, 0, 0])
        cores = [r[1] for r in res.returns]
        assert sorted(cores) == [0, 0, 1, 1]
        # The two heavy VPs are separated.
        assert cores[0] != cores[1]
        # Every VP saw the same report.
        assert len({r[0] for r in res.returns}) == 1

    def test_migration_charges_time(self):
        """A migrating round costs more simulated time than a no-op round."""
        def make(strategy):
            def prog(comm):
                load = 10.0 if comm.rank == 0 else 1.0
                yield from migrate(comm, load, 10_000_000, strategy, n_cores=2)
                return comm.wtime()

            return prog

        moved = run_spmd(2, make(GreedyLB()), rank_to_core=[0, 0])
        still = run_spmd(2, make(NullLB()), rank_to_core=[0, 0])
        assert max(moved.returns) > max(still.returns)

    def test_report_moved_bytes(self):
        def prog(comm):
            report = yield from migrate(comm, float(comm.rank), 5000, GreedyLB(), n_cores=2)
            return report

        res = run_spmd(2, prog, rank_to_core=[0, 0])
        report: MigrationReport = res.returns[0]
        assert report.migrated > 0
        assert report.moved_bytes == 5000 * report.migrated

    def test_compute_serializes_after_migration(self):
        """After spreading over two cores, compute overlaps again."""
        def prog(comm):
            yield comm.compute(1.0)
            yield from migrate(comm, 1.0, 100, GreedyLB(), n_cores=2)
            yield comm.compute(1.0)
            yield comm.barrier()
            return comm.wtime()

        res = run_spmd(2, prog, rank_to_core=[0, 0])
        # Phase 1 serialized (2s); phase 2 parallel (1s) plus small overheads.
        assert 3.0 <= res.total_time < 3.1
