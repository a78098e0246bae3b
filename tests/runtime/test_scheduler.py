"""Tests for the deterministic SPMD scheduler: semantics and timing."""

import tracemalloc

import numpy as np
import pytest

from repro.runtime import (
    DeadlockError,
    MachineModel,
    CostModel,
    MAX,
    SUM,
    Scheduler,
    run_spmd,
)
from repro.runtime.errors import CollectiveMismatchError, RuntimeConfigError


class TestPointToPoint:
    def test_simple_send_recv(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send("payload", dst=1, tag=5)
                return None
            got = yield comm.recv(src=0, tag=5)
            return got

        res = run_spmd(2, prog)
        assert res.returns[1] == "payload"

    def test_ring_exchange(self):
        def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            yield comm.send(comm.rank, dst=right, tag=0)
            got = yield comm.recv(src=left, tag=0)
            return got

        res = run_spmd(5, prog)
        assert res.returns == [4, 0, 1, 2, 3]

    def test_sendrecv_exchange(self):
        def prog(comm):
            partner = 1 - comm.rank
            got = yield comm.sendrecv(comm.rank * 10, dst=partner, src=partner)
            return got

        res = run_spmd(2, prog)
        assert res.returns == [10, 0]

    def test_tag_selectivity(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send("a", dst=1, tag=1)
                yield comm.send("b", dst=1, tag=2)
                return None
            second = yield comm.recv(src=0, tag=2)
            first = yield comm.recv(src=0, tag=1)
            return (first, second)

        res = run_spmd(2, prog)
        assert res.returns[1] == ("a", "b")

    def test_non_overtaking_same_tag(self):
        def prog(comm):
            if comm.rank == 0:
                for i in range(5):
                    yield comm.send(i, dst=1, tag=9)
                return None
            got = []
            for _ in range(5):
                got.append((yield comm.recv(src=0, tag=9)))
            return got

        res = run_spmd(2, prog)
        assert res.returns[1] == [0, 1, 2, 3, 4]

    def test_recv_before_send_blocks_then_completes(self):
        def prog(comm):
            if comm.rank == 1:
                got = yield comm.recv(src=0, tag=0)
                return got
            yield comm.compute(0.01)
            yield comm.send("late", dst=1, tag=0)
            return None

        res = run_spmd(2, prog)
        assert res.returns[1] == "late"
        assert res.times[1] >= 0.01  # receiver waited for the sender

    @pytest.mark.parametrize("peer", [5, -1], ids=["past_end", "negative"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda comm, peer: comm.send("x", dst=peer),
            lambda comm, peer: comm.recv(src=peer),
            lambda comm, peer: comm.sendrecv("x", dst=1 - comm.rank, src=peer),
        ],
        ids=["send", "recv", "sendrecv"],
    )
    def test_peer_out_of_range(self, call, peer):
        def prog(comm):
            yield call(comm, peer)

        with pytest.raises(ValueError, match="out of range"):
            run_spmd(2, prog)


class TestDeadlock:
    def test_recv_without_send_deadlocks(self):
        def prog(comm):
            yield comm.recv(src=(comm.rank + 1) % comm.size, tag=0)

        with pytest.raises(DeadlockError, match="recv"):
            run_spmd(2, prog)

    def test_mismatched_collective_participation_deadlocks(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.barrier()
            return None

        with pytest.raises(DeadlockError, match="collective"):
            run_spmd(2, prog)

    def test_wrong_tag_deadlocks(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send("x", dst=1, tag=1)
                return None
            yield comm.recv(src=0, tag=2)

        with pytest.raises(DeadlockError):
            run_spmd(2, prog)


class TestCollectives:
    def test_barrier_synchronizes_clocks(self):
        def prog(comm):
            yield comm.compute(0.001 * (comm.rank + 1))
            yield comm.barrier()
            return comm.wtime()

        res = run_spmd(4, prog)
        assert len(set(res.returns)) == 1
        assert res.returns[0] >= 0.004

    @pytest.mark.parametrize(
        "op,expect", [(SUM, 10), (MAX, 4)]
    )
    def test_allreduce_ops(self, op, expect):
        def prog(comm):
            got = yield comm.allreduce(comm.rank + 1, op=op)
            return got

        assert run_spmd(4, prog).returns == [expect] * 4

    def test_allreduce_numpy_arrays(self):
        def prog(comm):
            got = yield comm.allreduce(np.full(3, comm.rank, dtype=np.int64), op=SUM)
            return got.tolist()

        assert run_spmd(3, prog).returns == [[3, 3, 3]] * 3

    def test_allgather(self):
        def prog(comm):
            got = yield comm.allgather(chr(ord("a") + comm.rank))
            return "".join(got)

        assert run_spmd(3, prog).returns == ["abc"] * 3

    def test_kind_mismatch_detected(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.barrier()
            else:
                yield comm.allreduce(1, op=SUM)

        with pytest.raises(CollectiveMismatchError, match="mixes"):
            run_spmd(2, prog)

    def test_successive_collectives_do_not_mix(self):
        def prog(comm):
            a = yield comm.allreduce(1, op=SUM)
            b = yield comm.allreduce(10, op=SUM)
            return (a, b)

        assert run_spmd(3, prog).returns == [(3, 30)] * 3


class TestSplitAndCart:
    def test_split_groups_by_color(self):
        def prog(comm):
            sub = yield comm.split(color=comm.rank % 2)
            total = yield sub.allreduce(comm.rank, op=SUM)
            return (sub.size, total)

        res = run_spmd(4, prog)
        assert res.returns == [(2, 2), (2, 4), (2, 2), (2, 4)]

    def test_split_with_none_color_opts_out(self):
        def prog(comm):
            sub = yield comm.split(color=None if comm.rank == 0 else 7)
            if sub is None:
                return "out"
            return sub.size

        res = run_spmd(3, prog)
        assert res.returns == ["out", 2, 2]

    def test_split_key_orders_ranks(self):
        def prog(comm):
            sub = yield comm.split(color=0, key=-comm.rank)
            return sub.rank

        res = run_spmd(3, prog)
        assert res.returns == [2, 1, 0]

    def test_cart_coords_and_shift(self):
        def prog(comm):
            cart = yield comm.create_cart((2, 2))
            src, dst = cart.shift(0)
            return (cart.coords, src, dst)

        res = run_spmd(4, prog)
        # row-major: rank = cx * py + cy
        assert res.returns[0] == ((0, 0), 2, 2)
        assert res.returns[3] == ((1, 1), 1, 1)

    def test_cart_bad_dims(self):
        def prog(comm):
            yield comm.create_cart((2, 2))

        with pytest.raises(ValueError, match="dims"):
            run_spmd(3, prog)

    def test_cart_sub_communicators(self):
        def prog(comm):
            cart = yield comm.create_cart((2, 3))
            row = yield cart.sub_x()   # ranks sharing cy, size = px = 2
            col = yield cart.sub_y()   # ranks sharing cx, size = py = 3
            return (row.size, col.size)

        assert run_spmd(6, prog).returns == [(2, 3)] * 6


class TestTiming:
    def test_compute_advances_clock(self):
        def prog(comm):
            yield comm.compute(0.5)
            return comm.wtime()

        res = run_spmd(1, prog)
        assert res.returns[0] == pytest.approx(0.5)
        assert res.total_time == pytest.approx(0.5)

    def test_shared_core_serializes_compute(self):
        """Two ranks pinned to one core cannot overlap compute (AMPI model)."""
        def prog(comm):
            yield comm.compute(1.0)
            return comm.wtime()

        shared = run_spmd(2, prog, rank_to_core=[0, 0])
        assert shared.total_time == pytest.approx(2.0)
        separate = run_spmd(2, prog, rank_to_core=[0, 1])
        assert separate.total_time == pytest.approx(1.0)

    def test_remote_message_slower_than_local(self):
        machine = MachineModel(cores_per_socket=2, sockets_per_node=1)

        def prog(comm):
            if comm.rank == 0:
                yield comm.send(np.zeros(1_000_000), dst=1, tag=0)
                return None
            yield comm.recv(src=0, tag=0)
            return comm.wtime()

        local = run_spmd(2, prog, machine=machine, rank_to_core=[0, 1])
        remote = run_spmd(2, prog, machine=machine, rank_to_core=[0, 2])
        assert remote.returns[1] > local.returns[1]

    def test_message_stats_counted(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(np.zeros(16), dst=1, tag=0)
                return None
            yield comm.recv(src=0, tag=0)
            return None

        res = run_spmd(2, prog)
        assert res.messages_sent == 1
        assert res.bytes_sent == 128

    def test_collective_count(self):
        def prog(comm):
            yield comm.barrier()
            yield comm.allreduce(1, op=SUM)
            return None

        assert run_spmd(3, prog).collectives == 2

    def test_wtime_monotone(self):
        def prog(comm):
            t0 = comm.wtime()
            yield comm.compute(0.001)
            t1 = comm.wtime()
            yield comm.barrier()
            t2 = comm.wtime()
            return t0 <= t1 <= t2

        assert all(run_spmd(3, prog).returns)


class TestSchedulerConfig:
    def test_zero_ranks_rejected(self):
        with pytest.raises(RuntimeConfigError):
            Scheduler(0)

    def test_wrong_program_count(self):
        s = Scheduler(2)
        with pytest.raises(RuntimeConfigError):
            s.run([lambda c: None])

    def test_bad_rank_to_core_length(self):
        with pytest.raises(RuntimeConfigError):
            Scheduler(3, rank_to_core=[0, 1])

    def test_negative_core_rejected(self):
        with pytest.raises(RuntimeConfigError, match="rank 1 .* core -1"):
            Scheduler(3, rank_to_core=[0, -1, 2])

    @staticmethod
    def _move_rank_1(core):
        def remap(values, ctx):
            ctx.set_core(1, core)
            return [None] * len(values)

        def prog(comm):
            yield comm.user_collective(None, remap)
            yield comm.compute(1.0 + comm.rank)

        return prog

    def test_set_core_to_a_negative_core_rejected(self):
        with pytest.raises(RuntimeConfigError, match="rank 1 .* core -1"):
            run_spmd(2, self._move_rank_1(-1), rank_to_core=[0, 2])

    def test_set_core_past_the_initial_cores_adds_them(self):
        sched = Scheduler(2, rank_to_core=[0, 0])
        sched.run([self._move_rank_1(3)] * 2)
        assert sched.rank_to_core == [0, 3]
        assert sched.core_busy == [1.0, 0.0, 0.0, 2.0]
        assert sched.core_clock[1:3] == [0.0, 0.0]

    def test_non_generator_program(self):
        res = run_spmd(2, lambda comm: None)
        assert res.returns == [None, None]

    def test_per_rank_programs(self):
        def a(comm):
            yield comm.send(1, dst=1)
            return "a"

        def b(comm):
            got = yield comm.recv(src=0)
            return got

        res = run_spmd(2, [a, b])
        assert res.returns == ["a", 1]

    def test_determinism(self):
        def prog(comm):
            partner = (comm.rank + 1) % comm.size
            yield comm.send(np.arange(10), dst=partner, tag=0)
            got = yield comm.recv(src=(comm.rank - 1) % comm.size, tag=0)
            t = yield comm.allreduce(comm.wtime(), op=MAX)
            return t

        r1 = run_spmd(8, prog)
        r2 = run_spmd(8, prog)
        assert r1.returns == r2.returns
        assert r1.times == r2.times

    def test_yielding_garbage_raises(self):
        def prog(comm):
            yield "not-an-op"

        with pytest.raises(TypeError, match="not a runtime operation"):
            run_spmd(1, prog)

    def test_cost_model_of_another_machine_keeps_every_rate(self):
        """A cost model bound to another machine is re-bound to the
        scheduler's, every other field kept: byte scales and
        ``pup_bandwidth`` as much as the per-op rates."""
        machine = MachineModel(cores_per_socket=2)
        cost = CostModel(particle_pack_s=3e-8, message_overhead_s=1e-6,
                         particle_byte_scale=2.5, cell_byte_scale=4.0,
                         pup_bandwidth=1e5)
        sched = Scheduler(2, machine=machine, cost=cost)
        assert sched.cost.machine is machine
        assert sched.cost == CostModel(
            machine=machine, particle_pack_s=3e-8, message_overhead_s=1e-6,
            particle_byte_scale=2.5, cell_byte_scale=4.0, pup_bandwidth=1e5)

    def test_migration_is_priced_by_the_given_pup_bandwidth(self):
        """An AMPI run given a slow PUP rate, with or without the machine
        its cost model is bound to, simulates the same migration time."""
        from repro.core.spec import PICSpec
        from repro.parallel import AmpiPIC
        from repro.runtime.executor import InProcessExecutor

        spec = PICSpec(cells=64, n_particles=4000, steps=20, k=1, r=0.9)
        machine = MachineModel()

        def run(**kw):
            return AmpiPIC(spec, 4, executor=InProcessExecutor(),
                           overdecomposition=4, lb_interval=5, **kw).run()

        slow = run(cost=CostModel(pup_bandwidth=1e5))
        bound = run(machine=machine,
                    cost=CostModel(machine=machine, pup_bandwidth=1e5))
        default = run(cost=CostModel())
        assert slow.total_time == bound.total_time
        assert slow.total_time > 100 * default.total_time


class TestWorldCommunicator:
    @staticmethod
    def _bytes_per_rank(n_ranks):
        sched = Scheduler(n_ranks)
        tracemalloc.start()
        try:
            comms = [sched.make_world(r) for r in range(n_ranks)]
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(comms) == n_ranks
        return held / n_ranks

    def test_world_comms_cost_constant_bytes_per_rank(self):
        """A rank list per world Comm would make P ranks hold P^2 ints
        (4.7x per rank from 1 024 to 4 096 ranks); shared, it stays flat."""
        small, large = self._bytes_per_rank(1024), self._bytes_per_rank(4096)
        assert large < 1.5 * small, (small, large)


class TestDefaultedExecutor:
    def test_clean_run_follows_rank_failure(self, monkeypatch):
        """The error path's ``Scheduler.close()`` closes the process-wide
        default executor; its pool must restart for the next run."""
        import repro.runtime.executor as executor_module
        from repro.core.spec import PICSpec
        from repro.parallel import Mpi2dPIC
        from repro.resilience import CrashFault, FaultPlan, ResilienceConfig
        from repro.runtime.errors import RankFailedError

        spec = PICSpec(cells=16, n_particles=400, steps=6)
        pool = executor_module.make_executor("process", workers=2)
        monkeypatch.setattr(executor_module, "_DEFAULT", pool)
        crash = ResilienceConfig(
            plan=FaultPlan(faults=(CrashFault(rank=1, step=3, retries=1),))
        )
        try:
            with pytest.raises(RankFailedError):
                Mpi2dPIC(spec, 4, resilience=crash).run()
            assert pool._procs == []
            before = pool.stats()["batches"]
            assert Mpi2dPIC(spec, 4).run().verification.ok
            assert pool.stats()["batches"] > before  # ran on the same pool
        finally:
            pool.close()
