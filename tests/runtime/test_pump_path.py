"""The scheduler's per-op path: its call budget, its link table, its parking.

Every simulated op passes through ``Scheduler._advance_one`` ->
``_dispatch``; on small ranks that path, not the particle work, is the
rank-step's wall clock.  These tests pin what it costs (a call count, so
it repeats exactly on any host) and that its shortcuts — message prices
read from a per-core-pair table, ``sendrecv`` matching without a
``RecvOp`` — give the answers the long way gave.  A settled step skips the
per-op path altogether: the scheduler closes it, exchange round and
settlement allreduce, in one op per rank (``Scheduler._close_step``).  The
per-op budget is measured with no wave formed, and two more price a whole
rank-step with every step closed: one rank per core, and AMPI's virtual
ranks sharing cores.
"""

from __future__ import annotations

import gc
import itertools
import sys
from unittest import mock

import numpy as np
import pytest

from repro.ampi.runtime import migrate
from repro.config.build import build_impl
from repro.config.runspec import RunSpec
from repro.runtime import CostModel, DeadlockError, MachineModel, Scheduler, run_spmd
from repro.runtime.executor import InProcessExecutor, make_executor
from repro.runtime.machine import Tier

#: Python-level calls (``call`` + ``c_call`` profile events) per scheduler
#: op on :data:`BUDGET_SPEC` with every exchange round on the per-op path.
#: On Python 3.11.7 it reads 33.6 (16 ranks x 40 particles x 10 steps,
#: 1 374 ops; no wave formed, so every round is the per-rank one, packing
#: included; 26.1 when settled rounds were replayed from their counts);
#: it was 49.8 before the per-core-pair link table, ~48 on the pump_heavy
#: shape.
#: Raise it only with a measurement that says why.
CALLS_PER_OP_BUDGET = 40.0

#: Python-level calls per rank-step (ranks x steps) of :data:`BUDGET_SPEC`
#: as it runs: every settled step closed in one op per rank, 256 ops on the
#: per-op path.  On Python 3.11.7 it reads 75.7 (12 117 calls over 160
#: rank-steps), so 92 leaves ~20 % headroom.  A change that trips it added
#: calls to every rank-step or sent settled steps back per op.
CALLS_PER_RANK_STEP_BUDGET = 92.0

BUDGET_SPEC = {
    "workload": {"cells": 32, "n_particles": 16 * 40, "steps": 10, "seed": 7},
    "impl": {"name": "mpi-2d", "cores": 16},
}

#: Python-level calls per VP-step (virtual ranks x steps) of
#: :data:`AMPI_BUDGET_SPEC`, :data:`BUDGET_SPEC`'s workload as ``ampi`` on 4
#: cores with 4 virtual ranks each, as it runs: settled rounds on shared
#: cores clocked by the replay and every settled step closed, 256 ops on
#: the per-op path.  On Python 3.11.7 it reads 93.1 (14 899 calls over 160
#: VP-steps; 227.8 and 1 374 ops with every round per op), so 113 leaves
#: ~20 % headroom and a silent fallback to the pump fails it without a
#: wall clock.
CALLS_PER_VP_STEP_BUDGET = 113.0

AMPI_BUDGET_SPEC = {
    "workload": BUDGET_SPEC["workload"],
    "impl": {"name": "ampi", "cores": 4, "overdecomposition": 4},
}


def _calls_per_op(rs: RunSpec) -> tuple[int, int]:
    """``(calls, ops)`` of one engine run of ``rs``, counted by a profile hook.

    The executor is built here, not from the environment, so every CI leg
    counts the same in-process path (and settles the same waves).
    """
    executor = make_executor("serial", kernel_backend="python")
    engine = build_impl(rs, executor=executor).build_engine()
    advance = Scheduler._advance_one.__code__
    counts = [0, 0]

    def hook(frame, event, arg):
        if event == "call":
            counts[0] += 1
            if frame.f_code is advance:
                counts[1] += 1
        elif event == "c_call":
            counts[0] += 1

    gc.disable()
    sys.setprofile(hook)
    try:
        engine.run()
    finally:
        sys.setprofile(None)
        gc.enable()
        executor.close()
    return counts[0], counts[1]


class TestCallBudget:
    def test_scheduler_op_stays_within_its_call_budget(self):
        rs = RunSpec.from_dict(BUDGET_SPEC)
        # Every round on the per-op path: no wave forms, no step is closed.
        with mock.patch.object(InProcessExecutor, "_settle", lambda *a: False):
            _calls_per_op(rs)  # warm: first-use imports and buffers are not the pump
            calls, ops = _calls_per_op(rs)
        assert ops > 1000  # the run really drove the pump
        assert calls / ops <= CALLS_PER_OP_BUDGET, (calls, ops, calls / ops)

    def test_rank_step_stays_within_its_call_budget(self):
        rs = RunSpec.from_dict(BUDGET_SPEC)
        _calls_per_op(rs)  # warm
        calls, ops = _calls_per_op(rs)
        rank_steps = rs.impl.cores * rs.workload.steps
        assert ops < 300  # settled steps closed in one op (1 374 without the wave)
        assert calls / rank_steps <= CALLS_PER_RANK_STEP_BUDGET, (
            calls, rank_steps, calls / rank_steps)

    def test_ampi_vp_step_stays_within_its_call_budget(self):
        """The twin on shared cores: 16 virtual ranks on 4 cores."""
        rs = RunSpec.from_dict(AMPI_BUDGET_SPEC)
        _calls_per_op(rs)  # warm
        calls, ops = _calls_per_op(rs)
        vp_steps = rs.impl.cores * rs.impl.overdecomposition * rs.workload.steps
        assert ops < 300  # settled steps closed in one op (1 374 without the wave)
        assert calls / vp_steps <= CALLS_PER_VP_STEP_BUDGET, (
            calls, vp_steps, calls / vp_steps)


#: Two nodes x two sockets x two cores: every tier appears among its pairs.
SMALL_CLUSTER = MachineModel(cores_per_socket=2, sockets_per_node=2)
SIZES = (0, 1, 8, 176, 4096, 10**6 + 3)


class TestLinkTable:
    def test_link_prices_like_message_time_for_every_core_pair(self):
        cost = CostModel(machine=SMALL_CLUSTER)
        tiers = set()
        for a, b in itertools.product(range(8), repeat=2):
            link = SMALL_CLUSTER.link(a, b)
            tiers.add(SMALL_CLUSTER.tier_between(a, b))
            for n in SIZES:
                assert link.transfer_time(n).hex() == cost.message_time(a, b, n).hex()
        assert tiers == set(Tier)

    def test_scheduler_table_holds_each_pairs_link(self):
        """Every rank sends to every rank, itself included: the table the
        sends filled prices each pair bit for bit like ``message_time``."""
        cost = CostModel(machine=SMALL_CLUSTER)
        sched = Scheduler(8, machine=SMALL_CLUSTER, cost=cost)

        def prog(comm):
            for dst in range(comm.size):
                yield comm.send(comm.rank, dst=dst, tag=0)
            for src in range(comm.size):
                yield comm.recv(src=src, tag=0)

        sched.run([prog] * 8)
        assert set(sched._links) == set(itertools.product(range(8), repeat=2))
        for (a, b), link in sched._links.items():
            for n in SIZES:
                assert link.transfer_time(n).hex() == cost.message_time(a, b, n).hex()

    def test_message_after_migration_is_priced_on_the_new_core_pair(self):
        """Rank 1 sends from core 1 (same socket as rank 0), migrates to
        core 6 (the other node) and sends again: the second message must
        pay the network link, not the cached socket one."""
        cost = CostModel(machine=SMALL_CLUSTER)
        oh_send, oh_recv = cost.send_overhead(), cost.recv_overhead()
        payload = np.zeros(4096)

        class MoveRank1:
            def rebalance(self, loads, mapping, n_cores, topology=None):
                return [mapping[0], 6]

        def prog(comm):
            if comm.rank == 1:
                yield comm.send(payload, dst=0, tag=0)
            else:
                yield comm.recv(src=1, tag=0)
            yield from migrate(comm, 1.0, 64, MoveRank1(), n_cores=8)
            if comm.rank == 1:
                t_send = comm.wtime()
                yield comm.send(payload, dst=0, tag=1)
                return t_send, comm.core()
            yield comm.recv(src=1, tag=1)
            return comm.wtime(), comm.core()

        res = run_spmd(2, prog, machine=SMALL_CLUSTER, cost=cost)
        (t_recv, core0), (t_send, core1) = res.returns
        assert (core0, core1) == (0, 6)
        wire = cost.message_time(6, 0, payload.nbytes)
        assert wire != cost.message_time(1, 0, payload.nbytes)
        assert t_recv == t_send + oh_send + wire + oh_recv


class TestSendrecvParking:
    def test_unmatched_sendrecv_reports_the_parked_receive(self):
        def prog(comm):
            partner = 1 - comm.rank
            yield comm.sendrecv("x", dst=partner, src=partner, sendtag=1, recvtag=2)

        with pytest.raises(DeadlockError) as info:
            run_spmd(2, prog)
        assert str(info.value) == (
            "no rank can make progress; blocked ranks: [0, 1]\n"
            "  rank 0: parked on recv(src=1, tag=2, comm=0)\n"
            "  rank 1: parked on recv(src=0, tag=2, comm=0)\n"
            "pending messages:\n"
            "  dst=0 <- Message(comm=0, src=1, tag=1, bytes=8, t=1.301e-06)\n"
            "  dst=1 <- Message(comm=0, src=0, tag=1, bytes=8, t=1.301e-06)"
        )
        assert info.value.blocked_ranks == [0, 1]

    def test_unmatched_sendrecv_on_a_subcommunicator(self):
        """Ranks 1 and 2 park inside a sendrecv on a split communicator;
        rank 0 finishes.  The report names the sub-communicator's local
        source rank and id."""
        def prog(comm):
            sub = yield comm.split(color=None if comm.rank == 0 else 1)
            if sub is None:
                return None
            partner = 1 - sub.rank
            yield sub.sendrecv("x", dst=partner, src=partner, sendtag=3, recvtag=4)

        with pytest.raises(DeadlockError) as info:
            run_spmd(3, prog)
        text = str(info.value)
        assert "blocked ranks: [1, 2]\n" in text
        assert "  rank 1: parked on recv(src=1, tag=4, comm=1)\n" in text
        assert "  rank 2: parked on recv(src=0, tag=4, comm=1)\n" in text
        assert info.value.blocked_ranks == [1, 2]
