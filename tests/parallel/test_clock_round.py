"""A settled wave's first exchange round, clocked for every member at once.

When ``InProcessExecutor`` settled a closed group holding every unfinished
rank (``exchange_wave``), ``Scheduler._flush_compute`` advances all members
through the round's op template in one pass
(``Scheduler._clock_round``); woken, each member adopts its
rows and goes straight to the settlement allreduce.  Members with a core
each are clocked with numpy; members that share cores (AMPI's virtual
ranks) by a replay of the pump's round-robin on member indices.  The per-op
pump stays the oracle:

* **Properties** — a run with the bulk clocking and the same run with it
  out of reach agree bit for bit on every rank clock, core clock, core and
  rank busy second, the transport's counters, the result document and
  the final particle bytes.  One core per rank: over ``px``/``py`` in {1,
  2, 3, 5}, empty members, y leavers and multi-hop moves, ``h != 1``, a
  machine whose messages cross every link tier and free messages with a
  fractional byte scale.  Shared cores: AMPI over ``d`` in 2..8 and 1-6
  cores, VP grids one or two ranks wide (at two, both of a hop's sources
  are one rank and only the tag tells its buffers apart), tiny
  populations (empty VPs, hops with no pack op), the same machines and
  message prices, and GreedyLB migrations that mix VPs across cores.
  Grids below ``WAVE_MIN_MEMBERS`` ranks lower the cut-over so small
  rounds are drawn too.
* **Where it runs** — a 64-rank ``mpi-2d`` run and a 32-core ``ampi`` run
  with two VPs per core, with no observer, clock every step in bulk: no
  ``_route_axis`` call, no ``SendrecvOp`` dispatched.  A tracer or a
  metrics registry keeps the per-op pump, with the same numbers.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.config.build import parallel_result_doc
from repro.core.kernel import WAVE_MIN_MEMBERS
from repro.core.spec import PICSpec
from repro.instrument import MetricsRegistry, Tracer
from repro.parallel import AmpiPIC, Mpi2dPIC, base
from repro.runtime import CostModel, MachineModel, ops
from repro.runtime import exchange as exchange_mod
from repro.runtime import executor as executor_mod
from repro.runtime.exchange import SettledWave
from repro.runtime.executor import InProcessExecutor
from repro.runtime.scheduler import Scheduler

#: Two nodes x two sockets x two cores: a grid's messages cross every tier.
SMALL_CLUSTER = MachineModel(cores_per_socket=2, sockets_per_node=2)

_VERIFY = base.ParallelPICBase._verify


def _run(build, *, lockstep=True):
    """Everything a run leaves behind, and what each ``_clock_round`` call
    returned (True: clocked in bulk).  ``lockstep=False`` puts the bulk
    clocking out of reach."""
    finals = {}
    clocked = []
    real = Scheduler._clock_round

    def verify(self, comm, state):
        finals[comm.world_rank] = state.particles.pack().tobytes()
        return (yield from _VERIFY(self, comm, state))

    def counting(self, wave):
        done = lockstep and real(self, wave)
        clocked.append(done)
        return done

    with mock.patch.object(base.ParallelPICBase, "_verify", verify), \
            mock.patch.object(Scheduler, "_clock_round", counting):
        engine = build().build_engine()
        res = engine.run()
    assert res.verification.ok
    sched = engine.scheduler
    state = {
        "clock": [t.hex() for t in sched.clock],
        "core_clock": [t.hex() for t in sched.core_clock],
        "core_busy": [t.hex() for t in sched.core_busy],
        "rank_busy": [t.hex() for t in sched.rank_busy],
        "traffic": (sched.transport.messages_sent, sched.transport.bytes_sent,
                    sched.transport._seq, sched.collectives_completed),
        "result": parallel_result_doc(res),
        "finals": finals,
    }
    return state, clocked


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    px=st.sampled_from([1, 2, 3, 5]),
    py=st.sampled_from([1, 2, 3, 5]),
    cells=st.sampled_from([20, 30]),
    n_particles=st.sampled_from([3, 40, 900]),
    k=st.sampled_from([0, 4]),
    m_vertical=st.sampled_from([0, 1, 3]),
    h=st.sampled_from([1.0, 0.73]),
    small_cluster=st.booleans(),
    free_messages=st.booleans(),
)
def test_clocked_rounds_equal_the_per_op_pump(seed, px, py, cells, n_particles,
                                              k, m_vertical, h, small_cluster,
                                              free_messages):
    assume(px * py >= 2)
    spec = PICSpec(cells=cells, n_particles=n_particles, steps=3, k=k,
                   m_vertical=m_vertical, h=h, seed=seed)
    machine = SMALL_CLUSTER if small_cluster else MachineModel()
    # fig7 prices particle bytes 27.78 times over; free messages leave the
    # pack computes as the only occupations of a round.  Built without the
    # run's machine, the model is re-bound by the scheduler, which keeps
    # every rate, the byte scale too: the bulk clocking prices with the
    # scheduler's model what the exchange prices with the driver's.
    cost = (CostModel(message_overhead_s=0.0, particle_byte_scale=27.78)
            if free_messages else CostModel(machine=machine))

    def build():
        return Mpi2dPIC(spec, px * py, machine=machine, cost=cost, dims=(px, py),
                        executor=InProcessExecutor())

    with mock.patch.object(executor_mod, "WAVE_MIN_MEMBERS",
                           min(WAVE_MIN_MEMBERS, px * py)):
        bulk, clocked = _run(build)
        pump, none = _run(build, lockstep=False)
    assert clocked and not any(none)
    assert any(clocked)
    assert bulk == pump


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_cores=st.integers(1, 6),
    d=st.integers(2, 8),
    grid=st.sampled_from(["row", "column", "two rows", "two columns"]),
    n_particles=st.sampled_from([3, 30, 400]),
    k=st.sampled_from([0, 2]),
    m_vertical=st.sampled_from([0, 1]),
    lb_interval=st.integers(1, 3),
    small_cluster=st.booleans(),
    free_messages=st.booleans(),
)
def test_shared_core_rounds_equal_the_per_op_pump(seed, n_cores, d, grid,
                                                  n_particles, k, m_vertical,
                                                  lb_interval, small_cluster,
                                                  free_messages):
    n = n_cores * d
    if grid in ("two rows", "two columns"):
        assume(n % 2 == 0)
    dims = {"row": (n, 1), "column": (1, n), "two rows": (n // 2, 2),
            "two columns": (2, n // 2)}[grid]
    spec = PICSpec(cells=48, n_particles=n_particles, steps=4, k=k,
                   m_vertical=m_vertical, seed=seed)
    machine = SMALL_CLUSTER if small_cluster else MachineModel()
    cost = (CostModel(message_overhead_s=0.0, particle_byte_scale=27.78)
            if free_messages else CostModel(machine=machine))

    def build():
        return AmpiPIC(spec, n_cores, overdecomposition=d, lb_interval=lb_interval,
                       machine=machine, cost=cost, dims=dims,
                       executor=InProcessExecutor())

    with mock.patch.object(executor_mod, "WAVE_MIN_MEMBERS",
                           min(WAVE_MIN_MEMBERS, n)):
        bulk, clocked = _run(build)
        pump, none = _run(build, lockstep=False)
    assert clocked and not any(none)
    assert any(clocked)
    assert bulk == pump


# ----------------------------------------------------------------------
# Where it runs
# ----------------------------------------------------------------------
def _spec(steps=6):
    return PICSpec(cells=64, n_particles=4_000, steps=steps, m_vertical=1)


@pytest.fixture
def pump_calls(monkeypatch):
    """``_route_axis`` calls and dispatched ``SendrecvOp`` ops."""
    calls = {"route_axis": 0, "sendrecv": 0}
    real_route, real_dispatch = exchange_mod._route_axis, Scheduler._dispatch

    def route(*args, **kw):
        calls["route_axis"] += 1
        return (yield from real_route(*args, **kw))

    def dispatch(self, r, op, ready):
        if type(op) is ops.SendrecvOp:
            calls["sendrecv"] += 1
        return real_dispatch(self, r, op, ready)

    monkeypatch.setattr(exchange_mod, "_route_axis", route)
    monkeypatch.setattr(Scheduler, "_dispatch", dispatch)
    return calls


def test_settled_steps_skip_the_per_op_pump(pump_calls):
    _, clocked = _run(lambda: Mpi2dPIC(_spec(), 64, executor=InProcessExecutor()))
    assert clocked == [True] * 6
    assert pump_calls == {"route_axis": 0, "sendrecv": 0}


@pytest.mark.parametrize("observed", [
    pytest.param(dict(span_tracer=Tracer()), id="tracer"),
    pytest.param(dict(metrics=MetricsRegistry()), id="metrics"),
])
def test_observed_runs_keep_the_pump(pump_calls, observed):
    plain, clocked = _run(lambda: Mpi2dPIC(_spec(), 64, executor=InProcessExecutor()))
    assert clocked == [True] * 6 and pump_calls["sendrecv"] == 0
    seen, clocked = _run(lambda: Mpi2dPIC(_spec(), 64, executor=InProcessExecutor(),
                                          **observed))
    assert clocked and True not in clocked
    assert pump_calls["route_axis"] > 0 and pump_calls["sendrecv"] > 0
    for key in ("clock", "rank_busy", "traffic", "result", "finals"):
        assert seen[key] == plain[key], key


def test_shared_core_rounds_are_clocked(pump_calls):
    """AMPI's virtual ranks share cores: their settled steps are clocked in
    bulk by the replay, and agree with the pump."""
    def build():
        return AmpiPIC(_spec(), 32, overdecomposition=2, lb_interval=3,
                       executor=InProcessExecutor())

    shared, clocked = _run(build)
    assert clocked == [True] * 6
    assert pump_calls == {"route_axis": 0, "sendrecv": 0}
    pump, _ = _run(build, lockstep=False)
    assert shared == pump


def test_a_wave_over_ranks_of_one_core_each_is_clocked():
    """AMPI without overdecomposition has a core per rank: its settled
    steps are clocked in bulk, and agree with the pump."""
    def build():
        return AmpiPIC(_spec(), 64, overdecomposition=1, lb_interval=3,
                       executor=InProcessExecutor())

    bulk, clocked = _run(build)
    assert clocked == [True] * 6
    assert bulk == _run(build, lockstep=False)[0]


def test_every_gate_condition_hands_the_round_back():
    """``Scheduler._clock_round`` clocks a wave only when nothing but the
    members' own ops can move their clocks; a refused round moves
    nothing."""
    sched = Scheduler(4, executor=InProcessExecutor())
    sources = np.array([[1, 1, 2, 2], [0, 0, 3, 3], [3, 3, 0, 0], [2, 2, 1, 1]])
    wave = SettledWave([0, 1, 2, 3], sources, (2, 2), None,
                       np.zeros((4, 8), dtype=np.int64))
    sched.transport.post(2, 0, 0, 7, None, 8, 0.0)
    assert not sched._clock_round(wave)  # a receive would match it first
    sched.transport.match(2, 0, 0, 7)

    def state(s):
        return (list(s.clock), list(s.core_clock), list(s.core_busy),
                list(s.rank_busy), s.transport.messages_sent,
                s.transport.bytes_sent, s.transport._seq)

    before = state(sched)
    sched.n_ranks = 5
    assert not sched._clock_round(wave)  # an unfinished rank outside it
    sched.n_ranks = 4
    for hook in ("tracer", "metrics", "resilience"):
        setattr(sched, hook, object())
        assert not sched._clock_round(wave), hook
        setattr(sched, hook, None)
    assert state(sched) == before
    sched.n_ranks, sched._finished = 5, 1
    assert sched._clock_round(wave)  # ... the rank outside it has finished
    # Two hops, two empty messages per member each.
    assert sched.transport.messages_sent == before[4] + 16
    # Each member's last op is its last receive, on a core of its own.
    assert min(sched.core_clock) > 0.0
    assert sched.core_clock == sched.clock
    assert sched.core_busy == sched.rank_busy

    # Two members on one core are clocked too, as the pump clocks the
    # round's four empty sendrecvs per member (px = 2: both of a hop's
    # buffers come from one rank, under two tags).
    shared = [0, 1, 2, 0]
    sched = Scheduler(4, rank_to_core=shared, executor=InProcessExecutor())
    assert sched._clock_round(wave)

    def template(comm):
        r = comm.rank
        for j, tag in enumerate((exchange_mod.TAG_X_RIGHT, exchange_mod.TAG_X_LEFT,
                                 exchange_mod.TAG_Y_UP, exchange_mod.TAG_Y_DOWN)):
            dst = sources[:, j].tolist().index(r)
            yield comm.sendrecv(None, dst=dst, src=int(sources[r, j]), sendtag=tag,
                                recvtag=tag, nbytes=0)

    pump = Scheduler(4, rank_to_core=shared, executor=InProcessExecutor())
    pump.run([template] * 4)
    assert state(sched) == state(pump)
