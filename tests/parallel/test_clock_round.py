"""A settled step, closed in one op.

When ``InProcessExecutor`` settled a closed group holding every rank
(``exchange_wave``), ``Scheduler._close_step`` finishes the whole step for
every member in one op: it advances all members through the round's op
template — members with a core each with numpy, members that share cores
(AMPI's virtual ranks) by a replay of the pump's round-robin on member
indices — then prices the settlement allreduce in closed form, and each
rank's exchange only adopts its rows.  A wave forms only for a step that
will close: the scheduler checks its gate before the push, and the
executor hands out no wave whose round left a stray.  A group that forms
no wave runs the per-rank exchange, the oracle:

* **Properties** — a run closed where it can and the same run with no
  wave at all (``InProcessExecutor._settle`` refused: the chunked push and
  the per-rank exchange) agree bit for bit on every rank clock, core
  clock, core and rank busy second, the transport's counters, the
  collective count, every world communicator's collective sequence
  number, the result document and the final particle bytes; and every
  wave the executor settles without a stray is handed out and closed.
  One core per rank: over ``px``/``py`` in {1, 2, 3, 5}, empty members,
  y leavers and multi-hop moves, ``h != 1``, a machine whose messages
  cross every link tier and free messages with a fractional byte scale.
  Shared cores: AMPI over ``d`` in 2..8 and 1-6 cores, VP grids one or
  two ranks wide (at two, both of a hop's sources are one rank and only
  the tag tells its buffers apart), tiny populations (empty VPs, hops
  with no pack op), the same machines and message prices, and GreedyLB
  migrations that mix VPs across cores.  Grids below ``WAVE_MIN_MEMBERS``
  ranks lower the cut-over so small waves are drawn too.
* **Where it runs** — a 64-rank ``mpi-2d`` run and a 32-core ``ampi`` run
  with two VPs per core, with no observer, close every step in one op:
  every ``exchange_particles`` call only adopts its rows — no
  ``_route_axis`` call, no ``SendrecvOp`` and no step's ``allreduce``
  dispatched.  Each gate condition alone — a tracer, a metrics registry,
  a resilience hook, a pending message, a plain compute op, a step
  settling on another communicator — forms no wave for its step, and the
  run equals the no-wave run bit for bit; so does a multi-hop step (a
  stray arrival).  The process executor forms no wave.
"""

from __future__ import annotations

from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.config.build import parallel_result_doc
from repro.core.kernel import WAVE_MIN_MEMBERS
from repro.core.spec import PICSpec
from repro.instrument import MetricsRegistry, Tracer
from repro.parallel import AmpiPIC, Mpi2dPIC, base
from repro.resilience import FaultPlan, ResilienceConfig
from repro.runtime import CostModel, MachineModel, ops
from repro.runtime.comm import Comm
from repro.runtime import exchange as exchange_mod
from repro.runtime import executor as executor_mod
from repro.runtime.exchange import SettledWave
from repro.runtime.executor import InProcessExecutor, make_executor
from repro.runtime.scheduler import Scheduler

#: Two nodes x two sockets x two cores: a grid's messages cross every tier.
SMALL_CLUSTER = MachineModel(cores_per_socket=2, sockets_per_node=2)

_VERIFY = base.ParallelPICBase._verify


def _run(build, *, wave=True):
    """Everything a run leaves behind, and per flush ``(stray, formed,
    closed)``: whether the round the executor settled left a stray (None:
    it settled no wave), whether a task came back with ``first`` and
    whether ``_close_step`` ran.  ``wave=False`` lets no group form a
    wave."""
    finals, worlds = {}, {}
    flushes, settled, closes = [], [], []
    real_flush, real_close = Scheduler._flush_compute, Scheduler._close_step
    real_wave = executor_mod.exchange_wave

    def verify(self, comm, state):
        finals[comm.world_rank] = state.particles.pack().tobytes()
        worlds[comm.world_rank] = comm
        return (yield from _VERIFY(self, comm, state))

    def flush(self, ready):
        batch = list(self._pending_exec)
        settled.clear()
        closes.clear()
        real_flush(self, ready)
        stray = bool(settled[0].table[:, 3::4].any()) if settled else None
        formed = any(getattr(t, "first", None) is not None for _, t in batch)
        flushes.append((stray, formed, bool(closes)))

    def settling(*args):
        settled.append(real_wave(*args))
        return settled[-1]

    def closing(self, batch, wave, ready):
        closes.append(wave)
        return real_close(self, batch, wave, ready)

    settle = InProcessExecutor._settle if wave else (lambda self, members: False)
    with mock.patch.object(base.ParallelPICBase, "_verify", verify), \
            mock.patch.object(Scheduler, "_flush_compute", flush), \
            mock.patch.object(executor_mod, "exchange_wave", settling), \
            mock.patch.object(Scheduler, "_close_step", closing), \
            mock.patch.object(InProcessExecutor, "_settle", settle):
        engine = build().build_engine()
        res = engine.run()
    assert res.verification.ok
    # A wave is handed out exactly when its round left no stray, and every
    # wave handed out is closed.
    assert all(formed == closed == (stray is False)
               for stray, formed, closed in flushes), flushes
    sched = engine.scheduler
    state = {
        "clock": [t.hex() for t in sched.clock],
        "core_clock": [t.hex() for t in sched.core_clock],
        "core_busy": [t.hex() for t in sched.core_busy],
        "rank_busy": [t.hex() for t in sched.rank_busy],
        "traffic": (sched.transport.messages_sent, sched.transport.bytes_sent,
                    sched.transport._seq, sched.collectives_completed),
        "coll_seq": [worlds[r]._coll_seq for r in range(sched.n_ranks)],
        "result": parallel_result_doc(res),
        "finals": finals,
    }
    return state, flushes


#: A step closed in one op, and one that formed no wave.
CLOSED, NO_WAVE = (False, True, True), (None, False, False)


def _against_no_wave(build):
    """The run closed where it can and the run with no wave must agree bit
    for bit; returns the first run's flushes."""
    closed_run, flushes = _run(build)
    per_rank, none = _run(build, wave=False)
    assert set(none) <= {NO_WAVE}
    assert closed_run == per_rank
    return flushes


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
    # every rate, the byte scale too: the closer prices with the
    # scheduler's model what the exchange prices with the driver's.
    cost = (CostModel(message_overhead_s=0.0, particle_byte_scale=27.78)
            if free_messages else CostModel(machine=machine))

    def build():
        return Mpi2dPIC(spec, px * py, machine=machine, cost=cost, dims=(px, py),
                        executor=InProcessExecutor())

    with mock.patch.object(executor_mod, "WAVE_MIN_MEMBERS",
                           min(WAVE_MIN_MEMBERS, px * py)):
        flushes = _against_no_wave(build)
        assert any(stray is not None for stray, _, _ in flushes)  # a wave settled


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
        flushes = _against_no_wave(build)
        assert any(stray is not None for stray, _, _ in flushes)  # a wave settled


# ----------------------------------------------------------------------
# Where it runs
# ----------------------------------------------------------------------
def _spec(steps=6, **kw):
    return PICSpec(cells=64, n_particles=4_000, steps=steps, m_vertical=1, **kw)


#: The allreduces every rank's verification makes (``_verify``): the only
#: ones left in a run whose every step closed in one op.
VERIFY_ALLREDUCES = 4


@pytest.fixture
def pump_calls(monkeypatch):
    """``exchange_particles`` calls (and how many only adopted a settled
    wave's rows), ``_route_axis`` calls, and dispatched ``SendrecvOp`` and
    ``allreduce`` ops."""
    calls = {"exchange": 0, "adopted": 0, "route_axis": 0, "sendrecv": 0,
             "allreduce": 0}
    real_exchange, real_route = base.exchange_particles, exchange_mod._route_axis
    real_dispatch = Scheduler._dispatch

    def exchange(*args, **kw):
        calls["exchange"] += 1
        calls["adopted"] += kw.get("first") is not None
        return (yield from real_exchange(*args, **kw))

    def route(*args, **kw):
        calls["route_axis"] += 1
        return (yield from real_route(*args, **kw))

    def dispatch(self, r, op, ready):
        if type(op) is ops.SendrecvOp:
            calls["sendrecv"] += 1
        elif type(op) is ops.CollectiveOp and op.kind == "allreduce":
            calls["allreduce"] += 1
        return real_dispatch(self, r, op, ready)

    monkeypatch.setattr(base, "exchange_particles", exchange)
    monkeypatch.setattr(exchange_mod, "_route_axis", route)
    monkeypatch.setattr(Scheduler, "_dispatch", dispatch)
    return calls


def _closed_every_step(pump_calls, n_ranks, flushes):
    assert flushes == [CLOSED] * 6
    assert pump_calls == {"exchange": 6 * n_ranks, "adopted": 6 * n_ranks,
                          "route_axis": 0, "sendrecv": 0,
                          "allreduce": VERIFY_ALLREDUCES * n_ranks}


def _mpi2d(**kw):
    return lambda: Mpi2dPIC(_spec(), 64, executor=InProcessExecutor(), **kw)


def test_settled_steps_skip_the_per_op_pump(pump_calls):
    """64 ranks of ``mpi-2d``: every step is one op per rank."""
    _, flushes = _run(_mpi2d())
    _closed_every_step(pump_calls, 64, flushes)


@pytest.mark.parametrize("observed", [
    pytest.param(lambda: dict(span_tracer=Tracer()), id="tracer"),
    pytest.param(lambda: dict(metrics=MetricsRegistry()), id="metrics"),
    pytest.param(lambda: dict(resilience=ResilienceConfig(plan=FaultPlan())),
                 id="resilience"),
])
def test_observed_runs_keep_the_pump(pump_calls, observed):
    """An attached hook alone forms no wave: every step runs per op, with
    the numbers of the run without the wave and of the unobserved run."""
    plain, flushes = _run(_mpi2d())
    assert flushes == [CLOSED] * 6
    assert pump_calls["sendrecv"] == 0 and pump_calls["adopted"] == 6 * 64
    pump_calls.update(dict.fromkeys(pump_calls, 0))
    seen, flushes = _run(lambda: _mpi2d(**observed())())
    assert flushes == [NO_WAVE] * 6
    assert pump_calls["route_axis"] > 0 and pump_calls["sendrecv"] > 0
    assert pump_calls["exchange"] == 6 * 64 and pump_calls["adopted"] == 0
    assert seen == _run(lambda: _mpi2d(**observed())(), wave=False)[0]
    for key in ("clock", "rank_busy", "traffic", "coll_seq", "result", "finals"):
        assert seen[key] == plain[key], key


def test_shared_core_rounds_are_clocked(pump_calls):
    """AMPI's virtual ranks share cores: their settled steps are clocked by
    the replay and closed in one op, and agree with the per-rank path."""
    def build():
        return AmpiPIC(_spec(), 32, overdecomposition=2, lb_interval=3,
                       executor=InProcessExecutor())

    shared, flushes = _run(build)
    _closed_every_step(pump_calls, 64, flushes)
    assert shared == _run(build, wave=False)[0]


def test_a_wave_over_ranks_of_one_core_each_is_clocked():
    """AMPI without overdecomposition has a core per rank: its settled
    steps are closed in one op, and agree with the per-rank path."""
    def build():
        return AmpiPIC(_spec(), 64, overdecomposition=1, lb_interval=3,
                       executor=InProcessExecutor())

    assert _against_no_wave(build) == [CLOSED] * 6


def test_a_multi_hop_step_keeps_its_allreduce(pump_calls):
    """k = 4 moves particles 9 cells a step over blocks 8 cells wide: x
    arrivals are strays, so the executor hands out no wave and the ranks
    run their whole exchange per op, the settlement allreduce included."""
    def build():
        return Mpi2dPIC(_spec(k=4), 64, executor=InProcessExecutor())

    assert _against_no_wave(build) == [(True, False, False)] * 6
    assert pump_calls["adopted"] == 0 and pump_calls["sendrecv"] > 0
    assert pump_calls["allreduce"] > VERIFY_ALLREDUCES * 64


def test_the_process_executor_keeps_the_pump():
    """The process executor settles no wave: nothing is closed, and the
    numbers are the closed steps'."""
    def build(executor):
        return lambda: Mpi2dPIC(_spec(), 64, executor=executor)

    plain, flushes = _run(build(InProcessExecutor()))
    assert flushes == [CLOSED] * 6
    with make_executor("process", workers=1) as pool:
        seen, flushes = _run(build(pool))
    assert flushes == [NO_WAVE] * 6
    assert seen == plain


# ----------------------------------------------------------------------
# The gate, one condition at a time
# ----------------------------------------------------------------------
def _step(comm) -> int:
    """The step ``comm``'s rank is in (``Comm.annotate_step``)."""
    return comm._scheduler.step[comm.world_rank]


def test_every_gate_condition_hands_the_round_back():
    """A pending message at a flush forms no wave for that step (a receive
    would match it first); the run equals the no-wave run.  A closed step
    leaves what the pump leaves after the round's op template and the
    settlement allreduce, on a core per rank and on shared cores (px = 2:
    both of a hop's buffers come from one rank, under two tags)."""
    real = base.exchange_particles

    def exchange(comm, *args, **kw):
        # Rank 0 sends after its step-0 exchange, rank 1 receives after its
        # step-1 exchange: step 1's flush finds the message pending.
        particles = yield from real(comm, *args, **kw)
        if (comm.rank, _step(comm)) == (0, 0):
            yield comm.send(None, dst=1, tag=999, nbytes=8)
        elif (comm.rank, _step(comm)) == (1, 1):
            yield comm.recv(src=0, tag=999)
        return particles

    with mock.patch.object(base, "exchange_particles", exchange):
        flushes = _against_no_wave(_mpi2d())
    assert flushes == [CLOSED, NO_WAVE] + [CLOSED] * 4

    wave = SettledWave([0, 1, 2, 3], SOURCES, (2, 2), None,
                       np.zeros((4, 8), dtype=np.int64))

    def template(comm):
        r = comm.rank
        for j, tag in enumerate((exchange_mod.TAG_X_RIGHT, exchange_mod.TAG_X_LEFT,
                                 exchange_mod.TAG_Y_UP, exchange_mod.TAG_Y_DOWN)):
            dst = SOURCES[:, j].tolist().index(r)
            yield comm.sendrecv(None, dst=dst, src=int(SOURCES[r, j]), sendtag=tag,
                                recvtag=tag, nbytes=0)
        yield comm.allreduce(0)

    for cores in ([0, 1, 2, 3], [0, 1, 2, 0]):
        sched = Scheduler(4, rank_to_core=cores, executor=InProcessExecutor())
        _, batch = _parked(sched)
        sched._close_step(batch, wave, deque())
        # Two hops, two empty messages per member each.
        assert sched.transport.messages_sent == 16
        pump = Scheduler(4, rank_to_core=cores, executor=InProcessExecutor())
        pump.run([template] * 4)
        assert _moved(sched) == _moved(pump), cores


def test_every_close_condition_leaves_the_allreduce_to_the_pump():
    """A batch op that is a plain compute op, or a step op settling on
    another communicator, forms no wave for its step: the ranks run the
    settlement allreduce through the pump, and the run equals the no-wave
    run.  A closed step leaves the clocks, collective count and sequence
    numbers the pump's allreduce leaves, and wakes the ranks in world-rank
    order whatever order they parked in.  The wave's grid is one rank, so
    its round has no hop and only the allreduce moves the clocks."""
    real = Comm.step

    for settle in (lambda comm: None,  # a plain compute op
                   lambda comm: Comm(comm._scheduler, 5, comm.world_ranks,
                                     comm.rank)):  # settles elsewhere
        def step(self, seconds, task):
            # Rank 3's step-1 op.
            if (self.rank, _step(self)) != (3, 1):
                return real(self, seconds, task)
            return ops.ComputeOp(seconds, task, settle(self))

        with mock.patch.object(Comm, "step", step):
            flushes = _against_no_wave(_mpi2d())
        assert flushes == [CLOSED, NO_WAVE] + [CLOSED] * 4

    shared = [0, 0, 1, 1]

    def pump_program(comm):
        yield comm.compute((3.5e-6, 1.25e-6, 7.0e-6, 2.0e-6)[comm.rank])
        arrived = comm.wtime()
        yield comm.allreduce(0)
        return arrived

    pump = Scheduler(4, rank_to_core=shared, executor=InProcessExecutor())
    before = pump.run([pump_program] * 4).returns

    sched = Scheduler(4, rank_to_core=shared, executor=InProcessExecutor())
    worlds, batch = _parked(sched, order=(2, 0, 3, 1))
    sched.clock = list(before)
    wave = SettledWave([2, 0, 3, 1], SOURCES, (1, 1), None,
                       np.zeros((4, 8), dtype=np.int64))
    ready = deque()
    sched._close_step(batch, wave, ready)
    assert list(ready) == [0, 1, 2, 3]
    assert [t.hex() for t in sched.clock] == [t.hex() for t in pump.clock]
    assert sched.collectives_completed == pump.collectives_completed == 1
    assert [c._coll_seq for c in worlds] == [1, 1, 1, 1]
    assert all(st.resume_value is None for st in sched._states)


#: The source members of a 2 x 2 grid's four receives, per member: x bwd,
#: x fwd, y bwd, y fwd.
SOURCES = np.array([[1, 1, 2, 2], [0, 0, 3, 3], [3, 3, 0, 0], [2, 2, 1, 1]])


def _parked(sched, order=(0, 1, 2, 3)):
    """Park the four ranks of ``sched`` on step ops settling on their
    world communicators, in ``order``: the world communicators and the
    batch."""
    worlds = [sched.make_world(r) for r in range(4)]
    sched._states = [sched._rank_state(iter(())) for _ in range(4)]
    batch = [(r, None) for r in order]
    for r, task in batch:
        sched._states[r].blocked_op = ops.ComputeOp(0.0, task, worlds[r])
    return worlds, batch


def _moved(s):
    return ([t.hex() for t in s.clock], [t.hex() for t in s.core_clock],
            [t.hex() for t in s.core_busy], [t.hex() for t in s.rank_busy],
            s.transport.messages_sent, s.transport.bytes_sent, s.transport._seq,
            s.collectives_completed)
