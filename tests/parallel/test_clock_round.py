"""Settled steps, closed in runs.

When ``InProcessExecutor`` settled a closed group holding every rank
(``exchange_wave``) without a stray, ``Scheduler._close_run`` closes the
step for every member — ``Scheduler._close_step`` advances all members
through the round's op template (members with a core each with numpy,
members that share cores, AMPI's virtual ranks, by a replay of the pump's
round-robin on member indices) and prices the settlement allreduce in
closed form — and then the quiet steps after it, the executor keeping the
wave's particles in one block, until the driver's ``RunPlan`` says a rank
needs its program.  Each rank resumes once per run.  A wave forms only
for a step that will close: the scheduler checks its gate before the
push, and a round that leaves a stray ends the run unclosed.  A group that
forms no wave runs the per-rank exchange, the oracle:

* **Properties** — a run closed where it can equals two oracles bit for
  bit: runs of length 1 (``RunPlan.ends`` always true: every step closes
  in its own flush) and no wave at all (``InProcessExecutor._settle``
  refused: the chunked push and the per-rank exchange).  Compared: every
  rank clock, core clock, core and rank busy second, the transport's
  counters, the collective count, every world communicator's collective
  sequence number, the result document, the final particle bytes and the
  checkpoint files; and every round the executor settles without a stray
  is closed.  One core per rank: over ``px``/``py`` in {1, 2, 3, 5}, empty
  members, y leavers and multi-hop moves, ``h != 1``, a machine whose
  messages cross every link tier and free messages with a fractional byte
  scale.  Shared cores: AMPI over ``d`` in 2..8 and 1-6 cores, VP grids
  one or two ranks wide, tiny populations and GreedyLB migrations.  Runs:
  ``mpi-2d``, ``ampi`` and ``mpi-2d-LB`` over LB intervals, injection and
  removal steps, checkpoint intervals and strays inside runs.  Grids below
  ``WAVE_MIN_MEMBERS`` ranks lower the cut-over so small waves are drawn
  too.
* **Where it runs** — a 64-rank ``mpi-2d`` run and a 32-core ``ampi`` run
  with two VPs per core, with no observer, close all six steps in one
  flush: one ``exchange_particles`` call per rank, which takes the settled
  rows and routes nothing, no ``SendrecvOp`` and no step's ``allreduce``
  dispatched.  Each gate condition alone — a tracer, a
  metrics registry, a resilience hook, a pending message, a plain compute
  op, a step settling on another communicator — forms no wave for its
  step, and the run equals the no-wave run bit for bit; so does a
  multi-hop step (a stray arrival).  The process executor forms no wave.
* **Fixed cases** — a stray inside a run, a forced pause (it cuts at the
  step and writes the bytes the per-step closer did), a ``TraceCollector``
  (same samples, same ticks) and an ``EngineGroup`` over one executor.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.config.build import parallel_result_doc
from repro.core.kernel import WAVE_MIN_MEMBERS
from repro.core.spec import InjectionEvent, PICSpec, Region, RemovalEvent
from repro.instrument import MetricsRegistry, TraceCollector, Tracer
from repro.parallel import AmpiPIC, Mpi2dLbPIC, Mpi2dPIC, base
from repro.resilience import Checkpointer, FaultPlan, ResilienceConfig
from repro.runtime import CostModel, MachineModel, ops
from repro.runtime.comm import Comm
from repro.runtime import exchange as exchange_mod
from repro.runtime import executor as executor_mod
from repro.runtime.exchange import SettledWave
from repro.runtime.executor import InProcessExecutor, make_executor
from repro.runtime.multiplex import EngineGroup
from repro.runtime.scheduler import Scheduler

#: Two nodes x two sockets x two cores: a grid's messages cross every tier.
SMALL_CLUSTER = MachineModel(cores_per_socket=2, sockets_per_node=2)

_VERIFY = base.ParallelPICBase._verify

#: The three drives: as the code runs, runs of length 1, no wave at all.
DRIVES = ("runs", "steps", "no wave")


def _run(build, drive="runs"):
    """Everything a run leaves behind, and its log: per flush the stray
    flag of each round the executor settled, in order, and how many steps
    ``_close_step`` closed.  ``build`` returns the driver, or ``(driver,
    checkpoint directory)``."""
    finals, worlds = {}, {}
    log, rounds, closes = [], [], [0]
    real_flush, real_close = Scheduler._flush_compute, Scheduler._close_step
    real_wave = executor_mod.exchange_wave

    def verify(self, comm, state):
        finals[comm.world_rank] = state.particles.pack().tobytes()
        worlds[comm.world_rank] = comm
        return (yield from _VERIFY(self, comm, state))

    def flush(self, ready):
        rounds.clear()
        closes[0] = 0
        real_flush(self, ready)
        log.append((tuple(rounds), closes[0]))

    def settling(*args):
        wave = real_wave(*args)
        rounds.append(wave.stray)
        return wave

    def closing(self, batch, wave, order):
        closes[0] += 1
        return real_close(self, batch, wave, order)

    settle = InProcessExecutor._settle if drive != "no wave" else (
        lambda self, members: False)
    ends = base.RunPlan.ends if drive == "runs" else (lambda self, t: True)
    with mock.patch.object(base.ParallelPICBase, "_verify", verify), \
            mock.patch.object(Scheduler, "_flush_compute", flush), \
            mock.patch.object(executor_mod, "exchange_wave", settling), \
            mock.patch.object(Scheduler, "_close_step", closing), \
            mock.patch.object(InProcessExecutor, "_settle", settle), \
            mock.patch.object(base.RunPlan, "ends", ends):
        built = build()
        impl, directory = built if isinstance(built, tuple) else (built, None)
        engine = impl.build_engine()
        res = engine.run()
    assert res.verification.ok
    for strays, closed in log:
        # Every round settled without a stray is closed, and a stray ends
        # its flush's run.
        assert closed == strays.count(False) and True not in strays[:-1], log
    if drive == "steps":
        assert all(len(strays) <= 1 for strays, _ in log), log
    if drive == "no wave":
        assert {strays for strays, _ in log} <= {()}, log
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
    if directory is not None:
        state["checkpoints"] = _files(directory)
    if impl.tracer is not None:
        state["samples"] = impl.tracer.samples
        state["ticks"] = engine.ticks
    return state, log


def _files(directory) -> dict:
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


def _against_oracles(build):
    """The run closed where it can, the run with runs of length 1 and the
    run with no wave must agree bit for bit; returns the first run's log."""
    got, log = _run(build)
    for drive in DRIVES[1:]:
        want, _ = _run(build, drive)
        want.pop("ticks", None)
        assert {k: v for k, v in got.items() if k != "ticks"} == want, drive
    return log


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
    spec = PICSpec(cells=cells, n_particles=n_particles, steps=4, k=k,
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
        log = _against_oracles(build)
        assert any(strays for strays, _ in log)  # a wave settled


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
    spec = PICSpec(cells=48, n_particles=n_particles, steps=5, k=k,
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
        log = _against_oracles(build)
        assert any(strays for strays, _ in log)  # a wave settled


@settings(max_examples=30, deadline=None)
@given(
    impl=st.sampled_from(["mpi-2d", "ampi", "mpi-2d-LB"]),
    seed=st.integers(0, 2**16),
    n_particles=st.sampled_from([3, 40, 900]),
    k=st.sampled_from([0, 4]),
    lb_interval=st.integers(1, 5),
    injections=st.sets(st.integers(1, 7), max_size=2),
    removals=st.sets(st.integers(1, 7), max_size=1),
    every=st.integers(0, 4),
)
def test_runs_equal_steps_and_the_per_op_pump(impl, seed, n_particles, k,
                                              lb_interval, injections, removals,
                                              every):
    """Runs end where a rank needs its program: an LB round, an event, a
    checkpoint or the last step; k = 4 moves particles 9 cells a step over
    blocks 8 wide, so a step inside a run may stray."""
    events = tuple(InjectionEvent(step=s, region=Region(0, 8, 0, 8), count=30)
                   for s in sorted(injections))
    events += tuple(RemovalEvent(step=s, region=Region(8, 24, 0, 32), fraction=0.5)
                    for s in sorted(removals))
    spec = PICSpec(cells=32, n_particles=n_particles, steps=8, k=k, m_vertical=1,
                   seed=seed, events=events)

    with tempfile.TemporaryDirectory() as scratch:
        def build():
            directory = tempfile.mkdtemp(dir=scratch)
            res = (ResilienceConfig(checkpointer=Checkpointer(directory, every=every))
                   if every else None)
            kw = dict(executor=InProcessExecutor(), resilience=res)
            if impl == "mpi-2d":
                return Mpi2dPIC(spec, 16, **kw), directory
            if impl == "ampi":
                return AmpiPIC(spec, 4, overdecomposition=4, lb_interval=lb_interval,
                               **kw), directory
            return Mpi2dLbPIC(spec, 16, lb_interval=lb_interval, border_width=1,
                              **kw), directory

        log = _against_oracles(build)
    assert any(strays for strays, _ in log)  # a wave settled


# ----------------------------------------------------------------------
# Where it runs
# ----------------------------------------------------------------------
def _spec(steps=6, **kw):
    return PICSpec(cells=64, n_particles=4_000, steps=steps, m_vertical=1, **kw)


#: The allreduces every rank's verification makes (``_verify``): the only
#: ones left in a run whose every step closed in one op.
VERIFY_ALLREDUCES = 4

#: Six steps closed in one flush, and six steps with no wave.
ONE_RUN, NO_WAVE = [((False,) * 6, 6)], [((), 0)] * 6


@pytest.fixture
def pump_calls(monkeypatch):
    """``exchange_particles`` calls that route and calls that take a closed
    run's rows (``settled``), ``_route_axis`` calls, and dispatched
    ``SendrecvOp`` and ``allreduce`` ops."""
    calls = {"exchange": 0, "settled": 0, "route_axis": 0, "sendrecv": 0,
             "allreduce": 0}
    real_exchange, real_route = base.exchange_particles, exchange_mod._route_axis
    real_dispatch = Scheduler._dispatch

    def exchange(*args, **kw):
        calls["exchange" if kw.get("settled") is None else "settled"] += 1
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


def _closed_in_one_flush(pump_calls, n_ranks, log):
    assert log == ONE_RUN
    assert pump_calls == {"exchange": 0, "settled": n_ranks, "route_axis": 0,
                          "sendrecv": 0, "allreduce": VERIFY_ALLREDUCES * n_ranks}


def _mpi2d(**kw):
    return lambda: Mpi2dPIC(_spec(), 64, executor=InProcessExecutor(), **kw)


def test_settled_steps_skip_the_per_op_pump(pump_calls):
    """64 ranks of ``mpi-2d``: all six steps are one op per rank, and the
    executor stages the ranks' particles once."""
    staged = []
    real = InProcessExecutor._staged

    def staging(self, parts, total):
        staged.append(len(parts))
        return real(self, parts, total)

    with mock.patch.object(InProcessExecutor, "_staged", staging):
        _, log = _run(_mpi2d())
    _closed_in_one_flush(pump_calls, 64, log)
    assert staged == [64]


@pytest.mark.parametrize("observed", [
    pytest.param(lambda: dict(span_tracer=Tracer()), id="tracer"),
    pytest.param(lambda: dict(metrics=MetricsRegistry()), id="metrics"),
    pytest.param(lambda: dict(resilience=ResilienceConfig(plan=FaultPlan())),
                 id="resilience"),
])
def test_observed_runs_keep_the_pump(pump_calls, observed):
    """An attached hook alone forms no wave: every step runs per op, with
    the numbers of the run without the wave and of the unobserved run."""
    plain, log = _run(_mpi2d())
    assert log == ONE_RUN
    assert pump_calls["sendrecv"] == 0 and pump_calls["exchange"] == 0
    seen, log = _run(lambda: _mpi2d(**observed())())
    assert log == NO_WAVE
    assert pump_calls["route_axis"] > 0 and pump_calls["sendrecv"] > 0
    assert pump_calls["exchange"] == 6 * 64 and pump_calls["settled"] == 64
    assert seen == _run(lambda: _mpi2d(**observed())(), "no wave")[0]
    for key in ("clock", "rank_busy", "traffic", "coll_seq", "result", "finals"):
        assert seen[key] == plain[key], key


def test_shared_core_rounds_are_clocked(pump_calls):
    """AMPI's virtual ranks share cores: their settled steps are clocked by
    the replay and closed in two runs, each ended by an LB round, and agree
    with both oracles."""
    def build():
        return AmpiPIC(_spec(), 32, overdecomposition=2, lb_interval=3,
                       executor=InProcessExecutor())

    shared, log = _run(build)
    assert log == [((False,) * 3, 3)] * 2
    assert pump_calls["exchange"] == pump_calls["sendrecv"] == 0
    assert pump_calls["settled"] == 2 * 64
    for drive in DRIVES[1:]:
        assert shared == _run(build, drive)[0]


def test_a_wave_over_ranks_of_one_core_each_is_clocked():
    """AMPI without overdecomposition has a core per rank: its settled
    steps are closed in runs that end at its LB rounds."""
    def build():
        return AmpiPIC(_spec(), 64, overdecomposition=1, lb_interval=3,
                       executor=InProcessExecutor())

    assert _against_oracles(build) == [((False,) * 3, 3)] * 2


def test_a_multi_hop_step_keeps_its_allreduce(pump_calls):
    """k = 4 moves particles 9 cells a step over blocks 8 cells wide: x
    arrivals are strays, so the executor hands out no wave and the ranks
    run their whole exchange per op, the settlement allreduce included."""
    def build():
        return Mpi2dPIC(_spec(k=4), 64, executor=InProcessExecutor())

    assert _against_oracles(build) == [((True,), 0)] * 6
    assert pump_calls["exchange"] == 3 * 6 * 64 and pump_calls["sendrecv"] > 0
    assert pump_calls["settled"] == 0
    assert pump_calls["allreduce"] > 3 * VERIFY_ALLREDUCES * 64


def test_a_stray_inside_a_run_ends_it():
    """Three particles at k = 4: the run closes steps 0-4 and step 5's
    round strays, so its ranks exchange it per rank from the pushed rows
    the executor hands back; steps 6 and 7 stray in their first round."""
    def build():
        spec = PICSpec(cells=64, n_particles=3, steps=8, k=4, m_vertical=1, seed=0)
        return Mpi2dPIC(spec, 64, executor=InProcessExecutor())

    assert _against_oracles(build) == [((False,) * 5 + (True,), 5),
                                       ((True,), 0), ((True,), 0)]


def test_the_process_executor_keeps_the_pump():
    """The process executor settles no wave: nothing is closed, and the
    numbers are the closed steps'."""
    def build(executor):
        return lambda: Mpi2dPIC(_spec(), 64, executor=executor)

    plain, log = _run(build(InProcessExecutor()))
    assert log == ONE_RUN
    with make_executor("process", workers=1) as pool:
        seen, log = _run(build(pool))
    assert log == NO_WAVE
    assert seen == plain


# ----------------------------------------------------------------------
# Fixed cases: a pause, a load sampler, an engine group
# ----------------------------------------------------------------------
#: The files and result of :func:`_pause_twice` as a closer of one step
#: per flush wrote them (sha256).
PAUSED = {
    "mpi-2d": (
        {"ckpt_step000003.ckpt":
         "54198631080f42a7de3b90aa92d1ae67d8024d6d389d179d752c0ed8b4155449",
         "ckpt_step000004.ckpt":
         "1c66c3c6205d0185e9e77d382d19982eba24d7ded1e43af62e1ab5aaf4092c03",
         "ckpt_step000006.ckpt":
         "610e7da808fe04ea1f2e1ddf84d2484d0ad7090dcc6655debb5585ec43e4efd7"},
        "94b32eae7e1a278b8d27fcc659be5f11f7463260aa9b2b835e517c0618743001"),
    "ampi": (
        {"ckpt_step000003.ckpt":
         "0b611707acba70472027acb7751bdf153831690e8026b2f62a94bbde184619db",
         "ckpt_step000004.ckpt":
         "5970d61a034f81f396feba13451a3113ab26e474597167733e591049fa71a06b",
         "ckpt_step000006.ckpt":
         "f1148123240ef5aa78d28fff88d6f813306b0e78a616aefab169889c449aa07e"},
        "59e0ce68fa485f00e33ef9a97da6b55b1baf28553205833b1f119bf1f99b9103"),
}


def _pause_twice(build, directory):
    """Pause at the first scheduled cut, then force one at the next step
    boundary and run to the end: the cut names, the files and the result
    document."""
    from repro.config import canonical_json

    res = ResilienceConfig(checkpointer=Checkpointer(directory, every=3))
    engine = build(res).build_engine()
    first = engine.pause()
    second = engine.pause(force=True)
    doc = canonical_json(parallel_result_doc(engine.run()))
    files = {name: hashlib.sha256(blob).hexdigest()
             for name, blob in _files(directory).items()}
    return (os.path.basename(first), os.path.basename(second)), files, doc


@pytest.mark.parametrize("impl", ["mpi-2d", "ampi"])
def test_a_forced_pause_cuts_at_the_next_step(tmp_path, impl):
    """A checkpoint requested between flushes cuts after the next step,
    not at the end of a run: the pause stops before the flush that would
    close one, and the run's plan asks the checkpointer per step."""
    spec = PICSpec(cells=64, n_particles=4_000, steps=8, m_vertical=1)

    def build(res):
        if impl == "mpi-2d":
            return Mpi2dPIC(spec, 64, executor=InProcessExecutor(), resilience=res)
        return AmpiPIC(spec, 16, overdecomposition=4, lb_interval=5,
                       executor=InProcessExecutor(), resilience=res)

    cuts, files, doc = _pause_twice(build, str(tmp_path / "runs"))
    assert cuts == ("ckpt_step000003.ckpt", "ckpt_step000004.ckpt")
    want_files, want_doc = PAUSED[impl]
    assert files == want_files
    assert hashlib.sha256(doc.encode()).hexdigest() == want_doc
    with mock.patch.object(InProcessExecutor, "_settle", lambda *a: False):
        assert _pause_twice(build, str(tmp_path / "no-wave")) == (cuts, files, doc)


def test_a_load_sampler_changes_no_run():
    """A ``TraceCollector`` records every step's count, closed or not, and
    forms the same runs: the same samples as both oracles', and the same
    ticks as the run without it."""
    def build(tracer=None):
        return lambda: AmpiPIC(_spec(), 32, overdecomposition=2, lb_interval=3,
                               executor=InProcessExecutor(), tracer=tracer)

    got, log = _run(build(TraceCollector()))
    assert log == [((False,) * 3, 3)] * 2
    assert sorted(got["samples"]) == list(range(6))
    assert all(len(per_rank) == 64 for per_rank in got["samples"].values())
    for drive in DRIVES[1:]:
        want = _run(build(TraceCollector()), drive)[0]
        assert want["samples"] == got["samples"], drive
    engine = build()().build_engine()
    engine.run()
    assert engine.ticks == got["ticks"]


def test_an_engine_group_over_one_executor_stays_identical():
    """Two engines time-sliced over one shared executor: each closes its
    own runs and ends as it does alone."""
    finals = {}

    def verify(self, comm, state):
        finals.setdefault(id(comm._scheduler), {})[comm.world_rank] = (
            state.particles.pack().tobytes())
        return (yield from _VERIFY(self, comm, state))

    builds = {
        "mpi-2d": lambda ex: Mpi2dPIC(_spec(), 64, executor=ex),
        "ampi": lambda ex: AmpiPIC(_spec(), 32, overdecomposition=2, lb_interval=3,
                                   executor=ex),
    }

    def seen(engine):
        sched = engine.scheduler
        return ([t.hex() for t in sched.clock], [t.hex() for t in sched.core_clock],
                sched.transport.bytes_sent, parallel_result_doc(engine.result()),
                finals[id(sched)])

    with mock.patch.object(base.ParallelPICBase, "_verify", verify):
        alone = {}
        for tag, build in builds.items():
            engine = build(InProcessExecutor()).build_engine()
            engine.run()
            alone[tag] = seen(engine)
        shared = InProcessExecutor()
        with EngineGroup(slice_ticks=5, order_seed=3, executor=shared) as group:
            for tag, build in builds.items():
                group.add(tag, build(group.handle(tag)).build_engine(engine_id=tag))
            group.run_all()
            for tag in builds:
                assert seen(group.engine(tag)) == alone[tag], tag
    assert shared.take_wave() is None


# ----------------------------------------------------------------------
# The gate, one condition at a time
# ----------------------------------------------------------------------
def _step(comm) -> int:
    """The step ``comm``'s rank is in (``Comm.annotate_step``)."""
    return comm._scheduler.step[comm.world_rank]


class _CutAfter(Mpi2dPIC):
    """``mpi-2d`` whose runs also end after steps 0 and 1 (an LB round
    that does nothing), so a program may act between those steps."""

    def lb_round_after(self, t):
        return t < 2


#: Step 0 closed alone, step 1 run per op, steps 2-5 closed in one run.
CUT_NO_WAVE = [((False,), 1), ((), 0), ((False,) * 4, 4)]


def test_every_gate_condition_hands_the_round_back():
    """A pending message at a flush forms no wave for that step (a receive
    would match it first); the run equals the no-wave run.  A closed step
    leaves what the pump leaves after the round's op template and the
    settlement allreduce, on a core per rank and on shared cores (px = 2:
    both of a hop's buffers come from one rank, under two tags)."""
    class Messaging(_CutAfter):
        def lb_hook(self, comm, cart, state, t):
            # Rank 0 sends after step 0, rank 1 receives after step 1:
            # step 1's flush finds the message pending.
            if (comm.rank, t) == (0, 0):
                yield comm.send(None, dst=1, tag=999, nbytes=8)
            elif (comm.rank, t) == (1, 1):
                yield comm.recv(src=0, tag=999)

    log = _against_oracles(lambda: Messaging(_spec(), 64, executor=InProcessExecutor()))
    assert log == CUT_NO_WAVE

    wave = _wave([0, 1, 2, 3], (2, 2))

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
        sched._close_step(batch, wave, range(4))
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
    numbers the pump's allreduce leaves; a closed run wakes the ranks in
    world-rank order whatever order they parked in.  The wave's grid is
    one rank, so its round has no hop and only the allreduce moves the
    clocks."""
    real = Comm.run_steps

    for settle in (lambda comm: None,  # a plain compute op
                   lambda comm: Comm(comm._scheduler, 5, comm.world_ranks,
                                     comm.rank)):  # settles elsewhere
        def run_steps(self, seconds, task, plan):
            # Rank 3's step-1 op.
            if (self.rank, _step(self)) != (3, 1):
                return real(self, seconds, task, plan)
            return ops.ComputeOp(seconds, task, settle(self), plan)

        with mock.patch.object(Comm, "run_steps", run_steps):
            log = _against_oracles(
                lambda: _CutAfter(_spec(), 64, executor=InProcessExecutor()))
        assert log == CUT_NO_WAVE

    shared = [0, 0, 1, 1]

    def pump_program(comm):
        yield comm.compute((3.5e-6, 1.25e-6, 7.0e-6, 2.0e-6)[comm.rank])
        arrived = comm.wtime()
        yield comm.allreduce(0)
        return arrived

    pump = Scheduler(4, rank_to_core=shared, executor=InProcessExecutor())
    before = pump.run([pump_program] * 4).returns

    class Resident:
        """One settled round, then the plan ends the run."""

        def __init__(self):
            self.wave = _wave([2, 0, 3, 1], (1, 1))
            self.released = None

        def release(self, stray):
            self.released = stray
            return ["rows 2", "rows 0", "rows 3", "rows 1"]

    class Plan:
        steps = 1

        def ends(self, t):
            return True

    sched = Scheduler(4, rank_to_core=shared, executor=InProcessExecutor())
    worlds, batch = _parked(sched, order=(2, 0, 3, 1), plan=Plan())
    sched.clock = list(before)
    ready, resident = deque(), Resident()
    sched._close_run(batch, resident, ready)
    assert list(ready) == [0, 1, 2, 3] and resident.released is False
    assert [t.hex() for t in sched.clock] == [t.hex() for t in pump.clock]
    assert sched.collectives_completed == pump.collectives_completed == 1
    assert [c._coll_seq for c in worlds] == [1, 1, 1, 1]
    assert [st.resume_value for st in sched._states] == [
        ([0], f"rows {r}") for r in range(4)]


#: The source members of a 2 x 2 grid's four receives, per member: x bwd,
#: x fwd, y bwd, y fwd.
SOURCES = np.array([[1, 1, 2, 2], [0, 0, 3, 3], [3, 3, 0, 0], [2, 2, 1, 1]])


def _wave(ranks, dims):
    """A settled round over four empty members: nobody leaves."""
    zeros = np.zeros(4, dtype=np.int64)
    return SettledWave(ranks, SOURCES, dims, np.zeros((4, 8), dtype=np.int64), 0,
                       zeros, zeros, None)


def _parked(sched, order=(0, 1, 2, 3), plan=None):
    """Park the four ranks of ``sched`` on step ops settling on their
    world communicators, in ``order``: the world communicators and the
    batch."""
    worlds = [sched.make_world(r) for r in range(4)]
    sched._states = [sched._rank_state(iter(())) for _ in range(4)]
    batch = [(r, None) for r in order]
    for r, task in batch:
        sched._states[r].blocked_op = ops.ComputeOp(0.0, task, worlds[r], plan)
    return worlds, batch


def _moved(s):
    return ([t.hex() for t in s.clock], [t.hex() for t in s.core_clock],
            [t.hex() for t in s.core_busy], [t.hex() for t in s.rank_busy],
            s.transport.messages_sent, s.transport.bytes_sent, s.transport._seq,
            s.collectives_completed)
