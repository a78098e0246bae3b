"""A settled wave's first exchange round, clocked for every member at once.

When ``InProcessExecutor`` settled a closed group holding every unfinished
rank (``exchange_wave``), ``Scheduler._flush_compute`` advances all members
through the round's op template in one pass
(``Scheduler._clock_round``); woken, each member adopts its
rows and goes straight to the settlement allreduce.  The per-op pump stays
the oracle:

* **Property** — a run with the bulk clocking and the same run with it out
  of reach agree bit for bit on every rank clock, core clock (keys in
  order), core and rank busy second, the transport's counters, the result
  document and the final particle bytes — over ``px``/``py`` in {1, 2, 3,
  5}, empty members, y leavers and multi-hop moves, ``h != 1``, a machine
  whose messages cross every link tier and free messages with a
  fractional byte scale.  Grids below ``WAVE_MIN_MEMBERS`` ranks lower the
  cut-over so single-axis rounds are drawn too.
* **Where it runs** — a 64-rank ``mpi-2d`` run with no observer clocks
  every step in bulk: no ``_route_axis`` call, no ``SendrecvOp``
  dispatched.  A tracer, a metrics registry or AMPI's shared cores keep
  the per-op pump, with the same numbers.
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
        "core_clock": [(c, t.hex()) for c, t in sched.core_clock.items()],
        "core_busy": [(c, t.hex()) for c, t in sched.core_busy.items()],
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
    # Free messages may leave several new cores first occupied late in a
    # round (a pack compute after arrivals): _clock_round then hands it back.
    assert any(clocked) or free_messages
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


def test_shared_cores_keep_the_pump(pump_calls):
    def build():
        return AmpiPIC(_spec(), 32, overdecomposition=2, lb_interval=3,
                       executor=InProcessExecutor())

    shared, clocked = _run(build)
    assert True not in clocked
    assert pump_calls["route_axis"] > 0 and pump_calls["sendrecv"] > 0
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
    wave = SettledWave([0, 1, 2, 3], sources, np.zeros((4, 4), dtype=np.int64),
                       (2, 2))
    sched.transport.post(2, 0, 0, 7, None, 8, 0.0)
    assert not sched._clock_round(wave)  # a receive would match it first
    sched.transport.match(2, 0, 0, 7)

    def state():
        return (list(sched.clock), dict(sched.core_clock), dict(sched.core_busy),
                list(sched.rank_busy), sched.transport.messages_sent,
                sched.transport.bytes_sent)

    before = state()
    sched.n_ranks = 5
    assert not sched._clock_round(wave)  # an unfinished rank outside it
    sched.n_ranks = 4
    sched.rank_to_core[3] = 0
    assert not sched._clock_round(wave)  # two members on one core
    sched.rank_to_core[3] = 3
    for hook in ("tracer", "metrics", "resilience"):
        setattr(sched, hook, object())
        assert not sched._clock_round(wave), hook
        setattr(sched, hook, None)
    assert state() == before
    sched.n_ranks, sched._finished = 5, 1
    assert sched._clock_round(wave)  # ... the rank outside it has finished
    # Two hops, two empty messages per member each.
    assert sched.transport.messages_sent == before[4] + 16
    assert sched.core_clock.keys() == {0, 1, 2, 3}
