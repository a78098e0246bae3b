"""AMPI's clocks follow one core-service rule, whatever drives the run.

The rule (DESIGN.md §2): a flush wakes the whole batch in park order, and a
core serves occupations in the order the round-robin dispatches them.
Nothing else — the executor that ran the batch, the tick budget a caller
drives with, or the slice order of an
:class:`~repro.runtime.multiplex.EngineGroup` — may reach a simulated
number.  With several virtual ranks on one core the
order of their occupations sets the clocks, so the property draws small
``ampi`` runs (``d`` in 2..8, any core count, LB interval and strategy) and
checks every drive against ``run()`` on the serial executor, bit for bit:
rank and core clocks, core and rank busy seconds, the transport's traffic,
the collective count, every world communicator's collective sequence
number, the result document and the final particle bytes.  ``mpi-2d`` and
``mpi-2d-LB`` (one rank per core, order-invariant) are the controls.

The drives run the rule three ways.  On every executor, the process one
included, a step whose wave is the whole world with nothing left to route
is closed in one op by ``Scheduler._close_step``, which on shared cores
replays the round-robin's service order, and so are the quiet steps after
it, in one run (``Scheduler._close_run``); every AMPI example with at
least ``WAVE_MIN_MEMBERS`` virtual ranks settles waves, and with ``k =
0`` closes steps.  With runs of one step (``steps``: ``RunPlan.ends``
always true) every closed step is its own flush.  With no wave at all
(``no wave``: ``stage_wave`` refused) every op goes through the pump: the
oracle the closed steps must equal.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import RunSpec
from repro.config.build import build_impl, parallel_result_doc
from repro.config.runspec import LB_STRATEGY_NAMES
from repro.parallel.base import ParallelPICBase, RunPlan
from repro.runtime import ENGINE_BLOCKED, ENGINE_FINISHED, Scheduler
from repro.runtime import exchange as exchange_mod
from repro.runtime import scheduler as scheduler_mod
from repro.runtime.exchange import WAVE_MIN_MEMBERS
from repro.runtime.executor import make_executor
from repro.runtime.multiplex import EngineGroup


@pytest.fixture(scope="module")
def executors():
    """One executor of each kind, shared by every example."""
    made = {
        "serial": make_executor("serial"),
        "batched": make_executor("batched"),
        "process": make_executor("process", workers=1),
    }
    yield made
    for ex in made.values():
        ex.close()


def _state(engine, seen) -> dict:
    sched = engine.scheduler
    worlds, finals = seen.worlds[sched], seen.finals[sched]
    return {
        "clock": [t.hex() for t in sched.clock],
        "core_clock": [t.hex() for t in sched.core_clock],
        "core_busy": [t.hex() for t in sched.core_busy],
        "rank_busy": [t.hex() for t in sched.rank_busy],
        "traffic": (sched.transport.messages_sent, sched.transport.bytes_sent,
                    sched.collectives_completed),
        "coll_seq": [c._coll_seq for c in worlds],
        "result": parallel_result_doc(engine.result()),
        "finals": [finals[r] for r in range(sched.n_ranks)],
    }


class _Seen:
    """What the runs of one ``_observed()`` block did, by scheduler: the
    world communicators handed out, the final particle bytes per rank, per
    ``exchange_wave`` call whether its round left a stray, and how many
    steps ``_close_step`` closed."""

    def __init__(self) -> None:
        self.worlds, self.finals = {}, {}
        self.strays = []
        self.closed = 0


@contextmanager
def _observed(drive="closed"):
    """Record the runs of the block; ``drive`` ``"steps"`` ends every run
    after one step, ``"no wave"`` lets no group form a wave."""
    seen = _Seen()
    make_world, verify = Scheduler.make_world, ParallelPICBase._verify
    close_step, stage = Scheduler._close_step, scheduler_mod.stage_wave
    settle_wave = exchange_mod.exchange_wave

    def making(self, rank):
        comm = make_world(self, rank)
        seen.worlds.setdefault(self, []).append(comm)
        return comm

    def verifying(self, comm, state):
        finals = seen.finals.setdefault(comm._scheduler, {})
        finals[comm.world_rank] = state.particles.pack().tobytes()
        return (yield from verify(self, comm, state))

    def settling(*args):
        settled = settle_wave(*args)
        seen.strays.append(bool(settled[0][:, 3::4].any()))
        return settled

    def closing(self, *args):
        seen.closed += 1
        close_step(self, *args)

    ends = RunPlan.ends
    if drive == "no wave":
        stage = lambda batch: None  # noqa: E731
    if drive == "steps":
        ends = lambda self, t: True  # noqa: E731
    with mock.patch.object(Scheduler, "make_world", making), \
            mock.patch.object(ParallelPICBase, "_verify", verifying), \
            mock.patch.object(exchange_mod, "exchange_wave", settling), \
            mock.patch.object(Scheduler, "_close_step", closing), \
            mock.patch.object(scheduler_mod, "stage_wave", stage), \
            mock.patch.object(RunPlan, "ends", ends):
        yield seen


@st.composite
def runspecs(draw):
    impl = draw(st.sampled_from(["ampi", "ampi", "ampi", "mpi-2d", "mpi-2d-LB"]))
    fields = {"name": impl, "cores": draw(st.integers(1, 4))}
    if impl == "ampi":
        fields.update(
            overdecomposition=draw(st.integers(2, 8)),
            lb_interval=draw(st.integers(1, 4)),
            strategy=draw(st.sampled_from(LB_STRATEGY_NAMES)),
        )
    elif impl == "mpi-2d-LB":
        fields.update(lb_interval=draw(st.integers(1, 3)), border_width=1)
    return RunSpec.from_dict({
        "workload": {
            "cells": 16, "n_particles": draw(st.sampled_from([60, 400])),
            "steps": 6, "k": draw(st.sampled_from([0, 1])),
            "seed": draw(st.integers(0, 2**16)),
        },
        "impl": fields,
        "executor": {"kind": "serial", "kernel_backend": "python"},
    })


@settings(max_examples=30, deadline=None)
@given(
    rs=runspecs(),
    kind=st.sampled_from(["serial", "batched", "process", "steps", "no wave"]),
    budget=st.integers(1, 40),
    order_seed=st.integers(0, 2**16),
)
def test_every_drive_obeys_the_core_service_rule(executors, rs, kind, budget,
                                                  order_seed):
    with _observed() as seen:
        ref = build_impl(rs, executor=executors["serial"]).build_engine()
        ref.run()
    want = _state(ref, seen)
    assert want["result"]["verified"]
    if rs.impl.name == "ampi" and ref.scheduler.n_ranks >= WAVE_MIN_MEMBERS:
        assert seen.strays  # shared cores settled waves
        if rs.workload.k == 0:  # ... and, with no strays, closed steps
            assert seen.closed
    # Every wave without a stray closed its step.
    assert seen.closed == seen.strays.count(False)
    formed = (seen.strays, seen.closed)
    drive = kind if kind in ("steps", "no wave") else "closed"
    ex = executors.get(kind, executors["serial"])

    with _observed(drive) as seen:
        ticked = build_impl(rs, executor=ex).build_engine()
        while (status := ticked.tick(budget)) != ENGINE_FINISHED:
            if status == ENGINE_BLOCKED:
                ticked.flush()
    assert _state(ticked, seen) == want
    assert seen.closed == seen.strays.count(False)
    if kind == "no wave":
        assert not seen.strays and not seen.closed  # every op through the pump
    elif kind != "steps":
        # Whether a step closes depends on the batch, not on the executor.
        assert (seen.strays, seen.closed) == formed

    # Two copies of the run, time-sliced in a shuffled order over one
    # shared executor.
    with _observed(drive) as seen:
        group = EngineGroup(slice_ticks=budget, order_seed=order_seed, executor=ex)
        for tag in ("a", "b"):
            group.add(tag, build_impl(rs, executor=group.handle(tag))
                      .build_engine(engine_id=tag))
        group.run_all()
    assert seen.closed == seen.strays.count(False)
    for tag in group:
        assert _state(group.engine(tag), seen) == want, tag
