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
rank and core clocks, core and rank busy seconds, the transport's traffic
and the result document.  ``mpi-2d`` and ``mpi-2d-LB`` (one rank per
core, order-invariant) are the controls.

Two executors run the rule two ways.  On the in-process ones a settled
round on shared cores is clocked in bulk by ``Scheduler._clock_round``,
which replays the round-robin's service order; every AMPI example with at
least ``WAVE_MIN_MEMBERS`` virtual ranks reaches that path.  The process
executor settles no wave, so its drives run every op through the pump:
the oracle the replay must equal.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import RunSpec
from repro.config.build import build_impl, parallel_result_doc
from repro.config.runspec import LB_STRATEGY_NAMES
from repro.core.kernel import WAVE_MIN_MEMBERS
from repro.runtime import ENGINE_BLOCKED, ENGINE_FINISHED, Scheduler
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


def _state(engine) -> dict:
    sched = engine.scheduler
    return {
        "clock": [t.hex() for t in sched.clock],
        "core_clock": [t.hex() for t in sched.core_clock],
        "core_busy": [t.hex() for t in sched.core_busy],
        "rank_busy": [t.hex() for t in sched.rank_busy],
        "traffic": (sched.transport.messages_sent, sched.transport.bytes_sent,
                    sched.collectives_completed),
        "result": parallel_result_doc(engine.result()),
    }


@contextmanager
def _clock_rounds():
    """What each ``Scheduler._clock_round`` call returned (True: clocked in
    bulk)."""
    seen = []
    real = Scheduler._clock_round

    def counting(self, wave):
        done = real(self, wave)
        seen.append(done)
        return done

    with mock.patch.object(Scheduler, "_clock_round", counting):
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
    kind=st.sampled_from(["serial", "batched", "process"]),
    budget=st.integers(1, 40),
    order_seed=st.integers(0, 2**16),
)
def test_every_drive_obeys_the_core_service_rule(executors, rs, kind, budget,
                                                  order_seed):
    with _clock_rounds() as clocked:
        ref = build_impl(rs, executor=executors["serial"]).build_engine()
        ref.run()
    want = _state(ref)
    assert want["result"]["verified"]
    if rs.impl.name == "ampi" and ref.scheduler.n_ranks >= WAVE_MIN_MEMBERS:
        assert True in clocked  # shared-core rounds reached the bulk path
    ex = executors[kind]

    with _clock_rounds() as clocked:
        ticked = build_impl(rs, executor=ex).build_engine()
        while (status := ticked.tick(budget)) != ENGINE_FINISHED:
            if status == ENGINE_BLOCKED:
                ticked.flush()
    assert _state(ticked) == want
    if kind == "process":
        assert not clocked  # every op through the pump

    # Two copies of the run, time-sliced in a shuffled order over one
    # shared executor.
    group = EngineGroup(slice_ticks=budget, order_seed=order_seed, executor=ex)
    for tag in ("a", "b"):
        group.add(tag, build_impl(rs, executor=group.handle(tag))
                  .build_engine(engine_id=tag))
    group.run_all()
    for tag in group:
        assert _state(group.engine(tag)) == want, tag
