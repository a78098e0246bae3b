"""EngineGroup: interleaving-invariance of the round-robin, and its guards.

The multiplexer's contract: *any* slice order produces byte-identical
per-engine results, because each engine's virtual time is decoupled from
wall-clock drive order.  These scheduler-level tests drive heterogeneous
rank programs; the full-driver matrix (all three PIC implementations
interleaved, positions/traces/checkpoints compared) lives in
``tests/parallel/test_engine_equivalence.py``.
"""

from __future__ import annotations

import pytest

from repro.parallel.base import RunPlan
from repro.runtime import (
    DeadlockError,
    RuntimeConfigError,
    Scheduler,
    SimEngine,
    run_spmd,
)
from repro.runtime.costmodel import CostModel
from repro.runtime.executor import make_executor
from repro.runtime.multiplex import EngineGroup


#: A plan for run ops outside a driver; no wave forms, so nothing reads it.
_PLAN = RunPlan(2, set(), lambda t: False, None, CostModel(), 0.0)


class _FakeTask:
    particles = ()

    def run(self, workspace=None) -> None:
        pass


def _make_program(steps: int, weight: float):
    def program(comm):
        total = 0
        for step in range(steps):
            yield comm.run_steps(weight * (comm.rank + 1), _FakeTask(), _PLAN)
            yield comm.send(step, dst=(comm.rank + 1) % comm.size)
            total += yield comm.recv(src=(comm.rank - 1) % comm.size)
            yield comm.barrier()
        return (comm.rank, total)

    return program


#: Heterogeneous workloads: different lengths, weights and rank counts so
#: the engines genuinely finish at different (virtual and slice) times.
_WORKLOADS = {
    "short": (2, 3, 1e-4),
    "medium": (3, 4, 5e-5),
    "long": (4, 7, 2e-5),
}


def _solo_results():
    out = {}
    for name, (n, steps, weight) in _WORKLOADS.items():
        out[name] = run_spmd(
            n, _make_program(steps, weight), executor=make_executor("serial")
        )
    return out


def _build_group(**group_kw):
    group = EngineGroup(**group_kw)
    for name, (n, steps, weight) in _WORKLOADS.items():
        executor = (
            group.handle(name) if group.executor is not None
            else make_executor("serial")
        )
        sched = Scheduler(n, executor=executor)
        group.add(
            name, SimEngine(sched, [_make_program(steps, weight)] * n,
                            engine_id=name)
        )
    return group


def _key(res):
    return (
        res.total_time, tuple(res.times), res.messages_sent,
        res.bytes_sent, res.collectives, tuple(res.returns),
    )


@pytest.mark.parametrize(
    "group_kw",
    [
        pytest.param(dict(policy="fair", slice_ticks=3), id="fair"),
        pytest.param(
            dict(policy="fair", slice_ticks=2, order_seed=7), id="fair-shuffled"
        ),
        pytest.param(dict(policy="fair", slice_ticks=1000), id="coarse-slices"),
    ],
)
def test_interleaved_results_match_solo_runs(group_kw):
    solo = _solo_results()
    group = _build_group(**group_kw)
    results = group.run_all()
    assert set(results) == set(_WORKLOADS)
    for name in _WORKLOADS:
        assert _key(results[name]) == _key(solo[name]), (
            f"engine {name!r} diverged under {group_kw}"
        )
    assert group.slices >= len(_WORKLOADS)


def test_different_order_seeds_agree():
    a = _build_group(policy="fair", slice_ticks=2, order_seed=1).run_all()
    b = _build_group(policy="fair", slice_ticks=2, order_seed=2).run_all()
    for name in _WORKLOADS:
        assert _key(a[name]) == _key(b[name])


def test_benchmark_call_surface():
    """What ``benchmarks/layered``'s ``multiplex_32`` workload and tracer call.

    ``policy="fair"``, ``handle(tag)``, ``build_engine(engine_id=...)`` and
    ``start_batch``'s ``tag`` keyword are kept only for
    ``benchmarks/layered`` (``workloads.py::Multiplex32`` and
    ``tracing.py::_timed_start_batch``); the benchmark change that drops
    ``multiplex_32`` deletes them, and this test with them.
    """
    from repro.config import RunSpec
    from repro.config.build import build_executor, build_impl

    specs = [
        RunSpec.from_dict({
            "workload": {"cells": 32, "n_particles": 400, "steps": 4, "seed": seed},
            "impl": {"name": "mpi-2d", "cores": 4},
            "executor": {"kind": "batched", "kernel_backend": "python"},
        })
        for seed in (1, 2)
    ]
    solo = [build_impl(rs).run() for rs in specs]
    group = EngineGroup(policy="fair", slice_ticks=64, order_seed=7,
                        executor=build_executor(specs[0]))
    with group:
        for i, rs in enumerate(specs):
            tag = f"e{i}"
            assert group.handle(tag) is group.executor
            impl = build_impl(rs, executor=group.handle(tag))
            group.add(tag, impl.build_engine(engine_id=tag))
        results = group.run_all()
    for i, ref in enumerate(solo):
        got = results[f"e{i}"]
        assert (got.total_time, got.messages_sent) == (ref.total_time, ref.messages_sent)
        assert got.verification.ok

    for kind, workers in (("serial", 0), ("process", 1)):
        with make_executor(kind, workers=workers) as ex:
            handle = ex.start_batch([(0, _FakeTask())], tag=None)
            handle.finish()


def test_deadlock_inside_a_slice_names_the_engine():
    """Satellite: the deadlock diagnosis survives multiplexing — blocked
    ranks are still named, and the note says which engine stalled."""

    def bad(comm):
        yield comm.recv(src=(comm.rank + 1) % comm.size, tag=0)

    group = EngineGroup(policy="fair", slice_ticks=4)
    sched = Scheduler(2, executor=make_executor("serial"))
    group.add("bad", SimEngine(sched, [bad] * 2, engine_id="bad"))
    with pytest.raises(DeadlockError, match=r"blocked ranks: \[0, 1\]") as ei:
        group.run_all()
    assert "rank 0: parked on recv" in str(ei.value)
    notes = getattr(ei.value, "__notes__", [])
    assert any("engine 'bad' in an EngineGroup slice" in n for n in notes)


class TestGuards:
    def test_unknown_policy(self):
        with pytest.raises(RuntimeConfigError, match="unknown multiplex policy"):
            EngineGroup(policy="lottery")

    def test_nonpositive_slice(self):
        with pytest.raises(RuntimeConfigError, match="slice_ticks"):
            EngineGroup(slice_ticks=0)

    def test_empty_group(self):
        with pytest.raises(RuntimeConfigError, match="no engines"):
            EngineGroup().run_all()

    def test_duplicate_name(self):
        group = _build_group()
        sched = Scheduler(2, executor=make_executor("serial"))
        eng = SimEngine(sched, [_make_program(1, 1e-5)] * 2)
        with pytest.raises(RuntimeConfigError, match="already in group"):
            group.add("short", eng)

    def test_handle_without_shared_executor(self):
        with pytest.raises(RuntimeConfigError, match="no shared executor"):
            EngineGroup().handle("x")

    def test_membership_introspection(self):
        group = _build_group()
        assert len(group) == len(_WORKLOADS)
        assert set(group) == set(_WORKLOADS)
        assert group.engine("short") is not None
        group.run_all()
        assert all(group.engine(name).finished for name in group)
