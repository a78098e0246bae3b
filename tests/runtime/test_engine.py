"""SimEngine: incremental drive equivalence, re-entry guard, lifecycle.

The engine's contract is that *where control returns to the caller* is
the only thing ``tick()`` budgets change — every simulated quantity
(clocks, message counters, results) is identical to a blocking
``Scheduler.run``.  The full three-implementation acceptance matrix
lives in ``tests/parallel/test_engine_equivalence.py``; these are the
scheduler-level unit tests.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.spec import Distribution, PICSpec
from repro.parallel import AmpiPIC, Mpi2dPIC
from repro.parallel.base import RunPlan
from repro.runtime import (
    ENGINE_BLOCKED,
    ENGINE_FINISHED,
    ENGINE_RUNNING,
    DeadlockError,
    RuntimeConfigError,
    Scheduler,
    SimEngine,
    run_spmd,
)
from repro.runtime.costmodel import CostModel
from repro.runtime.executor import make_executor


#: A plan for run ops outside a driver; no wave forms, so nothing reads it.
_PLAN = RunPlan(2, set(), lambda t: False, None, CostModel(), 0.0)


class _FakeTask:
    """Minimal executor task: the serial backend just calls ``run()``."""

    particles = ()

    def run(self, workspace=None) -> None:
        pass


def _ring_program(comm):
    """A few steps of compute-and-shift around a ring (executor-parked)."""
    for step in range(4):
        yield comm.run_steps(1e-4 * (comm.rank + 1), _FakeTask(), _PLAN)
        yield comm.send(("tok", step, comm.rank), dst=(comm.rank + 1) % comm.size)
        yield comm.recv(src=(comm.rank - 1) % comm.size)
        yield comm.barrier()
    return comm.rank


def _park_out_of_order(comm):
    """Rank 0 waits for the last rank's message before it parks, so every
    step parks ranks 1, 0, 2 (of three)."""
    for step in range(3):
        if comm.rank == 0:
            yield comm.recv(src=comm.size - 1)
        elif comm.rank == comm.size - 1:
            yield comm.send(step, dst=0)
        yield comm.run_steps(1e-4, _FakeTask(), _PLAN)
        yield comm.compute(1e-5)
    return comm.rank


def _fresh_engine(n_ranks=3):
    sched = Scheduler(n_ranks, executor=make_executor("serial"))
    return SimEngine(sched, [_ring_program] * n_ranks)


def _result_tuple(res):
    return (
        res.total_time, tuple(res.times), res.messages_sent,
        res.bytes_sent, res.collectives, tuple(res.returns),
    )


class TestDriveEquivalence:
    def test_run_matches_blocking_run_spmd(self):
        ref = run_spmd(3, _ring_program, executor=make_executor("serial"))
        got = _fresh_engine().run()
        assert _result_tuple(got) == _result_tuple(ref)

    @pytest.mark.parametrize("budget", [1, 2, 7, None])
    def test_tick_stepped_matches_run(self, budget):
        ref = _fresh_engine().run()
        eng = _fresh_engine()
        while True:
            status = eng.tick(budget)
            if status == ENGINE_FINISHED:
                break
            if status == ENGINE_BLOCKED:
                eng.flush()
        assert _result_tuple(eng.result()) == _result_tuple(ref)

    def test_uneven_budget_sequence_matches_run(self):
        ref = _fresh_engine().run()
        eng = _fresh_engine()
        budgets = [1, 5, 2, 3]
        i = 0
        while not eng.finished:
            if eng.tick(budgets[i % len(budgets)]) == ENGINE_BLOCKED:
                eng.flush()
            i += 1
        assert _result_tuple(eng.result()) == _result_tuple(ref)

    def test_blocked_status_and_flush(self):
        eng = _fresh_engine()
        status = eng.tick()
        assert status == ENGINE_BLOCKED
        assert eng.status == ENGINE_BLOCKED
        assert not eng.finished
        assert eng.flush() in (ENGINE_RUNNING, ENGINE_BLOCKED, ENGINE_FINISHED)
        eng.run()
        assert eng.finished

    def test_flush_wakes_the_whole_batch_in_park_order(self, monkeypatch):
        """The core-service rule: a flush finishes the batch and makes every
        member runnable, in park order; the round-robin that follows, not
        the flush, advances them."""
        advanced = []
        real = Scheduler._advance_one

        def advance_one(self, ready):
            advanced.append(ready[0])
            real(self, ready)

        monkeypatch.setattr(Scheduler, "_advance_one", advance_one)
        eng = SimEngine(Scheduler(3, executor=make_executor("serial")),
                        [_park_out_of_order] * 3)
        sched = eng.scheduler
        orders = []
        while eng.tick() == ENGINE_BLOCKED:
            parked = [r for r, _task in sched._pending_exec]
            n, clocks = len(advanced), list(sched.clock)
            eng.flush()
            assert len(advanced) == n and sched.clock == clocks
            assert list(eng._ready) == parked
            orders.append(parked)
        assert orders == [[1, 0, 2]] * 3

    def test_flush_without_pending_is_a_noop(self):
        eng = _fresh_engine()
        assert eng.flush() == ENGINE_RUNNING

    def test_virtual_now_is_monotone(self):
        eng = _fresh_engine()
        stamps = [max(eng.scheduler.clock)]
        while not eng.finished:
            if eng.tick(3) == ENGINE_BLOCKED:
                eng.flush()
            stamps.append(max(eng.scheduler.clock))
        assert stamps == sorted(stamps)
        assert stamps[-1] == eng.spmd_result().total_time

    def test_tick_after_finish_is_stable(self):
        eng = _fresh_engine()
        eng.run()
        assert eng.tick() == ENGINE_FINISHED
        assert eng.tick(5) == ENGINE_FINISHED


class TestGuards:
    def test_scheduler_is_not_rerunnable(self):
        """Satellite: a second run on the same scheduler fails loudly
        instead of silently reusing stale clocks."""
        sched = Scheduler(2, executor=make_executor("serial"))
        sched.run([_ring_program] * 2)
        with pytest.raises(RuntimeConfigError, match="not reusable"):
            sched.run([_ring_program] * 2)

    def test_second_engine_bind_raises(self):
        sched = Scheduler(2, executor=make_executor("serial"))
        SimEngine(sched, [_ring_program] * 2)
        with pytest.raises(RuntimeConfigError, match="already been run"):
            SimEngine(sched, [_ring_program] * 2)

    def test_program_count_mismatch(self):
        sched = Scheduler(3, executor=make_executor("serial"))
        with pytest.raises(RuntimeConfigError, match="2 programs for 3 ranks"):
            SimEngine(sched, [_ring_program] * 2)

    def test_result_before_finish_raises(self):
        eng = _fresh_engine()
        with pytest.raises(RuntimeConfigError, match="not finished"):
            eng.result()
        with pytest.raises(RuntimeConfigError, match="not finished"):
            eng.spmd_result()

    def test_pause_without_checkpointer_raises(self):
        eng = _fresh_engine()
        with pytest.raises(RuntimeConfigError, match="checkpointer"):
            eng.pause()


class TestDeadlockFromTick:
    def test_tick_reports_blocked_ranks(self):
        """Satellite: the deadlock diagnosis from an incremental drive
        names the blocked ranks exactly as a blocking run does."""

        def prog(comm):
            yield comm.recv(src=(comm.rank + 1) % comm.size, tag=0)

        sched = Scheduler(2, executor=make_executor("serial"))
        eng = SimEngine(sched, [prog] * 2)
        with pytest.raises(DeadlockError, match=r"blocked ranks: \[0, 1\]") as ei:
            eng.tick()
        assert "rank 0: parked on recv" in str(ei.value)
        assert ei.value.blocked_ranks == [0, 1]

    def test_budgeted_tick_still_raises(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.barrier()
            return None

        sched = Scheduler(2, executor=make_executor("serial"))
        eng = SimEngine(sched, [prog] * 2)
        with pytest.raises(DeadlockError, match="collective"):
            while eng.tick(1) != ENGINE_FINISHED:
                if eng.status == ENGINE_BLOCKED:
                    eng.flush()


_SMALL = PICSpec(
    cells=16, n_particles=200, steps=3, distribution=Distribution.UNIFORM,
)


class _ExplodingPIC(Mpi2dPIC):
    """Fails after the compute phases have exercised the executor."""

    def _verify(self, comm, state):
        raise RuntimeError("boom")
        yield  # pragma: no cover - generator marker


class TestExecutorLifecycle:
    def test_context_manager_reaps_worker_processes(self):
        """Satellite: ``with make_executor(...)`` leaves no live workers."""
        with make_executor("process", workers=2) as ex:
            result = Mpi2dPIC(_SMALL, 4, executor=ex).run()
            assert result.verification.ok
            procs = list(ex._procs)
            assert procs, "pool should have spawned workers"
        assert ex._procs == []
        assert all(not p.is_alive() for p in procs)

    def test_driver_error_path_reaps_default_pool(self, monkeypatch):
        """A failing run must not leak the lazily-acquired default pool."""
        import repro.runtime.executor as executor_module

        pool = make_executor("process", workers=2)
        monkeypatch.setattr(executor_module, "_DEFAULT", pool)
        with pytest.raises(RuntimeError, match="boom"):
            _ExplodingPIC(_SMALL, 4).run()
        assert pool._procs == [], "error path left worker processes alive"

    def test_driver_close_is_idempotent(self):
        impl = Mpi2dPIC(_SMALL, 4, executor=make_executor("serial"))
        with impl:
            assert impl.run().verification.ok
        impl.close()

    def test_run_spmd_error_path_reaps_default_pool(self, monkeypatch):
        import repro.runtime.executor as executor_module

        def prog(comm):
            yield comm.run_steps(1e-5, _FakeTask(), _PLAN)
            raise RuntimeError("rank exploded")

        pool = make_executor("process", workers=2)
        monkeypatch.setattr(executor_module, "_DEFAULT", pool)
        with pytest.raises(RuntimeError, match="rank exploded"):
            run_spmd(2, prog)
        assert pool._procs == []


class TestReclaim:
    @pytest.mark.parametrize("impl", ["mpi-2d", "ampi"])
    def test_a_finished_run_is_freed_without_the_cycle_collector(self, impl):
        """Nothing of a finished run refers back to its driver, engine or
        scheduler, so reference counting frees all three as soon as the
        caller drops them: a sweep worker or an ``EngineGroup`` keeps no
        finished run's clocks and states until a full collection."""
        spec = PICSpec(cells=32, n_particles=640, steps=4, seed=3)
        executor = make_executor("serial")
        if impl == "mpi-2d":
            driver = Mpi2dPIC(spec, 16, executor=executor)
        else:
            driver = AmpiPIC(spec, 4, overdecomposition=4, lb_interval=2,
                             executor=executor)
        engine = driver.build_engine()
        assert engine.run().verification.ok
        refs = [weakref.ref(obj) for obj in (driver, engine, engine.scheduler)]
        gc.disable()
        try:
            del driver, engine
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()
