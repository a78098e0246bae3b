"""Unit tests for the compute-execution backends (:mod:`repro.runtime.executor`)."""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernel import (
    KERNEL_BLOCK,
    KernelWorkspace,
    advance,
    advance_arrays,
    advance_reference,
)
from repro.core.mesh import Mesh
from repro.core.particles import ParticleArray
from repro.runtime import ops
from repro.runtime import executor as executor_mod
from repro.runtime.errors import ExecutorWorkerLostError
from repro.runtime.executor import (
    InProcessExecutor,
    ProcessExecutor,
    PushTask,
    ShmArena,
    _partition,
    make_executor,
)
from repro.core.kernel_compiled import CompiledKernelUnavailable, resolve_backend
from repro.instrument import ExecutorTrace
from repro.runtime.scheduler import run_spmd
from tests.core.backend_conformance import BACKENDS


def _particles(n: int, mesh: Mesh, seed: int = 3) -> ParticleArray:
    rng = np.random.default_rng(seed)
    p = ParticleArray.empty(n)
    p.x[:] = rng.uniform(0.0, mesh.L, n)
    p.y[:] = rng.uniform(0.0, mesh.L, n)
    p.vx[:] = rng.normal(size=n) * 0.1
    p.vy[:] = rng.normal(size=n) * 0.1
    p.q[:] = np.where(rng.integers(0, 2, n) == 0, 1.0, -1.0)
    return p


def _push_batch(mesh, dt, sizes, seed0=10):
    return [
        (r, PushTask(mesh, _particles(n, mesh, seed=seed0 + r), dt))
        for r, n in enumerate(sizes)
    ]


def _serial_oracle(mesh, dt, sizes, seed0=10):
    out = []
    for r, n in enumerate(sizes):
        p = _particles(n, mesh, seed=seed0 + r)
        advance(mesh, p, dt)
        out.append(p)
    return out


def _assert_fields_equal(p, q):
    for f in ("x", "y", "vx", "vy", "q", "pid"):
        np.testing.assert_array_equal(getattr(p, f), getattr(q, f))


class TestAdvanceArrays:
    def test_matches_advance_on_container(self):
        mesh = Mesh(cells=8)
        a = _particles(500, mesh)
        b = a.copy()
        advance(mesh, a, 0.01)
        advance_arrays(mesh, b.x, b.y, b.vx, b.vy, b.q, 0.01)
        _assert_fields_equal(a, b)

    def test_segments_of_concatenation_match(self):
        """Pushing a concatenation equals pushing the parts: chunk-invariant."""
        mesh = Mesh(cells=8)
        parts = [_particles(n, mesh, seed=20 + i) for i, n in enumerate((7, 300, 40))]
        fused = ParticleArray.concatenate(parts)
        advance_arrays(mesh, fused.x, fused.y, fused.vx, fused.vy, fused.q, 0.01)
        o = 0
        for p in parts:
            advance(mesh, p, 0.01)
            n = len(p)
            np.testing.assert_array_equal(fused.x[o : o + n], p.x)
            np.testing.assert_array_equal(fused.vy[o : o + n], p.vy)
            o += n

    def test_own_workspace_is_independent(self):
        mesh = Mesh(cells=8)
        a = _particles(100, mesh)
        b = a.copy()
        advance_arrays(mesh, a.x, a.y, a.vx, a.vy, a.q, 0.01)
        advance_arrays(
            mesh, b.x, b.y, b.vx, b.vy, b.q, 0.01, workspace=KernelWorkspace()
        )
        _assert_fields_equal(a, b)


class TestPartition:
    def test_covers_all_items_exactly_once(self):
        bins = _partition([5, 1, 9, 3, 3, 7], 3)
        flat = sorted(i for b in bins for i in b)
        assert flat == list(range(6))

    def test_deterministic(self):
        sizes = [17, 17, 4, 9, 0, 25]
        assert _partition(sizes, 4) == _partition(sizes, 4)

    def test_largest_first_balance(self):
        bins = _partition([10, 10, 1, 1], 2)
        loads = [sum([10, 10, 1, 1][i] for i in b) for b in bins]
        assert sorted(loads) == [11, 11]

    def test_more_workers_than_tasks(self):
        bins = _partition([3], 4)
        assert bins[0] == [0] and all(not b for b in bins[1:])


class TestShmArena:
    def test_alloc_is_writable_and_located(self):
        arena = ShmArena(min_segment_bytes=1 << 12)
        try:
            a = arena.alloc(100, np.float64)
            a[:] = np.arange(100.0)
            loc = arena.locate(a)
            assert loc is not None
            name, off = loc
            assert isinstance(name, str) and off >= 0
            assert arena.locate(np.zeros(4)) is None
        finally:
            del a
            arena.close()

    def test_offsets_are_aligned(self):
        arena = ShmArena(min_segment_bytes=1 << 12)
        try:
            arrs = [arena.alloc(3, np.float64) for _ in range(4)]
            offs = [arena.locate(a)[1] for a in arrs]
            assert all(o % 64 == 0 for o in offs)
            assert len(set(offs)) == len(offs)  # distinct allocations
        finally:
            del arrs
            arena.close()

    def test_recycles_when_all_arrays_dead(self):
        arena = ShmArena(min_segment_bytes=1 << 12)
        try:
            a = arena.alloc(64, np.float64)
            first_off = arena.locate(a)[1]
            bytes_before = arena.total_bytes
            del a
            b = arena.alloc(64, np.float64)
            # Same bump offset reused, no new segment.
            assert arena.locate(b)[1] == first_off
            assert arena.total_bytes == bytes_before
        finally:
            del b
            arena.close()

    def test_grows_new_segment_when_full(self):
        arena = ShmArena(min_segment_bytes=1 << 12)
        try:
            a = arena.alloc(400, np.float64)  # ~3.2 KB of the 4 KB segment
            b = arena.alloc(400, np.float64)  # must open a second segment
            assert arena.total_bytes > 1 << 12
            assert arena.locate(a)[0] != arena.locate(b)[0]
        finally:
            del a, b
            arena.close()

    def test_closed_arena_rejects_alloc(self):
        arena = ShmArena()
        arena.close()
        with pytest.raises(RuntimeError, match="closed"):
            arena.alloc(8, np.float64)


class TestRebaseBacking:
    def test_rebase_preserves_content_and_future_growth(self):
        arena = ShmArena(min_segment_bytes=1 << 14)
        try:
            mesh = Mesh(cells=8)
            p = _particles(50, mesh)
            ref = p.copy()
            p.rebase_backing(arena.alloc)
            _assert_fields_equal(p, ref)
            assert arena.locate(p.x) is not None
            # Growth after rebasing stays arena-resident.
            p.extend(_particles(300, mesh, seed=9))
            assert arena.locate(p.x) is not None
            assert len(p) == 350
        finally:
            del p
            arena.close()


class TestBackends:
    @pytest.mark.parametrize("name", ["serial", "batched"])
    def test_backend_matches_serial_oracle(self, name):
        mesh = Mesh(cells=8)
        sizes = (40, 0, 333, 17)
        batch = _push_batch(mesh, 0.01, sizes)
        make_executor(name).run_batch(batch)
        for (_, task), oracle in zip(batch, _serial_oracle(mesh, 0.01, sizes)):
            _assert_fields_equal(task.particles, oracle)

    def test_process_backend_matches_serial_oracle(self):
        mesh = Mesh(cells=8)
        sizes = (40, 0, 333, 17)
        batch = _push_batch(mesh, 0.01, sizes)
        ex = ProcessExecutor(workers=2)
        try:
            ex.run_batch(batch)
        finally:
            stats = ex.stats()
            ex.close()
        for (_, task), oracle in zip(batch, _serial_oracle(mesh, 0.01, sizes)):
            _assert_fields_equal(task.particles, oracle)
        assert stats["tasks_executed"] == 3  # empty task skipped
        assert stats["particles_pushed"] == sum(sizes)
        assert stats["pool_startup_s"] > 0.0

    def test_start_method_comes_from_the_argument_only(self, monkeypatch):
        # An ambient REPRO_MP_CONTEXT used to pick the start method behind
        # repro.config.env's back (forkserver left children the layered
        # benchmark's supervisor reported as survivors).
        monkeypatch.setenv("REPRO_MP_CONTEXT", "forkserver")
        for given, want in ((None, "spawn"), ("fork", "fork")):
            ex = ProcessExecutor(workers=1, mp_context=given)
            try:
                assert ex._ctx_name == want
            finally:
                ex.close()

    def test_process_pool_reused_across_batches(self):
        mesh = Mesh(cells=8)
        ex = ProcessExecutor(workers=2)
        try:
            ex.run_batch(_push_batch(mesh, 0.01, (50, 60)))
            startup = ex.pool_startup_s
            ex.run_batch(_push_batch(mesh, 0.01, (50, 60), seed0=40))
            assert ex.pool_startup_s == startup  # no re-spawn
            assert ex.stats()["batches"] == 2
        finally:
            ex.close()

    def test_close_is_idempotent(self):
        ex = ProcessExecutor(workers=1)
        ex.run_batch(_push_batch(Mesh(cells=8), 0.01, (10,)))
        ex.close()
        ex.close()

    def test_reusable_after_close(self):
        """``close()`` leaves a live arena behind, so the same executor
        runs again — ``Scheduler.close()`` closes the cached default
        executor between runs — and a second close leaks no segment."""
        mesh = Mesh(cells=8)
        sizes = (40, 0, 333, 17)
        ex = ProcessExecutor(workers=2)
        names = set()
        for _ in range(2):
            batch = _push_batch(mesh, 0.01, sizes)
            try:
                ex.run_batch(batch)
                names |= {seg.shm.name for seg in ex.arena._segments}
            finally:
                ex.close()
            for (_, task), oracle in zip(batch, _serial_oracle(mesh, 0.01, sizes)):
                _assert_fields_equal(task.particles, oracle)
        assert len(names) >= 2  # a fresh arena segment per life
        assert not [n for n in names if os.path.exists(f"/dev/shm/{n}")]

    def test_batched_stats_count_fusions(self):
        mesh = Mesh(cells=8)
        ex = make_executor("batched")
        ex.run_batch(_push_batch(mesh, 0.01, (30, 30, 30)))
        assert ex.stats() == {"batches": 1, "fused_tasks": 3}

    def test_make_executor_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("gpu")


class TestRingDispatch:
    """The pool's dispatch path: one bin per worker per batch, exact."""

    def test_store_regrown_between_batches_stays_exact(self):
        """Growth past capacity moves a rank's store to a new arena
        allocation; the next batch must push the new one."""
        mesh = Mesh(cells=8)
        sizes = (50, 60, 70)
        batch = _push_batch(mesh, 0.01, sizes)
        ex = ProcessExecutor(workers=2)
        try:
            for _ in range(3):
                ex.run_batch(batch)
            p = batch[0][1].particles
            before = ex.arena.locate(p.x)
            p.reserve(len(p) * 10)
            assert ex.arena.locate(p.x) not in (None, before)
            for _ in range(2):
                ex.run_batch(batch)
        finally:
            ex.close()
        oracles = _serial_oracle(mesh, 0.01, sizes)
        for p in oracles:
            for _ in range(4):
                advance(mesh, p, 0.01)
        for (_, task), oracle in zip(batch, oracles):
            _assert_fields_equal(task.particles, oracle)

    def test_many_tasks_on_one_worker_go_as_one_message(self):
        mesh = Mesh(cells=8)
        sizes = tuple(3 + i % 5 for i in range(2 * 64 + 3))
        batch = _push_batch(mesh, 0.01, sizes)
        ex = ProcessExecutor(workers=1)
        sent = []
        send = ex._send

        def counting(w, msg, ranks):
            sent.append((w, len(msg)))
            send(w, msg, ranks)

        ex._send = counting
        try:
            for _ in range(2):
                ex.run_batch(batch)
        finally:
            ex.close()
        assert sent == [(0, len(sizes))] * 2
        oracles = _serial_oracle(mesh, 0.01, sizes)
        for p in oracles:
            advance(mesh, p, 0.01)
        for (_, task), oracle in zip(batch, oracles):
            _assert_fields_equal(task.particles, oracle)

    def test_invalid_dispatch_and_ring_slots_rejected(self):
        for removed in ("dispatch", "ring_slots"):
            with pytest.raises(TypeError, match=removed):
                ProcessExecutor(workers=1, **{removed: 2})
            with pytest.raises(TypeError, match=removed):
                make_executor("process", workers=1, **{removed: 2})

    def test_ensure_ready_is_idempotent(self):
        ex = ProcessExecutor(workers=1)
        try:
            ex.ensure_ready()
            startup = ex.pool_startup_s
            assert startup > 0.0
            ex.ensure_ready()
            assert ex.pool_startup_s == startup
        finally:
            ex.close()

    def test_dispatch_spans_carry_cpu_seconds(self):
        """Dispatch spans carry parent CPU seconds — the figure
        ``dispatch_breakdown`` reports per task (wall time would
        double-count worker kernel time on oversubscribed hosts)."""
        mesh = Mesh(cells=8)
        tr = ExecutorTrace()
        ex = ProcessExecutor(workers=1, exec_tracer=tr)
        try:
            ex.run_batch(_push_batch(mesh, 0.01, (40, 50)))
        finally:
            ex.close()
        spans = [s for s in tr.spans if s.phase == "dispatch"]
        assert spans
        for s in spans:
            assert s.args_dict()["cpu_s"] >= 0.0


def _in_dev_shm(names):
    return [n for n in names if os.path.exists(f"/dev/shm/{n}")]


class TestWorkerLoss:
    """A killed pool worker is a typed error naming it, never a hang."""

    def test_killed_between_batches(self):
        mesh = Mesh(cells=8)
        sizes = (40, 333, 17, 90)
        ex = ProcessExecutor(workers=2)
        try:
            ex.run_batch(_push_batch(mesh, 0.01, sizes))
            victim = ex._procs[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(5.0)
            assert not victim.is_alive()
            t0 = time.monotonic()
            with pytest.raises(ExecutorWorkerLostError, match="SIGKILL") as err:
                ex.run_batch(_push_batch(mesh, 0.01, sizes, seed0=40))
            assert time.monotonic() - t0 < 5.0
            names = {seg.shm.name for seg in ex.arena._segments}
        finally:
            ex.close()
        assert err.value.worker == 1 and err.value.cause == "SIGKILL"
        assert err.value.ranks == _partition(list(sizes), 2)[1] == [0, 2, 3]
        assert names and not _in_dev_shm(names)

    def test_killed_mid_batch(self, monkeypatch):
        # Forked workers inherit the patch: each dies on its first task.
        monkeypatch.setattr(
            executor_mod, "_advance_fields",
            lambda *a, **k: os.kill(os.getpid(), signal.SIGKILL),
        )
        mesh = Mesh(cells=8)
        ex = ProcessExecutor(workers=2, mp_context="fork")
        try:
            t0 = time.monotonic()
            with pytest.raises(ExecutorWorkerLostError, match="SIGKILL") as err:
                ex.run_batch(_push_batch(mesh, 0.01, (40, 0, 333, 17)))
            assert time.monotonic() - t0 < 5.0
            names = {seg.shm.name for seg in ex.arena._segments}
        finally:
            ex.close()
        # Rank 0 (40 particles) shares worker 1's bin with rank 3.
        assert err.value.worker == 1 and err.value.cause == "SIGKILL"
        assert err.value.ranks == [0, 3]
        assert names and not _in_dev_shm(names)

    @pytest.mark.parametrize("mp_context", ["spawn", "fork"])
    def test_pool_restarts_after_a_loss(self, mp_context):
        """The next batch boots a fresh pool on the same arena.  Under fork
        the workers must share this process's resource tracker, or a dead
        worker's own tracker unlinks the segments it attached."""
        mesh = Mesh(cells=8)
        sizes = (40, 0, 333, 17)
        ex = ProcessExecutor(workers=2, mp_context=mp_context)
        try:
            ex.run_batch(_push_batch(mesh, 0.01, sizes))
            victim = ex._procs[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(5.0)
            assert not victim.is_alive()
            time.sleep(0.5)  # time for a tracker of the victim's own to unlink
            with pytest.raises(ExecutorWorkerLostError):
                ex.run_batch(_push_batch(mesh, 0.01, sizes))
            batch = _push_batch(mesh, 0.01, sizes)
            ex.run_batch(batch)
            names = {seg.shm.name for seg in ex.arena._segments}
            assert len(_in_dev_shm(names)) == len(names)
        finally:
            ex.close()
        for (_, task), oracle in zip(batch, _serial_oracle(mesh, 0.01, sizes)):
            _assert_fields_equal(task.particles, oracle)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4, reason="needs >= 4 cores to see overlap"
)
def test_concurrent_prewarm_startup_is_flat():
    """Worker boot overlaps: a 4-worker pool must not cost 4x a 1-worker
    pool's startup (generous 2.5x bound for scheduler noise)."""
    t_one = t_four = None
    for workers in (1, 4):
        ex = ProcessExecutor(workers=workers)
        try:
            ex.ensure_ready()
            if workers == 1:
                t_one = ex.pool_startup_s
            else:
                t_four = ex.pool_startup_s
        finally:
            ex.close()
    assert t_four < 2.5 * t_one, (t_one, t_four)


class TestSchedulerBatching:
    def test_compute_tasks_flush_as_one_batch(self):
        """All ranks parked on the same step's push reach the executor together."""
        mesh = Mesh(cells=8)
        seen: list[list[int]] = []

        class Spy(InProcessExecutor):
            def run_batch(self, batch):
                seen.append([r for r, _ in batch])
                super().run_batch(batch)

        def program(comm):
            p = _particles(20, mesh, seed=comm.rank)
            for _ in range(2):
                yield comm.compute(1e-6, task=PushTask(mesh, p, 0.01))
                yield comm.barrier()
            return len(p)

        result = run_spmd(3, program, executor=Spy())
        assert result.returns == [20, 20, 20]
        assert seen == [[0, 1, 2], [0, 1, 2]]

    def test_taskless_compute_unchanged(self):
        def program(comm):
            yield comm.compute(1.0)
            return comm.rank

        result = run_spmd(2, program, executor=make_executor("serial"))
        assert result.total_time == 1.0

    def test_task_runs_before_rank_resumes(self):
        """The rank observes its own push done immediately after the yield."""
        mesh = Mesh(cells=8)

        def program(comm):
            p = _particles(10, mesh, seed=5)
            before = p.x.copy()
            yield comm.compute(1e-6, task=PushTask(mesh, p, 0.01))
            return bool(np.any(p.x != before))

        result = run_spmd(2, program, executor=make_executor("batched"))
        assert result.returns == [True, True]

    def test_compute_op_carries_task(self):
        op = ops.ComputeOp(1.0, task="marker")
        assert op.task == "marker"
        assert ops.ComputeOp(1.0).task is None


class TestKernelBackendPlumbing:
    """Backend selection and warm-up accounting."""

    def test_default_backend_is_python(self):
        for ex in (InProcessExecutor(), ProcessExecutor(workers=1)):
            assert ex.kernel_backend == "python"
            ex.close()

    def test_auto_resolves_eagerly_to_a_concrete_backend(self):
        ex = InProcessExecutor(kernel_backend="auto")
        assert ex.kernel_backend == resolve_backend("auto") != "auto"

    def test_no_compiler_fails_at_construction(self, no_compiler):
        for name in ("serial", "batched", "process"):
            with pytest.raises(CompiledKernelUnavailable):
                make_executor(name, workers=1, kernel_backend="compiled")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            InProcessExecutor(kernel_backend="fortran")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            InProcessExecutor(kernel_backend="compiled-parallel")

    def test_traced_run_stays_bitwise_exact(self):
        """The wall-clock timing around each push observes, never perturbs."""
        mesh = Mesh(cells=8)
        ex = InProcessExecutor(exec_tracer=ExecutorTrace())
        batch = _push_batch(mesh, 0.05, [3000, 700])
        ex.run_batch(batch)
        for (_, task), oracle in zip(batch, _serial_oracle(mesh, 0.05, [3000, 700])):
            _assert_fields_equal(task.particles, oracle)

    def test_process_stats_report_backend_and_warmup(self):
        ex = ProcessExecutor(workers=1)
        ex.start()
        try:
            stats = ex.stats()
        finally:
            ex.close()
        assert stats["kernel_backend"] == "python"
        assert stats["jit_warmup_s"] == 0.0  # python backend: no JIT to warm

    def test_execute_spans_per_chunk_or_task(self):
        """One ``execute`` span per fused chunk or in-place task."""
        mesh = Mesh(cells=8)
        tr = ExecutorTrace()
        ex = InProcessExecutor(exec_tracer=tr)
        sizes = [500, KERNEL_BLOCK // 2, 600, 700]
        ex.run_batch(_push_batch(mesh, 0.05, sizes))
        assert {s.phase for s in tr.spans} == {"execute"}
        shapes = [(s.args_dict()["tasks"], s.args_dict()["n"]) for s in tr.spans]
        assert shapes == [(1, KERNEL_BLOCK // 2), (3, 1800)]
        assert all(s.duration >= 0.0 and s.batch == 1 for s in tr.spans)


# ----------------------------------------------------------------------
# Size-aware fusion: generated task-size lists straddling both boundaries
# ----------------------------------------------------------------------
_HALF = KERNEL_BLOCK // 2
_task_sizes = st.lists(
    st.one_of(
        st.sampled_from([0, 1, _HALF - 1, _HALF, KERNEL_BLOCK, KERNEL_BLOCK + 3]),
        st.integers(0, 40),
        st.integers(_HALF - 300, _HALF - 1),
    ),
    min_size=1, max_size=12,
)


@pytest.mark.parametrize("backend", BACKENDS)
@given(sizes=_task_sizes, many_tiny=st.booleans())
@settings(max_examples=12, deadline=None)
def test_fusion_matches_per_task_reference(backend, sizes, many_tiny):
    """Every task bitwise equal to ``advance_reference`` run on it alone,
    whatever mix of in-place tasks and fused chunks it rode in, under the
    fleet-wide kernel ``backend``."""
    if many_tiny:
        sizes = sizes + [7] * 40
    mesh = Mesh(cells=8)
    batch = _push_batch(mesh, 0.01, sizes)
    oracles = [task.particles.copy() for _, task in batch]
    assert type(make_executor("serial")) is type(make_executor("batched"))
    ex = make_executor("serial", kernel_backend=backend)
    ex.run_batch(batch)
    assert ex._stage.shape[1] <= KERNEL_BLOCK
    for (_, task), oracle in zip(batch, oracles):
        advance_reference(mesh, oracle, 0.01)
        for f in ("x", "y", "vx", "vy"):
            assert getattr(task.particles, f).tobytes() == getattr(oracle, f).tobytes()
