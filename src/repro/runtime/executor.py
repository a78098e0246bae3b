"""Pluggable compute-execution backends for the scheduler's compute op.

The deterministic scheduler interleaves every simulated rank in one Python
process, so an N-rank run historically used exactly one host core no matter
how many the machine has.  This module turns the per-step particle push —
the only data-parallel, cross-rank-independent phase of the PIC loop — into
*dispatchable work*: rank programs attach a :class:`PushTask` descriptor to
their compute op instead of running the kernel inline, the scheduler
collects every simultaneously runnable task into a batch (see
``Scheduler._flush_compute``), and an :class:`Executor` runs the batch.

Two backends, bitwise-identical in results, simulated times and golden
traces (``tests/parallel/test_executor_determinism.py``):

``serial`` / ``batched``
    Two names (kept because checked-in specs and checkpoints carry them)
    for the one in-process backend, :class:`InProcessExecutor`, which picks
    per task from the task's size.  A task of at least ``KERNEL_BLOCK // 2``
    particles is advanced in place — exactly the work the rank would have
    done inline, no copies.  Smaller tasks are staged in park order into
    chunks of at most :data:`~repro.core.kernel.KERNEL_BLOCK` particles and
    advanced with one :func:`repro.core.kernel.advance_arrays` call per
    chunk.  The kernel is elementwise, so concatenation changes chunk
    boundaries but not a single result bit; what it does change is the
    number of numpy ufunc dispatches — 64 per *chunk* instead of 64 per
    *rank* — which is where many-small-rank configs (the strong-scaling
    and AMPI VP sweeps) spend their wall clock.

``process``
    A persistent ``multiprocessing`` worker pool operating on
    ``multiprocessing.shared_memory`` views of the pooled
    :class:`~repro.core.particles.ParticleArray` backing stores.  The parent
    rebases each rank's backing store into a shared-memory arena once
    (:meth:`ParticleArray.rebase_backing`); after that a batch sends each
    worker one list of small task records (segment names, byte offsets,
    counts, mesh parameters) over its pipe.  Zero particle bytes cross a
    pipe in either direction.  Workers mutate the shared pages in place;
    the completion barrier is deterministic, so the merge is too.
    Results are bitwise identical to serial because each worker runs the
    very same kernel on the very same bytes, and tasks never overlap.

A batch whose steps the scheduler can close never reaches a backend's
:meth:`~Executor.start_batch`: the scheduler stages it as one wave
(:func:`repro.runtime.exchange.stage_wave`), whose block every backend
pushes in this process with :meth:`Executor.push_block`, one kernel call
per round, and the exchange layer settles each round
(``Scheduler._close_run``).

Determinism argument, in one place: the scheduler charges simulated clocks
when the compute op is *dispatched* (unchanged from the inline days), tasks
touch only rank-local particle arrays, and every backend leaves each task's
arrays bitwise equal to a serial in-order execution.  Nothing downstream —
exchange routing, message sizes, collectives, verification — can observe
which backend ran.

Shared-memory lifecycle (see docs/performance.md): the arena is a grow-only
pool of segments with bump allocation; a segment set is recycled wholesale
when every array previously handed out has been garbage collected (between
runs, in practice).  The executor unlinks all segments on :meth:`close`,
and the process-wide default executor registers an ``atexit`` hook.
"""

from __future__ import annotations

import atexit
import os
import time
import weakref
from typing import Any

import numpy as np

from repro.core import kernel, kernel_compiled
from repro.core.kernel import KERNEL_BLOCK, KernelWorkspace, advance_arrays
from repro.core.kernel_compiled import advance_arrays_compiled
from repro.core.mesh import Mesh
from repro.core.particles import STATE_FIELDS
from repro.runtime.errors import ExecutorWorkerLostError, exit_cause

__all__ = [
    "PushTask",
    "Executor",
    "BatchHandle",
    "InProcessExecutor",
    "ProcessExecutor",
    "ShmArena",
    "make_executor",
    "default_executor",
]

#: Shared-memory offsets are aligned to cache lines.
_ALIGN = 64

#: Unlinked segments whose mappings could not be closed yet because caller
#: views were still alive (see :meth:`ShmArena.close`).
_ZOMBIE_SEGMENTS: list = []


class PushTask:
    """Descriptor of one rank's particle push: the work behind a compute op.

    Carries the *data* of the closure the rank used to run inline
    (mesh, particle container, dt) rather than opaque Python state, so
    executors can fuse tasks or ship them to workers.  ``run()`` is the
    serial reference semantics.
    """

    __slots__ = ("mesh", "particles", "dt", "route")

    def __init__(self, mesh: Mesh, particles, dt: float, route=None):
        self.mesh = mesh
        self.particles = particles
        self.dt = dt
        #: The rank's :class:`~repro.runtime.exchange.RankRoute`, or None:
        #: lets the scheduler stage a closed batch as one wave
        #: (:func:`~repro.runtime.exchange.stage_wave`), whose rounds
        #: settle every member's exchange at once.  Executors ignore it.
        self.route = route

    def run(self, workspace: KernelWorkspace | None = None) -> None:
        # Dynamic module-attribute call so the layered benchmark's tracer
        # patch of ``kernel.advance`` applies to dispatched tasks.
        kernel.advance(self.mesh, self.particles, self.dt, workspace)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PushTask(n={len(self.particles)}, dt={self.dt})"


class BatchHandle:
    """An in-flight batch returned by :meth:`Executor.start_batch`.

    ``finish()`` blocks until the whole batch is done (every task's particle
    arrays hold the post-push values) and folds the batch's measurements
    into the executor's counters and exec tracer.  The scheduler
    finishes a batch before it wakes any of its ranks; executors without
    asynchrony return an already-completed handle, so callers never need to
    know which kind they hold.
    """

    def finish(self) -> None:
        raise NotImplementedError


class _EagerHandle(BatchHandle):
    """Handle for batches that already ran to completion synchronously."""

    def finish(self) -> None:
        pass


_EAGER_HANDLE = _EagerHandle()


class Executor:
    """Backend interface: run a batch of compute tasks.

    ``batch`` is a list of ``(world_rank, PushTask)`` in the scheduler's
    deterministic park order.  On return every task's particle arrays must
    be bitwise identical to running ``task.run()`` serially in that order.
    A wave's block is pushed through :meth:`push_block`.

    Every backend additionally honors one fleet-wide *kernel backend*
    selection, ``kernel_backend``: ``python`` (the numpy fused kernel) or
    ``compiled`` (the C one, see :mod:`repro.core.kernel_compiled`).  The
    two kernels are bitwise-identical, so the selection can never change
    results, only wall-clock.  A rank that runs slower is declared as a
    :class:`~repro.resilience.SlowdownFault`, never measured here.
    """

    name = "?"
    #: Concrete kernel backend after resolution: "python" or "compiled".
    kernel_backend = "python"

    def _init_kernel_backend(self, kernel_backend, exec_tracer=None) -> None:
        """Shared constructor tail: resolve the backend name eagerly so a
        ``compiled`` request without a C compiler fails at build time."""
        self.kernel_backend = (
            "python"
            if kernel_backend is None
            else kernel_compiled.resolve_backend(kernel_backend)
        )
        self.exec_tracer = exec_tracer

    def run_batch(self, batch: list[tuple[int, Any]]) -> None:
        raise NotImplementedError

    def push_block(self, mesh: Mesh, dt: float, block: np.ndarray) -> None:
        """Advance the particles of a block whose first five rows are their
        x, y, vx, vy and q in place with one kernel call, in this process
        (a wave's ``(6, N)`` block: its pid row is not read)."""
        x, y, vx, vy, q = block[:5]
        _advance_fields(self.kernel_backend, mesh, x, y, vx, vy, q, dt)

    def start_batch(
        self, batch: list[tuple[int, Any]], tag: str | None = None
    ) -> BatchHandle:
        """Begin a batch, returning a :class:`BatchHandle`.

        ``tag`` is accepted and ignored: the layered benchmark's tracer
        wraps ``start_batch`` with a ``tag=`` keyword.

        The default implementation runs the batch synchronously and hands
        back an already-completed handle.
        """
        self.run_batch(batch)
        return _EAGER_HANDLE

    def close(self) -> None:
        """Release any pooled resources (idempotent)."""

    def stats(self) -> dict:
        """Wall-clock / occupancy counters for reporting (never simulated)."""
        return {}

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _advance_fields(backend: str, mesh, x, y, vx, vy, q, dt, workspace=None) -> None:
    """Push bare field segments under the chosen kernel backend.

    ``advance_arrays`` is looked up as a module global on every call so
    harness patches of it keep applying.
    """
    if backend == "python":
        advance_arrays(mesh, x, y, vx, vy, q, dt, workspace=workspace)
    else:
        advance_arrays_compiled(mesh, x, y, vx, vy, q, dt)


def _unstage(parts, stage) -> None:
    """Copy the pushed x, y, vx and vy rows of ``stage`` back to ``parts``,
    staged in order (q is read-only in the kernel: not copied back)."""
    x, y, vx, vy = stage[:4]
    a = 0
    for p in parts:
        b = a + len(p.x)
        p.x[:] = x[a:b]
        p.y[:] = y[a:b]
        p.vx[:] = vx[a:b]
        p.vy[:] = vy[a:b]
        a = b


class InProcessExecutor(Executor):
    """Size-aware in-process backend: big tasks in place, small ones fused.

    A task with at least ``KERNEL_BLOCK // 2`` particles already amortises
    the 44-66 ufunc dispatches of a push and runs in place, in park order.
    Smaller tasks are grouped by ``(mesh, dt)`` (in practice one group),
    and each group is packed, in park order, into chunks of at most
    :data:`KERNEL_BLOCK` particles; each chunk's field arrays are staged
    contiguously, advanced with a single kernel call and copied back per
    task.  Elementwise kernels are chunk-boundary-agnostic, so the fusion
    is bitwise exact.  Both ``executor.kind`` values ``serial`` and
    ``batched`` build this class.
    """

    name = "in-process"

    def __init__(
        self,
        kernel_backend: str | None = None,
        exec_tracer=None,
    ) -> None:
        self._init_kernel_backend(kernel_backend, exec_tracer)
        #: Staging memory, a ``(6, n)`` block whose first five rows take a
        #: chunk's x, y, vx, vy and q (:meth:`push_block` reads those);
        #: allocated by the first fused push so an executor that only sees
        #: large tasks never holds one.  Its contents never outlive a flush.
        self._stage = np.empty(0, dtype=np.float64)
        self._epoch: float | None = None
        self.batches = 0
        self.fused_tasks = 0

    def run_batch(self, batch: list[tuple[int, Any]]) -> None:
        self.batches += 1
        groups: dict[tuple, list] = {}
        mesh = dt = group = None
        for rank, task in batch:
            n = len(task.particles)
            if not n:
                continue
            if n >= KERNEL_BLOCK // 2:
                self._push([(rank, task, n)], n)
                continue
            # Grouped by equal meshes; an engine's tasks share one mesh
            # object, so the key (a frozen dataclass) is hashed per run of
            # tasks, not per task.
            if task.mesh is not mesh or task.dt != dt:
                mesh, dt = task.mesh, task.dt
                group = groups.setdefault((mesh, dt), [])
            group.append((rank, task, n))
        for members in groups.values():
            chunk: list = []
            total = 0
            for member in members:
                if total + member[2] > KERNEL_BLOCK:
                    self._run_chunk(chunk, total)
                    chunk, total = [], 0
                chunk.append(member)
                total += member[2]
            if chunk:
                self._run_chunk(chunk, total)

    def _staged(self, parts, total: int) -> np.ndarray:
        """Copy ``parts``' x, y, vx, vy and q into the stage, a contiguous
        ``(6, total)`` view of the staging memory."""
        if len(self._stage) < STATE_FIELDS * total:
            self._stage = np.empty(STATE_FIELDS * max(total, KERNEL_BLOCK))
        stage = self._stage[: STATE_FIELDS * total].reshape(STATE_FIELDS, total)
        np.concatenate([p.x for p in parts], out=stage[0, :total])
        np.concatenate([p.y for p in parts], out=stage[1, :total])
        np.concatenate([p.vx for p in parts], out=stage[2, :total])
        np.concatenate([p.vy for p in parts], out=stage[3, :total])
        np.concatenate([p.q for p in parts], out=stage[4, :total])
        return stage

    def _run_chunk(self, chunk, total) -> None:
        """Advance a chunk of ``(rank, task, n)`` triples, ``total`` particles,
        through the stage and copy it back (a lone task runs in place)."""
        if len(chunk) == 1:
            self._push(chunk, total)
            return
        self.fused_tasks += len(chunk)
        parts = [t.particles for _, t, _ in chunk]
        stage = self._staged(parts, total)
        self._push(chunk, total, stage)
        _unstage(parts, stage)

    def _push(self, chunk, total, stage=None) -> None:
        """Advance ``chunk`` — ``(rank, task, n)`` triples of one ``(mesh,
        dt)``, ``total`` particles — with one kernel call: the one task in
        place, or the ``stage``; feed the tracer."""
        task = chunk[0][1]
        mesh, dt = task.mesh, task.dt
        backend = self.kernel_backend
        tracer = self.exec_tracer
        if tracer is not None:
            if self._epoch is None:
                self._epoch = time.perf_counter()
            t0 = time.perf_counter()
        if stage is not None:
            self.push_block(mesh, dt, stage)
        elif backend == "python":
            # Through ``task.run()`` (a dynamic ``kernel.advance`` call)
            # so perf-harness monkeypatches keep applying.
            task.run()
        else:
            p = task.particles
            _advance_fields(backend, mesh, p.x, p.y, p.vx, p.vy, p.q, dt)
        if tracer is not None:
            start = t0 - self._epoch
            tracer.record(
                "execute", -1, self.batches, start,
                start + time.perf_counter() - t0, tasks=len(chunk), n=total,
            )

    def stats(self) -> dict:
        return dict(batches=self.batches, fused_tasks=self.fused_tasks)


# ----------------------------------------------------------------------
# Shared-memory arena
# ----------------------------------------------------------------------
class _Segment:
    __slots__ = ("shm", "size", "base", "offset", "_anchor")

    def __init__(self, shm) -> None:
        self.shm = shm
        self.size = shm.size
        # Anchor a uint8 view to read the mapping's base address; kept
        # referenced so the memoryview export stays valid for locate().
        self._anchor = np.frombuffer(shm.buf, dtype=np.uint8)
        self.base = self._anchor.__array_interface__["data"][0]
        self.offset = 0


class ShmArena:
    """Grow-only pool of shared-memory segments with bump allocation.

    :meth:`alloc` hands out writable ndarray views into the segments (the
    allocator signature :class:`~repro.core.particles.ParticleArray`'s
    ``rebase_backing`` expects).  There is no per-array free; instead the
    arena keeps weak references to every array it handed out and recycles
    *all* segments (bump pointers reset) once none of them is alive — which
    between simulation runs they are not.  :meth:`locate` maps an arena
    array back to ``(segment_name, byte_offset)`` for worker-side attach.
    """

    def __init__(self, min_segment_bytes: int = 1 << 22) -> None:
        self._segments: list[_Segment] = []
        self._live: list[weakref.ref] = []
        self._min = int(min_segment_bytes)
        self._closed = False

    def alloc(self, capacity: int, dtype) -> np.ndarray:
        if self._closed:
            raise RuntimeError("allocation from a closed ShmArena")
        dtype = np.dtype(dtype)
        nbytes = -(-max(int(capacity), 0) * dtype.itemsize // _ALIGN) * _ALIGN
        self._reclaim()
        seg = next(
            (s for s in self._segments if s.size - s.offset >= nbytes), None
        )
        if seg is None:
            from multiprocessing import shared_memory

            size = max(nbytes, self._min, 2 * (self._segments[-1].size if self._segments else 0))
            seg = _Segment(shared_memory.SharedMemory(create=True, size=size))
            self._segments.append(seg)
        arr = np.frombuffer(
            seg.shm.buf, dtype=dtype, count=int(capacity), offset=seg.offset
        )
        seg.offset += nbytes
        self._live.append(weakref.ref(arr))
        return arr

    def _reclaim(self) -> None:
        self._live = [r for r in self._live if r() is not None]
        if not self._live:
            for seg in self._segments:
                seg.offset = 0

    def locate(self, arr: np.ndarray) -> tuple[str, int] | None:
        """``(segment_name, byte_offset)`` of an arena-resident array."""
        ptr = arr.__array_interface__["data"][0]
        for seg in self._segments:
            if seg.base <= ptr < seg.base + seg.size:
                return seg.shm.name, ptr - seg.base
        return None

    @property
    def total_bytes(self) -> int:
        return sum(s.size for s in self._segments)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._live.clear()
        for seg in self._segments:
            seg._anchor = None
            try:
                seg.shm.close()
            except BufferError:
                # A handed-out view is still alive; parking the handle in
                # the zombie list keeps its __del__ from firing (and
                # raising the same BufferError as an unraisable warning)
                # until the views are gone — the unlink below already
                # released the name, so nothing leaks past process exit.
                _ZOMBIE_SEGMENTS.append(seg.shm)
            try:
                seg.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments.clear()


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _attach_segment(name: str):
    """Attach to an existing segment without taking cleanup ownership.

    ``track=False`` (3.13+) skips resource-tracker registration entirely.
    On older Pythons the attach re-registers the name — harmless, because
    worker processes share the parent's tracker (the fd is inherited on
    both fork and spawn starts) and registration is a set-add; the parent's
    ``unlink`` still unregisters exactly once.  Do NOT explicitly
    unregister here: that would strip the *parent's* registration from the
    shared tracker and make the later unlink double-unregister.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: tracked attach, see above
        return shared_memory.SharedMemory(name=name)


def _worker_main(conn, backend: str = "python") -> None:
    """Worker loop: one bin of task records per batch over ``conn``, each
    task pushed with the fleet's kernel ``backend`` (warmed before the
    ready handshake).

    A bin is a list of ``(work index, field locations, n, (cells, h, mesh
    q), dt)`` records, each field location an arena ``(segment name, byte
    offset)``: the particle bytes stay in shared memory, and a segment is
    attached the first time a record names it.  The worker
    replies ``(work index, seconds)`` as each task completes, so the parent
    can resume that task's rank while the rest of the bin runs.  ``None``
    (or the parent's end closing) shuts the worker down.
    """
    segments: dict[str, Any] = {}
    workspace = KernelWorkspace()
    meshes: dict[tuple, Mesh] = {}
    warm_s = kernel_compiled.warmup(backend)
    conn.send(("ready", os.getpid(), warm_s))
    while True:
        try:
            records = conn.recv()
        except EOFError:  # pragma: no cover - parent died
            break
        if records is None:
            break
        for wi, locs, n, mesh_args, dt in records:
            t1 = time.perf_counter()
            views = []
            for name, off in locs:
                shm = segments.get(name)
                if shm is None:
                    shm = segments[name] = _attach_segment(name)
                views.append(np.frombuffer(shm.buf, np.float64, n, off))
            mesh = meshes.get(mesh_args)
            if mesh is None:
                mesh = meshes[mesh_args] = Mesh(*mesh_args)
            _advance_fields(backend, mesh, *views, dt, workspace=workspace)
            # Drop the views before replying: close() below needs them gone.
            del views
            conn.send((wi, time.perf_counter() - t1))
    for shm in segments.values():
        try:
            shm.close()
        except BufferError:  # pragma: no cover - view still referenced
            pass
    conn.close()


def _partition(sizes: list[int], k: int) -> list[list[int]]:
    """Deterministic LPT: largest task to least-loaded worker, stable ties."""
    order = sorted(range(len(sizes)), key=lambda i: (-sizes[i], i))
    loads = [0] * k
    bins: list[list[int]] = [[] for _ in range(k)]
    for i in order:
        b = min(range(k), key=lambda j: (loads[j], j))
        bins[b].append(i)
        loads[b] += sizes[i]
    for b in bins:
        b.sort()
    return bins


class _PoolHandle(BatchHandle):
    """In-flight batch on a :class:`ProcessExecutor`.

    ``bins[w]`` lists the work indices sent to worker ``w``, ``held[w]``
    their world ranks, and ``sizes`` the particle counts at dispatch.
    Each worker replies once per task, in bin order.
    """

    __slots__ = (
        "_ex", "_work", "_bins", "_held", "_sizes", "_t_d0", "_t_pub",
        "_cpu_s", "_finished",
    )

    def __init__(self, ex, work, bins, held, sizes, t_d0, t_pub, cpu_s) -> None:
        self._ex = ex
        self._work = work
        self._bins = bins
        self._held = held
        self._sizes = sizes
        self._t_d0 = t_d0
        self._t_pub = t_pub
        self._cpu_s = cpu_s
        self._finished = False

    def finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        ex = self._ex
        # Work index -> worker seconds.  Replies are read in park order, so
        # a lost worker is reported by the first task it held.
        done: dict[int, float] = {}
        owner = {i: w for w, b in enumerate(self._bins) for i in b}
        for i in range(len(self._work)):
            w = owner[i]
            while i not in done:
                j, seconds = ex._recv(w, self._held[w])
                done[j] = seconds
        t_merged = ex._now()
        sizes = self._sizes
        ex.batches += 1
        ex.tasks_executed += len(self._work)
        ex.particles_pushed += sum(sizes)
        tr = ex.exec_tracer
        if tr is not None:
            used = [w for w, b in enumerate(self._bins) if b]
            tr.record(
                "dispatch", -1, ex.batches, self._t_d0, self._t_pub,
                tasks=len(self._work), cpu_s=self._cpu_s,
            )
            for w in used:
                dur = sum(done[i] for i in self._bins[w])
                tr.record(
                    "execute", w, ex.batches, self._t_pub, self._t_pub + dur,
                    tasks=len(self._bins[w]),
                )
                t_task = self._t_pub
                for i in self._bins[w]:
                    tr.record(
                        "task", w, ex.batches, t_task, t_task + done[i],
                        rank=self._work[i][0], n=sizes[i],
                    )
                    t_task += done[i]
            tr.record(
                "merge", -1, ex.batches, self._t_pub, t_merged, tasks=len(used)
            )


class ProcessExecutor(Executor):
    """Real-multicore backend: persistent worker pool over shared memory.

    ``workers=0`` means one per host core.  The pool and arena are lazily
    started on the first batch and survive across runs — benchmark
    repetitions and whole test suites reuse one warmed pool
    (``pool_startup_s`` reports the one-time fork/spawn cost separately).

    A batch costs one message per worker: the parent partitions the tasks
    by particle count (:func:`_partition`) and sends each worker its bin
    as one list of task records — arena locations, counts, mesh
    parameters and dt — over the pipe the worker already has; every
    worker runs the fleet's ``kernel_backend``, given at spawn.  The
    particles themselves never leave shared memory.

    Workers boot concurrently: :meth:`start` spawns without blocking and
    :meth:`ensure_ready` collects the ready handshakes, so ``workers=N``
    costs roughly one worker's startup, not N of them, and the parent's
    record building overlaps worker boot on the first batch.

    A worker that dies surfaces as
    :class:`~repro.runtime.errors.ExecutorWorkerLostError`; the pool is
    torn down (the arena stays until :meth:`close`) and the next batch
    starts a fresh one.

    Optional ``exec_tracer`` (:class:`repro.instrument.ExecutorTrace`)
    receives per-batch dispatch/execute/merge spans on a *wall-clock*
    timebase.  They are deliberately kept out of the simulated-time
    :class:`~repro.instrument.Tracer` so golden traces stay byte-identical
    across backends and runs.
    """

    name = "process"

    def __init__(
        self,
        workers: int = 0,
        exec_tracer=None,
        mp_context: str | None = None,
        kernel_backend: str | None = None,
    ) -> None:
        self.workers = int(workers) if workers else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError("need at least one worker")
        self._init_kernel_backend(kernel_backend, exec_tracer)
        self._ctx_name = mp_context or "spawn"
        self.arena = ShmArena()
        self._procs: list = []
        self._conns: list = []
        self._ready = False
        self._spawn_t0: float | None = None
        self._epoch: float | None = None
        self.pool_startup_s = 0.0
        self.jit_warmup_s = 0.0
        self.batches = 0
        self.tasks_executed = 0
        self.particles_pushed = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the pool without waiting for handshakes (idempotent).

        All workers boot *concurrently* — interpreter start and JIT
        warm-up overlap across workers and with whatever the parent does
        next (typically building the first batch's records).  Call
        :meth:`ensure_ready` before exchanging any task traffic.
        """
        if self._procs:
            return
        import multiprocessing as mp
        from multiprocessing import resource_tracker

        self._spawn_t0 = time.perf_counter()
        ctx = mp.get_context(self._ctx_name)
        # Workers must share this process's resource tracker (see
        # _attach_segment).  Spawn starts it anyway; a forked worker
        # inherits it only if it already runs, and would otherwise start
        # its own, which unlinks the arena when that worker exits.
        resource_tracker.ensure_running()
        for i in range(self.workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, self.kernel_backend),
                name=f"repro-exec-{i}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)

    def ensure_ready(self) -> None:
        """Collect the ready handshakes; records ``pool_startup_s``.

        Must run before the first task reply is read — the handshake
        travels the same pipe.
        """
        if self._ready:
            return
        self.start()
        for w in range(self.workers):
            msg = self._recv(w, [])  # ("ready", pid, warm_s)
            self.jit_warmup_s = max(self.jit_warmup_s, msg[2])
        self.pool_startup_s = time.perf_counter() - self._spawn_t0
        self._ready = True
        if self._epoch is None:
            self._epoch = time.perf_counter()

    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    def _field_locs(self, particles) -> list[tuple[str, int]]:
        """Arena locations of the five kernel fields; rebase on first miss."""
        fields = (particles.x, particles.y, particles.vx, particles.vy, particles.q)
        locs = [self.arena.locate(a) for a in fields]
        if any(loc is None for loc in locs):
            particles.rebase_backing(self.arena.alloc)
            fields = (particles.x, particles.y, particles.vx, particles.vy, particles.q)
            locs = [self.arena.locate(a) for a in fields]
            assert all(loc is not None for loc in locs)
        return locs

    def _send(self, w: int, msg, ranks) -> None:
        try:
            self._conns[w].send(msg)
        except OSError as exc:  # BrokenPipeError: the worker is gone
            raise self._lost(w, ranks) from exc

    def _recv(self, w: int, ranks):
        try:
            return self._conns[w].recv()
        except (EOFError, OSError) as exc:
            raise self._lost(w, ranks) from exc

    def _lost(self, w: int, ranks) -> ExecutorWorkerLostError:
        """Tear the pool down after worker ``w`` died holding ``ranks``.

        The survivors may still owe replies to the lost batch, so they go
        too; the arena (and with it every rebased particle store) stays,
        and the next batch boots a fresh pool.
        """
        err = ExecutorWorkerLostError(w, exit_cause(self._procs[w]), ranks)
        self._stop_workers(grace=0.0)
        return err

    # ------------------------------------------------------------------
    def start_batch(
        self, batch: list[tuple[int, Any]], tag: str | None = None
    ) -> BatchHandle:
        work = [(rank, task) for rank, task in batch if len(task.particles)]
        if not work:
            return _EAGER_HANDLE
        self.start()
        # Parent-side dispatch cost is also metered in CPU seconds
        # (process_time): on an oversubscribed host a send can wake a
        # worker that preempts the parent, and the worker's kernel time
        # would otherwise be double-counted into the wall-clock dispatch
        # span (it is already reported by the execute spans).
        cpu0 = time.process_time()
        # First batch: the dispatch clock can only start once the pool's
        # epoch exists; building the records still overlaps worker boot.
        t_d0 = self._now() if self._ready else None
        records = []
        for i, (_, task) in enumerate(work):
            m = task.mesh
            records.append((
                i, self._field_locs(task.particles), len(task.particles),
                (m.cells, m.h, m.q), task.dt,
            ))
        sizes = [r[2] for r in records]
        bins = _partition(sizes, self.workers)
        held = [[work[i][0] for i in idxs] for idxs in bins]
        self.ensure_ready()
        if t_d0 is None:
            t_d0 = self._now()
        for w, idxs in enumerate(bins):
            if idxs:
                self._send(w, [records[i] for i in idxs], held[w])
        cpu_s = time.process_time() - cpu0
        t_pub = self._now()
        return _PoolHandle(self, work, bins, held, sizes, t_d0, t_pub, cpu_s)

    def run_batch(self, batch: list[tuple[int, Any]]) -> None:
        # The completion barrier ("merge") is deterministic because workers
        # wrote disjoint shared-memory regions in place.
        self.start_batch(batch).finish()

    def stats(self) -> dict:
        return dict(
            workers=self.workers,
            pool_startup_s=self.pool_startup_s,
            jit_warmup_s=self.jit_warmup_s,
            kernel_backend=self.kernel_backend,
            batches=self.batches,
            tasks_executed=self.tasks_executed,
            particles_pushed=self.particles_pushed,
            arena_bytes=self.arena.total_bytes,
        )

    def _stop_workers(self, grace: float) -> None:
        """Ask every worker to exit, terminating any still alive after
        ``grace`` seconds; the next batch starts a fresh pool."""
        for conn in self._conns:
            try:
                conn.send(None)
            except OSError:  # the worker is already gone
                pass
        for proc in self._procs:
            proc.join(timeout=grace)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            conn.close()
        self._procs.clear()
        self._conns.clear()
        self._ready = False
        self._spawn_t0 = None

    def close(self) -> None:
        self._stop_workers(grace=5.0)
        self.arena.close()
        # A closed arena refuses allocation; the pool restarts lazily on the
        # next batch, so it needs a live (empty, segment-less) one.
        self.arena = ShmArena()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def make_executor(
    name: str,
    workers: int = 0,
    exec_tracer=None,
    kernel_backend: str | None = None,
) -> Executor:
    """Build a backend by name (the CLI's ``--executor`` values).

    ``kernel_backend`` is a request name (python/compiled/auto, None =
    python); it is resolved eagerly, so asking for the compiled backend
    without a C compiler raises here, not mid-run.
    """
    kw = dict(kernel_backend=kernel_backend, exec_tracer=exec_tracer)
    if name in ("serial", "batched"):
        return InProcessExecutor(**kw)
    if name == "process":
        return ProcessExecutor(workers=workers, **kw)
    raise ValueError(f"unknown executor {name!r} (serial, batched, process)")


_DEFAULT: Executor | None = None


def default_executor() -> Executor:
    """Process-wide executor from ``REPRO_EXECUTOR`` / ``REPRO_WORKERS`` /
    ``REPRO_KERNEL_BACKEND``.

    Cached so that every scheduler in the process (e.g. a whole test-suite
    run under ``REPRO_EXECUTOR=process``) shares one warmed worker pool.
    The env parsing (and the full CLI > env > spec > default precedence
    chain) lives in :mod:`repro.config.env`.
    """
    global _DEFAULT
    if _DEFAULT is None:
        from repro.config.env import resolve_executor_config

        cfg = resolve_executor_config()
        _DEFAULT = make_executor(
            cfg.kind, workers=cfg.workers, kernel_backend=cfg.kernel_backend
        )
        if isinstance(_DEFAULT, ProcessExecutor):
            atexit.register(_DEFAULT.close)
    return _DEFAULT
