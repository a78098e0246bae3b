"""Work-stealing campaign fabric: persistent warm workers over a sweep.

Fanning every uncached point out through a vanilla
``ProcessPoolExecutor`` makes each point pay process-pool startup and JIT
warmup *again* inside its own ``execute_runspec`` call, probes the
artifact cache one ``open()`` at a time, and lets a point landing at the
tail of the submission order serialize the whole sweep behind it.  This
module is a small fabric that avoids all three:

* **Persistent warm workers.**  ``jobs`` long-lived worker processes each
  pay kernel JIT warmup once at boot (reported per worker as
  ``jit_warmup_s``) and keep a cache of *warm executors* keyed by the
  resolved executor configuration, so a sweep of process-executor points
  pays ``pool_startup_s`` once per (worker, config) instead of once per
  point.  Executors are identity-neutral (excluded from ``spec_hash``,
  bitwise-equal results across backends), so reuse cannot change any
  artifact byte.

* **Pull-based scheduling, longest-expected-first.**  The parent holds
  one pending deque sorted by the cost model's predicted seconds per
  point (:func:`repro.runtime.costmodel.predicted_point_seconds`: pushes
  at the point's nominal backend rate plus a cost per rank-step, which
  separates the equal-push points of a strong-scaling sweep) and feeds a
  worker its next point the moment the previous one completes — dynamic
  pull scheduling in the sense of Smilei's task over-decomposition
  (arXiv:2204.12837), with the LPT ordering Rowan et al.
  (arXiv:2104.11385) motivate from measured/modelled work rates.  The
  slowest points start first, so the tail is filled by cheap points
  instead of being serialized behind an expensive one.

* **Shared cache index.**  :class:`CacheIndex` lists the cache directory
  **once** and answers membership from memory; only real hits open a
  file.  A 10,000-point sweep against a cold cache costs one ``scandir``
  instead of 10,000 failed ``open()`` calls.

* **Batched IO with grouped fsync.**  Completed artifacts and the
  streamed manifest are flushed in groups of ``io_batch``: each artifact
  is still written atomically (tmp + rename, byte-identical to the
  serial writer), but durability is settled with a single directory
  ``fsync`` per group rather than per file.  The manifest on disk is
  refreshed at the same cadence with ``"complete": false``, so a
  scheduler that dies mid-sweep leaves a valid, resumable manifest whose
  finished points re-run as pure cache hits.

* **Heartbeat + requeue.**  Workers stamp a shared heartbeat array from a
  daemon thread; the parent waits on connection objects *and* process
  sentinels, so a worker that dies mid-point is noticed immediately, its
  in-flight point is requeued (recorded in the manifest as a
  ``{"fault": "crash"}`` event — the resilience subsystem's fault
  vocabulary, see :class:`repro.resilience.faults.CrashFault`), and a
  replacement worker is spawned.  A killed worker costs one point's
  re-execution, not the sweep.  A point that dies ``max_retries + 1``
  times raises :class:`WorkerLostError` naming the worker and point.

Determinism: execution order is a scheduling detail — outcomes are
reassembled in expansion order, artifacts are content-addressed, and the
simulated results are bitwise-deterministic per point, so the fabric
produces byte-identical artifacts and an expansion-ordered manifest no
matter how the sweep interleaves (pinned by
``tests/campaign/test_fabric.py``).
"""

from __future__ import annotations

import os
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.config.runspec import ConfigError, RunSpec
from repro.runtime.costmodel import (
    predicted_point_pushes,
    predicted_point_seconds,
)
from repro.runtime.errors import exit_cause

#: Test-only chaos hook: ``"<worker-id>:<nth-task>"`` makes the worker
#: with that incarnation id exit hard (``os._exit``) upon *receiving* its
#: n-th task — after the parent has recorded the dispatch, before any
#: result — which is exactly the mid-point death the requeue path must
#: absorb.  Respawned workers get fresh incarnation ids, so the hook
#: fires once per setting.
CRASH_ENV = "REPRO_FABRIC_CRASH"

_CRASH_EXIT = 17


class WorkerLostError(RuntimeError):
    """A sweep point kept dying with its worker, beyond ``max_retries``.

    The campaign analogue of the runtime's
    :class:`~repro.runtime.errors.RankFailedError`: carries the worker
    (the fabric's "rank"), the point index and the last death's ``cause``
    (e.g. ``worker process exited (SIGKILL)``, what an OOM kill looks like)
    so harnesses and tests can name exactly which perturbation killed the
    sweep.
    """

    def __init__(self, worker: int, point_index: int, attempts: int, cause: str):
        self.worker = worker
        self.point_index = point_index
        self.attempts = attempts
        self.cause = cause
        super().__init__(
            f"campaign point {point_index} died with its worker "
            f"{attempts} time(s) (last on worker {worker}: {cause}); "
            "giving up rather than requeueing a poison point"
        )


@dataclass(frozen=True)
class FabricConfig:
    """Knobs for the campaign fabric (CLI: ``pic-prk campaign``)."""

    #: Worker fleet size (the campaign ``--jobs`` value).
    jobs: int = 2
    #: Completed points buffered before artifacts + manifest are flushed
    #: with one grouped directory fsync.
    io_batch: int = 8
    #: A worker whose heartbeat is older than this *and* whose process is
    #: unresponsive is declared lost and its point requeued.  Process
    #: death itself is detected immediately via sentinels; the heartbeat
    #: catches a worker that is alive but wedged.
    heartbeat_timeout_s: float = 120.0
    #: Re-executions granted to a point whose worker died mid-run.
    max_retries: int = 1
    #: multiprocessing start method; None picks ``fork`` where available
    #: (workers inherit warm imports) and ``spawn`` elsewhere.
    mp_context: str | None = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigError("fabric jobs must be >= 1")
        if self.io_batch < 1:
            raise ConfigError("io_batch must be >= 1")
        if self.heartbeat_timeout_s <= 0:
            raise ConfigError("heartbeat_timeout_s must be positive")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be non-negative")


@dataclass
class WorkerStats:
    """Per-worker provenance: warmup paid once, points served, busy time."""

    worker: int
    pid: int | None = None
    jit_warmup_s: float = 0.0
    #: One entry per warm executor this worker built: config key ->
    #: pool startup seconds (paid once, reused across points).
    pool_startup_s: dict[str, float] = field(default_factory=dict)
    points: int = 0
    busy_s: float = 0.0
    lost: bool = False


@dataclass
class FabricStats:
    """Everything the fabric learned about its own run."""

    workers: list[WorkerStats] = field(default_factory=list)
    #: Requeue events in the resilience fault vocabulary.
    faults: list[dict] = field(default_factory=list)
    requeues: int = 0

    def to_doc(self) -> dict:
        return {
            "workers": [
                {
                    "worker": w.worker,
                    "pid": w.pid,
                    "jit_warmup_s": round(w.jit_warmup_s, 6),
                    "pool_startup_s": {
                        k: round(v, 6) for k, v in sorted(w.pool_startup_s.items())
                    },
                    "points": w.points,
                    "busy_s": round(w.busy_s, 6),
                    "lost": w.lost,
                }
                for w in self.workers
            ],
            "faults": list(self.faults),
            "requeues": self.requeues,
        }


# ----------------------------------------------------------------------
# Cache index: one directory scan, membership from memory
# ----------------------------------------------------------------------
class CacheIndex:
    """In-memory index of a content-addressed artifact cache directory.

    Built from a single ``scandir``; :meth:`lookup` answers misses without
    any syscall and opens only files the index knows exist.  Validation
    (schema, hash echo, corrupt-is-a-miss) stays in the reader.
    """

    def __init__(self, cache_dir: str):
        self.cache_dir = cache_dir
        self._names: set[str] = set()
        try:
            with os.scandir(cache_dir) as it:
                for entry in it:
                    name = entry.name
                    if name.endswith(".json") and not name.endswith(
                        ".manifest.json"
                    ):
                        self._names.add(name[: -len(".json")])
        except FileNotFoundError:
            pass

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, spec_hash: str) -> bool:
        return spec_hash in self._names

    def lookup(self, spec_hash: str) -> dict | None:
        """The cached result for ``spec_hash`` or None — index-gated."""
        from repro.campaign.runner import _read_artifact

        if spec_hash not in self._names:
            return None
        return _read_artifact(self.cache_dir, spec_hash)

    def add(self, spec_hash: str) -> None:
        """Record a freshly-written artifact (keeps the index current)."""
        self._names.add(spec_hash)


# ----------------------------------------------------------------------
# Batched artifact/manifest IO with grouped fsync
# ----------------------------------------------------------------------
class ArtifactBatch:
    """Groups artifact writes and settles durability once per flush.

    Each artifact is still written atomically (tmp file + rename) with
    the exact bytes the serial writer produces; what is *grouped* is the
    directory fsync that makes the renames durable — one per flush
    instead of one per point.
    """

    def __init__(self, cache_dir: str, flush_hook: Callable[[], None] | None = None):
        self.cache_dir = cache_dir
        self._pending: list[tuple[str, RunSpec, dict]] = []
        self._flush_hook = flush_hook

    def add(self, spec_hash: str, spec: RunSpec, result: dict) -> None:
        self._pending.append((spec_hash, spec, result))

    def __len__(self) -> int:
        return len(self._pending)

    def flush(self) -> None:
        from repro.campaign.runner import _write_artifact

        if not self._pending:
            if self._flush_hook is not None:
                self._flush_hook()
            return
        for spec_hash, spec, result in self._pending:
            _write_artifact(
                self.cache_dir, spec_hash, spec, result, durable=False
            )
        self._pending.clear()
        _fsync_dir(self.cache_dir)
        if self._flush_hook is not None:
            self._flush_hook()


def _fsync_dir(path: str) -> None:
    """One fsync on the directory: settles a whole group of renames."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass  # not all filesystems support directory fsync
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# Scheduling order
# ----------------------------------------------------------------------
def schedule_order(tasks: list[tuple[int, RunSpec]]) -> list[int]:
    """Longest-expected-first order of ``(index, spec)`` tasks.

    Returns the indices sorted by descending predicted seconds (pushes at
    the nominal backend rate plus the rank-step term), ties broken by
    expansion index.  Ranks are ``cores * overdecomposition``: pass
    canonical specs, or a sparse ampi spec counts as d = 1.
    """
    from repro.core.kernel_compiled import resolve_backend

    def predicted(item: tuple[int, RunSpec]) -> float:
        _, rs = item
        pushes = predicted_point_pushes(
            rs.workload.n_particles, rs.workload.steps
        )
        try:
            backend = resolve_backend(rs.executor.kernel_backend)
        except Exception:
            backend = "python"  # let execution raise the real error
        return predicted_point_seconds(
            pushes, backend, steps=rs.workload.steps,
            n_ranks=rs.impl.cores * (rs.impl.overdecomposition or 1),
        )

    ranked = sorted(tasks, key=lambda item: (-predicted(item), item[0]))
    return [index for index, _ in ranked]


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _fabric_worker(wid: int, conn, hb, slot: int) -> None:
    """Worker main: warm up once, then pull points until told to stop.

    Protocol (all over the duplex pipe ``conn``):

    * ``("ready", pid, jit_warmup_s)`` — sent once after boot warmup;
    * parent sends ``("run", seq, spec_doc)`` or ``("stop",)``;
    * ``("warm", key, pool_startup_s)`` — sent when a new warm executor
      is built (once per executor config, *not* per point);
    * ``("done", seq, result, wall_s)`` / ``("error", seq, tb)``.

    A closed parent pipe (EOFError) means the scheduler died: exit
    quietly — the streamed manifest plus the artifact cache make the
    sweep resumable.
    """
    import threading

    from repro.config.build import build_executor, execute_runspec
    from repro.config.env import resolve_executor_config
    from repro.core import kernel_compiled

    crash_at = None
    crash_spec = os.environ.get(CRASH_ENV)
    if crash_spec:
        crash_wid, crash_nth = crash_spec.split(":")
        if int(crash_wid) == wid:
            crash_at = int(crash_nth)

    def stamp() -> None:
        hb[slot] = time.monotonic()

    stamp()
    beat = threading.Thread(
        target=_heartbeat_loop, args=(hb, slot), daemon=True
    )
    beat.start()

    jit_s = kernel_compiled.warmup("auto")  # resolve + load, all on the clock
    conn.send(("ready", os.getpid(), jit_s))

    # One warm executor per resolved executor config (a frozen dataclass).
    executors: dict[Any, Any] = {}
    received = 0
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            if msg[0] == "stop":
                break
            _, seq, spec_doc = msg
            if crash_at is not None and received == crash_at:
                os._exit(_CRASH_EXIT)
            received += 1
            t_run = time.perf_counter()
            try:
                rs = RunSpec.from_dict(spec_doc)
                key = resolve_executor_config(None, rs.executor)
                ex = executors.get(key)
                if ex is None:
                    t_warm = time.perf_counter()
                    ex = build_executor(rs, cli=key)
                    start = getattr(ex, "start", None)
                    if callable(start):
                        start()
                        ex.ensure_ready()
                    executors[key] = ex
                    startup = getattr(
                        ex, "pool_startup_s",
                        time.perf_counter() - t_warm,
                    )
                    label = f"{key.kind}/{key.workers}/{key.kernel_backend}"
                    conn.send(("warm", label, startup))
                result = execute_runspec(rs, executor=ex)
            except BaseException:
                conn.send(("error", seq, traceback.format_exc()))
                break
            conn.send(("done", seq, result, time.perf_counter() - t_run))
    finally:
        for ex in executors.values():
            try:
                ex.close()
            except Exception:
                pass


def _heartbeat_loop(hb, slot: int, period: float = 0.25) -> None:
    while True:
        hb[slot] = time.monotonic()
        time.sleep(period)


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _Worker:
    """Parent-side handle: process, pipe, heartbeat slot, in-flight seq."""

    def __init__(self, ctx, wid: int, hb, slot: int):
        self.wid = wid
        self.slot = slot
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_fabric_worker,
            args=(wid, child_conn, hb, slot),
            name=f"campaign-fabric-{wid}",
            daemon=False,  # workers spawn their own executor pools
        )
        self.proc.start()
        child_conn.close()
        self.ready = False
        self.in_flight: int | None = None
        self.stats = WorkerStats(worker=wid)

    def alive(self) -> bool:
        return self.proc.is_alive()


def _pick_context(cfg: FabricConfig):
    import multiprocessing as mp

    name = cfg.mp_context
    if name is None:
        name = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    return mp.get_context(name)


def run_fabric(
    tasks: list[tuple[int, RunSpec, dict]],
    *,
    cache_dir: str,
    config: FabricConfig,
    hashes: dict[int, str],
    canon: dict[int, RunSpec],
    index: CacheIndex | None = None,
    on_done: Callable[[int, dict, float], None] | None = None,
    manifest_flush: Callable[[], None] | None = None,
) -> tuple[dict[int, tuple[dict, float]], FabricStats]:
    """Run ``(index, spec, spec_doc)`` tasks over the warm-worker fleet.

    Returns ``{point_index: (result, wall_s)}`` plus the fabric stats.
    ``on_done`` fires per completed point (progress lines); artifacts and
    the streamed manifest (``manifest_flush``) are flushed every
    ``config.io_batch`` completions with one grouped fsync.
    """
    from multiprocessing import connection as mpc

    ctx = _pick_context(config)
    jobs = min(config.jobs, len(tasks)) or 1
    hb = ctx.Array("d", jobs)

    order = schedule_order([(i, canon[i]) for i, _, _ in tasks])
    by_index = {i: (rs, doc) for i, rs, doc in tasks}
    pending: deque[int] = deque(order)
    attempts: dict[int, int] = {}

    stats = FabricStats()
    batch = ArtifactBatch(cache_dir, flush_hook=manifest_flush)
    results: dict[int, tuple[dict, float]] = {}

    next_wid = 0
    workers: list[_Worker] = []

    def spawn(slot: int) -> _Worker:
        nonlocal next_wid
        w = _Worker(ctx, next_wid, hb, slot)
        next_wid += 1
        stats.workers.append(w.stats)
        return w

    def dispatch(w: _Worker) -> None:
        if not pending:
            return
        index_ = pending[0]
        _, doc = by_index[index_]
        try:
            w.conn.send(("run", index_, doc))
        except (BrokenPipeError, OSError):
            return  # worker just died; its sentinel will recycle it
        pending.popleft()
        w.in_flight = index_

    def requeue(w: _Worker, reason: str) -> None:
        """Absorb a dead worker: record the fault, recycle its point."""
        w.stats.lost = True
        stats.faults.append(
            {
                "fault": "crash",
                "worker": w.wid,
                "point": w.in_flight,
                "detail": reason,
            }
        )
        if w.in_flight is not None:
            index_ = w.in_flight
            n = attempts.get(index_, 0) + 1
            attempts[index_] = n
            if n > config.max_retries:
                raise WorkerLostError(w.wid, index_, n, reason)
            stats.requeues += 1
            # Requeue at the front: the point already proved expensive
            # to lose, restart it before anything else.
            pending.appendleft(index_)
            w.in_flight = None

    for slot in range(jobs):
        workers.append(spawn(slot))

    done_since_flush = 0
    try:
        while len(results) < len(tasks):
            waitables: dict[object, tuple[_Worker, str]] = {}
            for w in workers:
                if not w.stats.lost:
                    waitables[w.conn] = (w, "conn")
                    waitables[w.proc.sentinel] = (w, "sentinel")
            if not waitables:
                raise RuntimeError(
                    "campaign fabric has no live workers left"
                )
            fired = mpc.wait(
                list(waitables), timeout=config.heartbeat_timeout_s
            )
            if not fired:
                # Nothing spoke for a whole timeout: check heartbeats.
                now = time.monotonic()
                for w in list(workers):
                    if w.stats.lost or w.in_flight is None:
                        continue
                    if now - hb[w.slot] > config.heartbeat_timeout_s:
                        w.proc.terminate()
                        w.proc.join(timeout=5.0)
                        requeue(w, "heartbeat stale; worker terminated")
                        slot = w.slot
                        workers[workers.index(w)] = spawn(slot)
                continue
            for obj in fired:
                w, kind = waitables[obj]
                if w.stats.lost:
                    continue
                if kind == "sentinel":
                    if w.conn.poll():
                        continue  # drain its messages first, next loop
                    requeue(
                        w, f"worker process exited ({exit_cause(w.proc)})"
                    )
                    replacement = spawn(w.slot)
                    workers[workers.index(w)] = replacement
                    continue
                try:
                    msg = w.conn.recv()
                except EOFError:
                    requeue(
                        w, f"worker pipe closed ({exit_cause(w.proc)})"
                    )
                    workers[workers.index(w)] = spawn(w.slot)
                    continue
                tag = msg[0]
                if tag == "ready":
                    w.ready = True
                    w.stats.pid = msg[1]
                    w.stats.jit_warmup_s = msg[2]
                    dispatch(w)
                elif tag == "warm":
                    w.stats.pool_startup_s[msg[1]] = msg[2]
                elif tag == "done":
                    _, seq, result, wall_s = msg
                    w.in_flight = None
                    w.stats.points += 1
                    w.stats.busy_s += wall_s
                    results[seq] = (result, wall_s)
                    batch.add(hashes[seq], canon[seq], result)
                    if index is not None:
                        index.add(hashes[seq])
                    if on_done is not None:
                        on_done(seq, result, wall_s)
                    done_since_flush += 1
                    if done_since_flush >= config.io_batch:
                        batch.flush()
                        done_since_flush = 0
                    dispatch(w)
                elif tag == "error":
                    _, seq, tb = msg
                    raise CampaignPointError(seq, tb)
        batch.flush()
    finally:
        for w in workers:
            try:
                if w.alive():
                    w.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for w in workers:
            w.conn.close()
            w.proc.join(timeout=5.0)
            if w.proc.is_alive():
                w.proc.terminate()
                w.proc.join(timeout=5.0)
    return results, stats


class CampaignPointError(RuntimeError):
    """A point's execution raised inside a fabric worker."""

    def __init__(self, point_index: int, worker_traceback: str):
        self.point_index = point_index
        self.worker_traceback = worker_traceback
        super().__init__(
            f"campaign point {point_index} failed in its fabric worker:\n"
            f"{worker_traceback}"
        )
