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
    and AMPI VP sweeps) spend their wall clock.  For a closed group of
    small ranks the executor also settles their whole first exchange
    round in one pass (:func:`exchange_wave`), and the scheduler may clock
    that round's ops for the whole group at once (:func:`clock_round`);
    every other rank runs its exchange itself.

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
from repro.core.kernel import (
    KERNEL_BLOCK,
    WAVE_MAX_MEAN,
    WAVE_MIN_MEMBERS,
    KernelWorkspace,
    advance_arrays,
)
from repro.core.kernel_compiled import advance_arrays_compiled
from repro.core.mesh import Mesh
from repro.core.particles import STATE_FIELDS, record_nbytes
from repro.runtime.errors import ExecutorWorkerLostError, exit_cause

__all__ = [
    "PushTask",
    "RankRoute",
    "exchange_wave",
    "SettledWave",
    "clock_round",
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


class RankRoute:
    """One rank's exchange geometry, as a fusing executor reads it.

    ``bounds`` is ``(x lo, x hi, x index, px, y lo, y hi, y index, py)``:
    the rank's block ``[lo, hi)`` and its processor index and count along
    each axis.  ``splits`` holds the two axes' split vectors and
    ``sources`` the world ranks its ``(x bwd, x fwd, y bwd, y fwd)`` hops
    receive from (its own rank along an axis of one processor).  ``cost``
    is the :class:`~repro.runtime.costmodel.CostModel` the rank's exchange
    prices its pack computes and wire bytes with (None: the round cannot
    be clocked in bulk, :func:`clock_round`).  Ranks build one per
    partition and reuse it every step
    (:meth:`repro.parallel.base._RankState.route`).
    """

    __slots__ = ("bounds", "splits", "sources", "cost")

    def __init__(self, bounds, splits, sources, cost=None) -> None:
        self.bounds = bounds
        self.splits = splits
        self.sources = sources
        self.cost = cost


class PushTask:
    """Descriptor of one rank's particle push: the work behind a compute op.

    Carries the *data* of the closure the rank used to run inline
    (mesh, particle container, dt) rather than opaque Python state, so
    executors can fuse tasks or ship them to workers.  ``run()`` is the
    serial reference semantics.
    """

    __slots__ = ("mesh", "particles", "dt", "route", "first", "clocked")

    def __init__(self, mesh: Mesh, particles, dt: float, route=None):
        self.mesh = mesh
        self.particles = particles
        self.dt = dt
        #: The rank's :class:`RankRoute`, or None: lets an executor settle
        #: the first exchange round for a whole fused group
        #: (:func:`exchange_wave`).
        self.route = route
        #: That round's result for this rank, ``(xfront, yfront, columns)``,
        #: when an executor settled it; None means the exchange runs it.
        self.first = None
        #: True once the scheduler has clocked that round's ops for the
        #: whole wave (:func:`clock_round`): the exchange then only adopts
        #: the round's result and joins the settlement allreduce.
        self.clocked = False

    def run(self, workspace: KernelWorkspace | None = None) -> None:
        # Dynamic module-attribute call so the layered benchmark's tracer
        # patch of ``kernel.advance`` applies to dispatched tasks.
        kernel.advance(self.mesh, self.particles, self.dt, workspace)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PushTask(n={len(self.particles)}, dt={self.dt})"


class BatchHandle:
    """An in-flight batch returned by :meth:`Executor.start_batch`.

    ``wait(i)`` blocks until ``batch[i]``'s task has completed (its particle
    arrays hold the post-push values); ``finish()`` blocks until the whole
    batch is done and folds the batch's measurements into the executor's
    counters, work meter and exec tracer.  The scheduler uses the handle to
    overlap its own work — resuming ranks into the exchange phase — with
    still-running workers; executors without asynchrony return an
    already-completed handle, so callers never need to know which kind
    they hold.
    """

    def wait(self, i: int) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        raise NotImplementedError


class _EagerHandle(BatchHandle):
    """Handle for batches that already ran to completion synchronously."""

    def wait(self, i: int) -> None:
        pass

    def finish(self) -> None:
        pass


_EAGER_HANDLE = _EagerHandle()


class Executor:
    """Backend interface: run a batch of compute tasks.

    ``batch`` is a list of ``(world_rank, PushTask)`` in the scheduler's
    deterministic park order.  On return every task's particle arrays must
    be bitwise identical to running ``task.run()`` serially in that order.

    Every backend additionally honors a *kernel backend* selection —
    ``python`` (the numpy fused kernel) or ``compiled`` (the C one,
    see :mod:`repro.core.kernel_compiled`) — either fleet-wide via
    ``kernel_backend`` or per world rank via ``backend_map`` (rank ->
    backend name; ranks not in the map use the fleet-wide choice).  The
    two kernels are bitwise-identical, so the selection can never change
    results, only wall-clock — which an optional
    :class:`~repro.runtime.costmodel.WorkRateMeter` (``work_meter``)
    observes as measured per-rank pushes/sec.
    """

    name = "?"
    #: Concrete kernel backend after resolution: "python" or "compiled".
    kernel_backend = "python"

    def _init_kernel_backend(
        self, kernel_backend, backend_map, work_meter, exec_tracer=None
    ) -> None:
        """Shared constructor tail: resolve backend names eagerly so a
        ``compiled`` request without a C compiler fails at build time."""
        resolve = kernel_compiled.resolve_backend
        self.kernel_backend = (
            "python" if kernel_backend is None else resolve(kernel_backend)
        )
        self.backend_map = (
            {}
            if not backend_map
            else {int(r): resolve(b) for r, b in backend_map.items()}
        )
        self.work_meter = work_meter
        self.exec_tracer = exec_tracer

    def _backend_for(self, rank: int) -> str:
        return self.backend_map.get(rank, self.kernel_backend)

    def run_batch(self, batch: list[tuple[int, Any]]) -> None:
        raise NotImplementedError

    def start_batch(
        self, batch: list[tuple[int, Any]], tag: str | None = None
    ) -> BatchHandle:
        """Begin a batch, returning a :class:`BatchHandle`.

        ``tag`` is accepted and ignored: the layered benchmark's tracer
        wraps ``start_batch`` with a ``tag=`` keyword.

        The default implementation runs the batch synchronously and hands
        back an already-completed handle: every executor without real
        asynchrony therefore presents the *same* completion order to the
        scheduler, which is what keeps the overlapped-exchange resume
        policy backend-agnostic.
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


#: A zero-particle wire buffer (read-only by convention).
EMPTY_WIRE = np.empty((0, STATE_FIELDS), dtype=np.float64)
_NO_ROWS = np.empty(0, dtype=np.int64)
#: The front half of a hop nobody leaves: no rows, nothing to send.
NO_LEAVERS = (_NO_ROWS, EMPTY_WIRE, EMPTY_WIRE)


def _ranges(starts, lengths):
    """``concatenate([arange(s, s + l) for s, l in zip(starts, lengths)])``."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1])


def _outside(v, lo, hi, mesh):
    """Rows of ``v`` whose cell lies outside ``[lo, hi)``, with bounds per
    row, and those rows' cells: ``ExchangeScratch.outside`` for many ranks.

    Rows are flagged straight from positions, then floored, wrapped and
    re-tested on the flagged rows only.  The bounds are small integers, so
    as float64 or int64 they compare identically.
    """
    if mesh.h != 1.0:  # division by 1.0 is a bitwise no-op
        v = v / mesh.h
    rows = ((v < lo) | (v >= hi)).nonzero()[0]
    if not len(rows):
        return rows, rows
    cells = np.floor(v[rows]).astype(np.int64)
    np.mod(cells, mesh.cells, out=cells)
    off = (cells < lo[rows]) | (cells >= hi[rows])
    if np.count_nonzero(off) != len(rows):
        rows, cells = rows[off], cells[off]
    return rows, cells


def _settle_hop(v, counts, starts, lo, hi, index, n_index, splits,
                src_bwd, src_fwd, mesh):
    """One hop of a closed group's round: what every member's
    ``_route_axis`` does to its population, for all members at once.

    ``v`` holds the members' coordinates along the axis, laid out by
    ``starts`` and ``counts``; the other arguments are per member: its
    block ``[lo, hi)``, processor index and count, split vector, and the
    members its two directions receive from (``src_bwd``, ``src_fwd``;
    each a permutation of the group).  Returns ``(perm, counts, starts,
    moved, seglen, local, recv)``, or None when nobody leaves: ``perm[p]``
    is the pre-hop row of post-hop row ``p``; the post-hop layout's counts
    and starts; the leavers' pre-hop rows grouped by (member, forward then
    backward) — the hop's ``2 M`` segments — and the segment sizes; each
    leaver's row inside its member (ascending per member) and, in segment
    order, its receiving member.
    """
    rows, cells = _outside(v, np.repeat(lo.astype(np.float64), counts),
                           np.repeat(hi.astype(np.float64), counts), mesh)
    if not len(rows):
        return None
    mem = starts.searchsorted(rows, "right") - 1
    # Owners by one searchsorted over every distinct split vector (members
    # may hold different, LB-shifted ones), each shifted into its own key
    # range so a search cannot leave it.
    ids: dict[int, int] = {}
    distinct = []
    for s in splits:
        if ids.setdefault(id(s), len(distinct)) == len(distinct):
            distinct.append(s)
    if len(distinct) == 1:
        owner = distinct[0].searchsorted(cells, "right") - 1
    else:
        stride = mesh.cells + 1
        sid = np.array([ids[id(s)] for s in splits])[mem]
        sizes = [len(s) for s in distinct]
        keys = np.concatenate(distinct) + np.repeat(
            np.arange(0, len(distinct) * stride, stride), sizes
        )
        first = np.cumsum(sizes) - sizes
        owner = keys.searchsorted(sid * stride + cells, "right") - first[sid] - 1
    # The shorter periodic way (an off-block particle never has distance 0).
    bwd = (owner - index[mem]) % n_index[mem] > n_index[mem] // 2
    seg = 2 * mem + bwd
    m = len(counts)
    seglen = np.bincount(seg, minlength=2 * m)
    gone = np.bincount(mem, minlength=m)
    keep = counts - gone
    # Tail-fill, as ParticleArray.compact(drop=): the holes below a
    # member's new length take its surviving tail rows in ascending order.
    # Holes and fill rows both ascend member by member, equally many per
    # member, so they pair up in order.
    local = rows - starts[mem]
    hole = local < keep[mem]
    tail = _ranges(starts + keep, gone)
    at = np.minimum(rows.searchsorted(tail), len(rows) - 1)
    fill = tail[rows[at] != tail]
    # Then the arrivals: the bwd source's forward segment, the fwd source's
    # backward one.
    a_bwd = seglen[2 * src_bwd]
    a_fwd = seglen[2 * src_fwd + 1]
    new_counts = keep + a_bwd + a_fwd
    new_starts = np.cumsum(new_counts) - new_counts
    perm = np.repeat(starts - new_starts, new_counts)
    perm += np.arange(len(perm))
    perm[new_starts[mem[hole]] + local[hole]] = fill
    moved = rows[seg.argsort(kind="stable")]
    at_seg = np.empty(2 * m, dtype=np.int64)
    at_seg[2 * src_bwd] = new_starts + keep
    at_seg[2 * src_fwd + 1] = new_starts + keep + a_bwd
    perm[_ranges(at_seg, seglen)] = moved
    recv = np.empty(2 * m, dtype=np.int64)
    recv[2 * src_bwd] = np.arange(m)
    recv[2 * src_fwd + 1] = np.arange(m)
    return perm, new_counts, new_starts, moved, seglen, local, np.repeat(recv, seglen)


def _wire(stage, pid, rows):
    """Stage rows packed as one fresh ``(L, 6)`` wire block."""
    block = np.empty((len(rows), STATE_FIELDS), dtype=np.float64)
    block[:, :5] = stage[:5, rows].T
    block[:, 5] = pid[rows]
    return block


def _fronts(m, local, seglen, wire, counts):
    """Per member ``(leavers, fwd_buf, bwd_buf, count)`` from one hop's
    segments, ``count`` being what the member's ``_route_axis`` returns."""
    out = []
    a = 0
    ends = seglen.cumsum().tolist()
    for i in range(m):
        f, e = ends[2 * i], ends[2 * i + 1]
        if a == e:
            out.append((*NO_LEAVERS, counts[i]))
        else:
            out.append((local[a:e], wire[a:f], wire[f:e], counts[i]))
            a = e
    return out


def exchange_wave(stage, counts, routes, mesh, sources) -> tuple[list, np.ndarray]:
    """The first exchange round of a closed fused group, for every member
    at once.

    ``stage`` holds the group's pushed x, y, vx, vy and q rows and, viewed
    as int64, its pid row, members in order; ``counts`` gives their sizes,
    ``routes`` their :class:`RankRoute` and ``sources`` (``(M, 4)``) the
    member each member's x-bwd, x-fwd, y-bwd and y-fwd hop receives from.
    The whole round runs as the per-rank path would run it: the x hop, the
    y hop on the post-x populations, the tail-fill and arrival order of
    ``compact(drop=)`` and ``extend_packed``.

    Returns ``(firsts, lengths)``.  ``firsts`` holds one ``(xfront,
    yfront, columns)`` per member, for the rank's exchange to use in place
    of its own work (:func:`repro.parallel.base.exchange_particles`).  A
    front is element for element what
    :func:`repro.parallel.base.hop_front_half` computes for the member
    (ascending leaver rows, then the leavers owned forward and backward
    packed in row order) plus the count its ``_route_axis`` returns (stray
    x arrivals, misplaced y arrivals); ``columns`` are the member's six
    post-round fields, slices of one fresh block that the rank adopts
    (:meth:`~repro.core.particles.ParticleArray.adopt`).
    ``lengths`` (``(M, 4)``) counts each member's x-forward, x-backward,
    y-forward and y-backward wire buffer — all the round's timing needs
    (:func:`clock_round`).

    Every wire buffer is a slice of one block allocated here, so it stays
    valid however long its message is in flight.
    """
    m = len(routes)
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    n = int(starts[-1] + counts[-1])
    b = np.array([r.bounds for r in routes], dtype=np.int64).T
    pid = stage[5].view(np.int64)
    layout = None  # the stage row of every current row; None: the identity
    cnt, st = counts, starts
    lengths = np.zeros((m, 4), dtype=np.int64)
    hops = []
    for axis in (0, 1):
        lo, hi, index, n_index = b[4 * axis : 4 * axis + 4]
        hop = None
        if n_index[0] > 1:
            v = stage[axis, :n] if layout is None else stage[axis][layout]
            hop = _settle_hop(
                v, cnt, st, lo, hi, index, n_index,
                [r.splits[axis] for r in routes],
                sources[:, 2 * axis], sources[:, 2 * axis + 1], mesh,
            )
        if hop is not None:
            perm, cnt, st, moved, seglen, local, recv = hop
            if layout is not None:
                moved = layout[moved]
            layout = perm if layout is None else layout[perm]
            lengths[:, 2 * axis : 2 * axis + 2] = seglen.reshape(m, 2)
            hop = (moved, seglen, local, recv)
        hops.append(hop)
    moved = [h[0] for h in hops if h is not None]
    wire = _wire(stage, pid, np.concatenate(moved)) if moved else EMPTY_WIRE
    fronts = []
    a = 0
    for axis, hop in enumerate(hops):
        if hop is None:
            fronts.append([(*NO_LEAVERS, 0)] * m)
            continue
        _, seglen, local, recv = hop
        w = wire[a : a + len(recv)]
        a += len(recv)
        # The settlement count on the arrivals: off the receiver's x block,
        # and for the y hop off its y block too.
        bad = np.zeros(len(recv), dtype=bool)
        for ax in range(axis + 1):
            lo, hi = b[4 * ax][recv], b[4 * ax + 1][recv]
            bad[_outside(w[:, ax], lo, hi, mesh)[0]] = True
        stray = np.bincount(recv[bad], minlength=m).tolist()
        fronts.append(_fronts(m, local, seglen, w, stray))
    block = stage[:, :n].copy() if layout is None else np.take(stage, layout, axis=1)
    x, y, vx, vy, q, pid = block
    pid = pid.view(np.int64)
    out = []
    for i, (a, k) in enumerate(zip(st.tolist(), cnt.tolist())):
        rows = slice(a, a + k)  # slicing 1-D rows is ~3x cheaper than 2-D
        columns = (x[rows], y[rows], vx[rows], vy[rows], q[rows], pid[rows])
        out.append((fronts[0][i], fronts[1][i], columns))
    return out, lengths


def _closed_sources(ranks, routes):
    """The member each member's x-bwd, x-fwd, y-bwd and y-fwd hop receives
    from, as an ``(M, 4)`` array, or None unless every member is routed on
    one processor grid and every source is a member.

    A periodic shift is a bijection of the grid's ranks, so in a group
    closed this way each column is a permutation of the members.
    """
    if None in routes or len({r.bounds[3::4] for r in routes}) != 1:
        return None
    where = np.full(max(ranks) + 1, -1)
    where[ranks] = np.arange(len(ranks))
    src = np.array([r.sources for r in routes])
    if src.max() >= len(where):
        return None
    src = where[src]
    return None if (src < 0).any() else src


class SettledWave:
    """A wave as :meth:`InProcessExecutor._settle` settled it, in the terms
    the round's timing needs (:func:`clock_round`).

    ``ranks`` lists the members' world ranks in park order, ``sources``
    is :func:`_closed_sources`' ``(M, 4)`` array, ``lengths``
    :func:`exchange_wave`'s ``(M, 4)`` buffer lengths, ``dims`` the
    processor grid ``(px, py)`` and ``cost`` the members' exchange cost
    model (:attr:`RankRoute.cost`).
    """

    __slots__ = ("ranks", "sources", "lengths", "dims", "cost")

    def __init__(self, ranks, sources, lengths, dims, cost) -> None:
        self.ranks = ranks
        self.sources = sources
        self.lengths = lengths
        self.dims = dims
        self.cost = cost


def _occupy_all(st, seconds, hit) -> None:
    """``Scheduler._occupy`` for every member at once.

    ``st`` rows are the members' clocks, core-free times, core busy and
    rank busy seconds; ``seconds`` is one charge (a float) for all or an
    array of one per member.  A member charged 0.0 is left alone, as
    there; ``hit`` marks the members whose core was occupied.
    """
    if isinstance(seconds, float):
        if seconds == 0.0:
            return
        np.maximum(st[0], st[1], out=st[0])
        st[0] += seconds
        st[1] = st[0]
        st[2:] += seconds
        hit[:] = True
        return
    on = seconds != 0.0
    end = np.maximum(st[0], st[1])
    end += seconds
    np.copyto(st[:2], end, where=on)
    st[2:] += seconds  # busy seconds are >= 0: adding 0.0 keeps every bit
    hit |= on


def _round_links(sched, cores, sources):
    """Latency and bandwidth, ``(M, 4)`` each, of the link every member's
    four receives arrive over (``MachineModel.link`` of the sender's and
    its cores), read through the scheduler's link table and kept for the
    next wave of the same geometry."""
    key = (cores, sources.tobytes())
    cached = sched._round_links
    if cached is not None and cached[0] == key:
        return cached[1]
    links, machine = sched._links, sched.machine
    lat = np.empty(sources.shape)
    bw = np.empty(sources.shape)
    for i, row in enumerate(sources.tolist()):
        for j, s in enumerate(row):
            pair = (cores[s], cores[i])
            link = links.get(pair)
            if link is None:
                link = links[pair] = machine.link(*pair)
            lat[i, j], bw[i, j] = link.latency, link.bandwidth
    sched._round_links = (key, (lat, bw))
    return lat, bw


def clock_round(sched, wave: SettledWave, cores: tuple) -> bool:
    """Clock a settled wave's first exchange round for every member at
    once, on ``sched`` (a :class:`~repro.runtime.scheduler.Scheduler`).

    Each member runs the op template of ``_route_axis``'s round
    (:func:`repro.parallel.base.exchange_particles`): per hop — x when
    ``px > 1``, then y when ``py > 1`` — pack compute of its leavers,
    ``sendrecv`` forward, ``sendrecv`` backward, unpack compute of its
    arrivals.  Clocks, core clocks, core and rank busy seconds and the
    transport's traffic counters move by the same IEEE operations, in the
    same per-member order, as ``_occupy``, ``_do_send`` and
    ``_complete_recv`` would move them; only the interleaving across
    members differs, which ``cores`` (one per member, all distinct) makes
    unobservable: a member's times depend only on its own ops and its
    sources' send times.  The caller checks the rest of that premise
    (``Scheduler._round_cores``).

    One thing the interleaving does decide is the order in which cores
    the scheduler has never occupied enter ``core_clock`` (and
    ``core_busy``; checkpoints serialise both in that order).  The pump
    occupies each member's core for the first time in member order when
    that happens by the member's first send — its first or second op,
    both run before the next member wakes — so those keys are inserted
    here in member order.  A round that first occupies a new core later
    than that, with another new core in play, changes nothing and returns
    False: the pump clocks it.  Otherwise it returns True.
    """
    ranks, src, n = wave.ranks, wave.sources, wave.lengths
    m = len(ranks)
    clock, rank_busy = sched.clock, sched.rank_busy
    core_clock, core_busy = sched.core_clock, sched.core_busy
    st = np.array([
        [clock[r] for r in ranks],
        [core_clock.get(c, 0.0) for c in cores],
        [core_busy.get(c, 0.0) for c in cores],
        [rank_busy[r] for r in ranks],
    ])
    hit = np.zeros(m, dtype=bool)
    lat, bw = _round_links(sched, cores, src)
    cost = wave.cost  # the exchange's; message overheads are the scheduler's
    send_s, recv_s = sched._send_overhead_s, sched._recv_overhead_s
    messages = nbytes = 0
    early = None  # the members occupied by their first send
    for axis in (0, 1):
        if wave.dims[axis] == 1:
            continue
        fwd, bwd = n[:, 2 * axis], n[:, 2 * axis + 1]
        src_bwd, src_fwd = src[:, 2 * axis], src[:, 2 * axis + 1]
        _occupy_all(st, cost.pack_time(fwd + bwd), hit)
        # Forward buffers arrive from the backward source, backward ones
        # from the forward source.
        for j, out, sender in ((2 * axis, fwd, src_bwd), (2 * axis + 1, bwd, src_fwd)):
            _occupy_all(st, send_s, hit)
            if early is None:
                early = hit.copy()
            # cost.particle_wire_bytes(record_nbytes(len(buf))) per buffer
            wire = (record_nbytes(out) * cost.particle_byte_scale).astype(np.int64)
            t_avail = st[0][sender] + (lat[:, j] + wire[sender] / bw[:, j])
            np.maximum(st[0], t_avail, out=st[0])
            _occupy_all(st, recv_s, hit)
            messages += m
            nbytes += int(wire.sum())
        _occupy_all(st, cost.pack_time(fwd[src_bwd] + bwd[src_fwd]), hit)
    if early is not None and not early.all():
        new = hit & ~np.fromiter(map(core_clock.__contains__, cores), bool, m)
        if (new & ~early).any() and np.count_nonzero(new) > 1:
            return False
    for r, t, busy in zip(ranks, st[0].tolist(), st[3].tolist()):
        clock[r] = t
        rank_busy[r] = busy
    for c, free, busy, h in zip(cores, st[1].tolist(), st[2].tolist(), hit.tolist()):
        if h:  # new keys in member order, as the pump inserts them
            core_clock[c] = free
            core_busy[c] = busy
    transport = sched.transport
    transport._seq += messages
    transport.messages_sent += messages
    transport.bytes_sent += nbytes
    return True


class InProcessExecutor(Executor):
    """Size-aware in-process backend: big tasks in place, small ones fused.

    A task with at least ``KERNEL_BLOCK // 2`` particles already amortises
    the 44-66 ufunc dispatches of a push and runs in place, in park order.
    Smaller tasks are grouped by ``(mesh, dt, backend)`` (in practice one
    group).  A group that qualifies for a wave (:meth:`_settle`) is staged
    whole, pushed with one kernel call and its first exchange round settled
    for every member at once (:func:`exchange_wave`); its members skip the
    copy-back and adopt their post-round rows in their exchange.  Any other
    group is packed, in park order, into chunks of at most
    :data:`KERNEL_BLOCK` particles; each chunk's field arrays are staged
    contiguously, advanced with a single kernel call and copied back per
    task, and its members run their whole exchange per rank.  Elementwise
    kernels are chunk-boundary-agnostic, so the fusion is bitwise exact.
    Both ``executor.kind`` values ``serial`` and ``batched`` build this
    class.
    """

    name = "in-process"

    def __init__(
        self,
        kernel_backend: str | None = None,
        backend_map=None,
        work_meter=None,
        exec_tracer=None,
    ) -> None:
        self._init_kernel_backend(
            kernel_backend, backend_map, work_meter, exec_tracer
        )
        #: Staging rows x, y, vx, vy, q and pid (as int64); allocated by the
        #: first fused push so an executor that only sees large tasks never
        #: holds one.  Its contents never outlive a batch.
        self._stage = np.empty((STATE_FIELDS, 0), dtype=np.float64)
        self._epoch: float | None = None
        self.batches = 0
        self.fused_tasks = 0
        #: The last batch's settled wave (:class:`SettledWave`), or None;
        #: the scheduler may clock its round in bulk (:func:`clock_round`).
        self.wave: SettledWave | None = None

    def run_batch(self, batch: list[tuple[int, Any]]) -> None:
        self.batches += 1
        self.wave = None
        default = self.kernel_backend
        bmap = self.backend_map
        # Grouping by backend keeps fusion sound per kernel: a mixed
        # backend_map yields its own groups per (mesh, dt, backend).
        groups: dict[tuple, list] = {}
        for rank, task in batch:
            n = len(task.particles)
            if not n and getattr(task, "route", None) is None:
                continue  # nothing to push, and no wave to be an empty member of
            backend = bmap.get(rank, default) if bmap else default
            if n >= KERNEL_BLOCK // 2:
                self._push(backend, [(rank, task, n)], n)
            else:
                groups.setdefault((task.mesh, task.dt, backend), []).append(
                    (rank, task, n)
                )
        for (_, _, backend), members in groups.items():
            if self._settle(backend, members):
                continue
            chunk: list = []
            total = 0
            for member in members:
                if not member[2]:
                    continue
                if total + member[2] > KERNEL_BLOCK:
                    self._run_chunk(backend, chunk, total)
                    chunk, total = [], 0
                chunk.append(member)
                total += member[2]
            if chunk:
                self._run_chunk(backend, chunk, total)

    def _staged(self, parts, total: int) -> np.ndarray:
        """Copy ``parts``' x, y, vx, vy and q into the stage."""
        if self._stage.shape[1] < total:
            self._stage = np.empty(
                (STATE_FIELDS, max(total, KERNEL_BLOCK)), dtype=np.float64
            )
        stage = self._stage
        np.concatenate([p.x for p in parts], out=stage[0, :total])
        np.concatenate([p.y for p in parts], out=stage[1, :total])
        np.concatenate([p.vx for p in parts], out=stage[2, :total])
        np.concatenate([p.vy for p in parts], out=stage[3, :total])
        np.concatenate([p.q for p in parts], out=stage[4, :total])
        return stage

    def _settle(self, backend: str, members) -> bool:
        """Push a group of small tasks and settle its first exchange round
        in one wave, if the group qualifies.

        It needs at least ``WAVE_MIN_MEMBERS`` members (ranks without
        particles count, as empty members), no more than ``WAVE_MAX_MEAN``
        particles per member on average, and closure: every member's x and
        y source neighbours are members, so the wave knows all its arrivals.
        """
        m = len(members)
        total = sum(n for _, _, n in members)
        if m < WAVE_MIN_MEMBERS or not total or total > WAVE_MAX_MEAN * m:
            return False
        tasks = [t for _, t, _ in members]
        routes = [t.route for t in tasks]
        ranks = [r for r, _, _ in members]
        closed = _closed_sources(ranks, routes)
        if closed is None:
            return False
        self.fused_tasks += m
        parts = [t.particles for t in tasks]
        stage = self._staged(parts, total)
        np.concatenate([p.pid for p in parts], out=stage[5, :total].view(np.int64))
        self._push(backend, members, total, stage)
        counts = [n for _, _, n in members]
        firsts, lengths = exchange_wave(stage, counts, routes, tasks[0].mesh, closed)
        for t, first in zip(tasks, firsts):
            t.first = first
        self.wave = SettledWave(
            ranks, closed, lengths, routes[0].bounds[3::4], routes[0].cost
        )
        return True

    def _run_chunk(self, backend: str, chunk, total) -> None:
        """Advance a chunk of ``(rank, task, n)`` triples, ``total`` particles,
        through the stage and copy it back (a lone task runs in place)."""
        if len(chunk) == 1:
            self._push(backend, chunk, total)
            return
        self.fused_tasks += len(chunk)
        parts = [t.particles for _, t, _ in chunk]
        stage = self._staged(parts, total)
        self._push(backend, chunk, total, stage)
        x, y, vx, vy = stage[:4, :total]
        a = 0
        for p in parts:  # q is read-only in the kernel: not copied back
            b = a + len(p.x)
            p.x[:] = x[a:b]
            p.y[:] = y[a:b]
            p.vx[:] = vx[a:b]
            p.vy[:] = vy[a:b]
            a = b

    def _push(self, backend: str, chunk, total, stage=None) -> None:
        """Advance ``chunk`` — ``(rank, task, n)`` triples of one ``(mesh,
        dt)``, ``total`` particles — with one kernel call: the one task in
        place, or the ``stage``; feed meter and tracer."""
        task = chunk[0][1]
        mesh, dt = task.mesh, task.dt
        measure = self.work_meter is not None or self.exec_tracer is not None
        if measure:
            if self._epoch is None:
                self._epoch = time.perf_counter()
            t0 = time.perf_counter()
        if stage is not None:
            x, y, vx, vy, q = stage[:5, :total]
            _advance_fields(backend, mesh, x, y, vx, vy, q, dt)
        elif backend == "python":
            # Through ``task.run()`` (a dynamic ``kernel.advance`` call)
            # so perf-harness monkeypatches keep applying.
            task.run()
        else:
            p = task.particles
            _advance_fields(backend, mesh, p.x, p.y, p.vx, p.vy, p.q, dt)
        if measure:
            elapsed = time.perf_counter() - t0
            if self.exec_tracer is not None:
                start = t0 - self._epoch
                self.exec_tracer.record(
                    "execute", -1, self.batches, start, start + elapsed,
                    tasks=len(chunk), n=total,
                )
            if self.work_meter is not None:
                # A fused push yields one timing; attribute it to the
                # member ranks proportionally to their particle share.
                for rank, _, n in chunk:
                    if n:
                        self.work_meter.record(rank, n, elapsed * n / total)

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


def _worker_main(conn, warm_backends: tuple = ()) -> None:
    """Worker loop: one bin of task records per batch over ``conn``.

    A bin is a list of ``(work index, field locations, n, (cells, h, mesh
    q), dt, backend)`` records, each field location an arena ``(segment
    name, byte offset)``: the particle bytes stay in shared memory, and a
    segment is attached the first time a record names it.  The worker
    replies ``(work index, seconds)`` as each task completes, so the parent
    can resume that task's rank while the rest of the bin runs.  ``None``
    (or the parent's end closing) shuts the worker down.
    """
    segments: dict[str, Any] = {}
    workspace = KernelWorkspace()
    meshes: dict[tuple, Mesh] = {}
    warm_s = sum(kernel_compiled.warmup(b) for b in warm_backends)
    conn.send(("ready", os.getpid(), warm_s))
    while True:
        try:
            records = conn.recv()
        except EOFError:  # pragma: no cover - parent died
            break
        if records is None:
            break
        for wi, locs, n, mesh_args, dt, backend in records:
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
    their world ranks, and ``sizes`` the particle counts at dispatch
    (exchange changes them while the batch is still in flight).  Replies
    arrive in bin order, so :meth:`wait` reads worker ``w``'s pipe until
    the task it needs has reported.
    """

    __slots__ = (
        "_ex", "_work", "_work_of", "_bins", "_held", "_sizes", "_owner",
        "_done", "_t_d0", "_t_pub", "_cpu_s", "_finished",
    )

    def __init__(self, ex, work, work_of, bins, held, sizes, t_d0, t_pub,
                 cpu_s) -> None:
        self._ex = ex
        self._work = work
        self._work_of = work_of
        self._bins = bins
        self._held = held
        self._sizes = sizes
        self._owner = {i: w for w, b in enumerate(bins) for i in b}
        #: Completed tasks: work index -> worker seconds.
        self._done: dict[int, float] = {}
        self._t_d0 = t_d0
        self._t_pub = t_pub
        self._cpu_s = cpu_s
        self._finished = False

    def wait(self, i: int) -> None:
        wi = self._work_of[i]
        if wi is None:  # empty task: completed by construction
            return
        w = self._owner[wi]
        while wi not in self._done:
            j, seconds = self._ex._recv(w, self._held[w])
            self._done[j] = seconds

    def finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        ex = self._ex
        for i in range(len(self._work_of)):
            self.wait(i)
        t_merged = ex._now()
        done, sizes = self._done, self._sizes
        ex.batches += 1
        ex.tasks_executed += len(self._work)
        ex.particles_pushed += sum(sizes)
        if ex.work_meter is not None:
            for i, (rank, _task) in enumerate(self._work):
                ex.work_meter.record(rank, sizes[i], done[i])
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
    parameters, dt and backend — over the pipe the worker already has.
    The particles themselves never leave shared memory.

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
        backend_map=None,
        work_meter=None,
    ) -> None:
        self.workers = int(workers) if workers else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError("need at least one worker")
        self._init_kernel_backend(
            kernel_backend, backend_map, work_meter, exec_tracer
        )
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
        # Workers pre-warm every JIT backend any rank may run.
        warm_backends = tuple(sorted(
            {self.kernel_backend, *self.backend_map.values()} - {"python"}
        ))
        for i in range(self.workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, warm_backends),
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
        work = []
        work_of: list[int | None] = []
        for rank, task in batch:
            if len(task.particles):
                work_of.append(len(work))
                work.append((rank, task))
            else:
                work_of.append(None)
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
        for i, (rank, task) in enumerate(work):
            m = task.mesh
            records.append((
                i, self._field_locs(task.particles), len(task.particles),
                (m.cells, m.h, m.q), task.dt, self._backend_for(rank),
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
        return _PoolHandle(
            self, work, work_of, bins, held, sizes, t_d0, t_pub, cpu_s
        )

    def run_batch(self, batch: list[tuple[int, Any]]) -> None:
        # Synchronous wrapper over start_batch/wait/finish: the completion
        # barrier ("merge") is deterministic because workers wrote disjoint
        # shared-memory regions in place.
        handle = self.start_batch(batch)
        for i in range(len(batch)):
            handle.wait(i)
        handle.finish()

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
    backend_map=None,
    work_meter=None,
) -> Executor:
    """Build a backend by name (the CLI's ``--executor`` values).

    ``kernel_backend`` is a request name (python/compiled/auto, None =
    python); it is resolved eagerly, so asking for the compiled backend
    without a C compiler raises here, not mid-run.
    """
    kw = dict(
        kernel_backend=kernel_backend,
        backend_map=backend_map,
        work_meter=work_meter,
        exec_tracer=exec_tracer,
    )
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
