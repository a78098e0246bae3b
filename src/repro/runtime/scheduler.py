"""Deterministic scheduler for simulated SPMD programs.

Rank programs are generators (see :mod:`repro.runtime.comm`).  The scheduler
round-robins over runnable ranks, executing each until it yields an
operation; blocking operations (receives without a matching message,
collectives waiting for stragglers) park the rank until the operation can
complete.  Execution is fully deterministic: identical programs produce
identical message orders, results and simulated times on every run.

Virtual time
------------
Every world rank owns a clock; every physical core owns a busy-until clock.
Compute phases and per-message CPU overheads occupy the core — so several
ranks mapped to one core (AMPI virtual processors) serialize, while waiting
on a message does not hold the core.  Message transfer times and collective
costs come from the :class:`repro.runtime.costmodel.CostModel`.  The maximum
final rank clock is the simulated execution time of the job, the analogue of
the paper's reported wall-clock seconds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.particles import record_nbytes
from repro.runtime import ops
from repro.runtime.cart import CartComm
from repro.runtime.comm import Comm
from repro.runtime.costmodel import CostModel
from repro.runtime.errors import (
    CollectiveMismatchError,
    DeadlockError,
    RuntimeConfigError,
)
from repro.runtime.machine import MachineModel, TierCosts
from repro.runtime.message import Message
from repro.runtime.reduce_ops import ReduceOp
from repro.runtime.transport import ANY_SOURCE, ANY_TAG, Transport

_RUNNABLE = 0
_BLOCKED_RECV = 1
_BLOCKED_COLL = 2
_DONE = 3
#: Parked on a dispatched compute task awaiting executor flush.
_BLOCKED_EXEC = 4


class _RankState:
    __slots__ = ("gen", "status", "blocked_op", "resume_value", "retval")

    def __init__(self, gen):
        self.gen = gen
        self.status = _RUNNABLE
        self.blocked_op = None
        self.resume_value = None
        self.retval = None
        if not hasattr(gen, "send"):
            # Program body had no yield: the call already returned a value.
            self.retval = gen
            self.status = _DONE


@dataclass
class CollectiveContext:
    """Handle given to user collectives (see ``Comm.user_collective``).

    Allows the AMPI runtime's migrate() to re-map ranks to cores and charge
    migration time without reaching into scheduler internals.
    """

    scheduler: "Scheduler"
    comm: Comm
    #: Extra seconds to add to each local rank's clock after completion.
    extra_time: dict[int, float] = field(default_factory=dict)

    def core_of(self, local_rank: int) -> int:
        return self.scheduler.rank_to_core[self.comm.world_ranks[local_rank]]

    def set_core(self, local_rank: int, core: int) -> None:
        world = self.comm.world_ranks[local_rank]
        tracer = self.scheduler.tracer
        if tracer is not None:
            tracer.instant(
                "migrate",
                "lb",
                world,
                core,
                self.scheduler.clock[world],
                old_core=self.scheduler.rank_to_core[world],
            )
        self.scheduler.rank_to_core[world] = core

    def add_time(self, local_rank: int, seconds: float) -> None:
        self.extra_time[local_rank] = self.extra_time.get(local_rank, 0.0) + seconds

    @property
    def cost(self) -> CostModel:
        return self.scheduler.cost

    @property
    def machine(self) -> MachineModel:
        return self.scheduler.machine

    @property
    def metrics(self):
        return self.scheduler.metrics


@dataclass
class SpmdResult:
    """Outcome of one simulated SPMD run."""

    returns: list
    times: list[float]
    total_time: float
    messages_sent: int
    bytes_sent: int
    collectives: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpmdResult(T={self.total_time:.4f}s, msgs={self.messages_sent}, "
            f"bytes={self.bytes_sent}, colls={self.collectives})"
        )


class Scheduler:
    """Runs a set of rank programs to completion."""

    def __init__(
        self,
        n_ranks: int,
        machine: MachineModel | None = None,
        cost: CostModel | None = None,
        rank_to_core: Sequence[int] | None = None,
        tracer=None,
        metrics=None,
        executor=None,
        resilience=None,
        work_rates=None,
        owns_executor: bool = False,
    ):
        if n_ranks <= 0:
            raise RuntimeConfigError("need at least one rank")
        self.n_ranks = n_ranks
        #: World rank list, one tuple shared by every rank's world Comm (a
        #: tuple per rank would hold P^2 ints).
        self._world = tuple(range(n_ranks))
        self.machine = machine or MachineModel()
        self.cost = cost or CostModel(machine=self.machine)
        if self.cost.machine is not self.machine:
            # Keep one source of truth for the topology, and every rate.
            self.cost = replace(self.cost, machine=self.machine)
        if rank_to_core is None:
            rank_to_core = list(range(n_ranks))
        else:
            rank_to_core = list(rank_to_core)
            if len(rank_to_core) != n_ranks:
                raise RuntimeConfigError("rank_to_core must have one entry per rank")
        self.rank_to_core = rank_to_core
        # Per-message CPU overheads are constants of the (frozen) cost
        # model; cache them here so the per-message hot path does not pay
        # two method calls for every send/recv pair.
        self._send_overhead_s = self.cost.send_overhead()
        self._recv_overhead_s = self.cost.recv_overhead()
        #: ``MachineModel.link`` per ``(src core, dst core)``, filled on
        #: first use.  Keyed by cores, not ranks: an AMPI migration changes
        #: a rank's core, never the tier joining two cores.
        self._links: dict[tuple[int, int], TierCosts] = {}
        #: The last settled round's link prices, keyed by its cores and
        #: sources (:meth:`_clock_round`).
        self._wave_links = None
        #: Optional :class:`repro.instrument.Tracer` — receives spans at
        #: every state transition.  Purely observational: emissions are
        #: guarded with ``is not None`` and never touch simulated state.
        self.tracer = tracer
        #: Optional :class:`repro.instrument.MetricsRegistry`, same contract.
        self.metrics = metrics
        #: Optional :class:`repro.resilience.RuntimeResilience` hook bundle.
        #: Unlike tracer/metrics this one is *not* purely observational: an
        #: attached fault plan perturbs simulated time (deterministically).
        self.resilience = resilience
        #: Optional :class:`repro.runtime.costmodel.WorkRateMeter` keyed by
        #: world rank.  When set, each rank's modelled compute charge is
        #: scaled by its measured slowdown relative to the fleet's fastest
        #: rank, so heterogeneous kernel backends surface as real simulated
        #: imbalance.  Applied only to task-carrying compute ops (the
        #: particle push — the phase the meter actually measures), before
        #: any resilience scaling.  ``None`` (the default) leaves every
        #: simulated timestamp untouched.
        self.work_rates = work_rates
        self.transport = Transport(n_ranks, metrics=metrics)
        self.clock = [0.0] * n_ranks
        #: Current step of each rank (-1 before the first annotation),
        #: maintained by :meth:`notify_step` — fault windows and straggler
        #: observations are keyed on it.
        self.step = [-1] * n_ranks
        #: Cumulative seconds each *rank* occupied its core.  Per-rank
        #: busy time is the straggler signal: rank clocks synchronize at
        #: every collective, busy time does not.
        self.rank_busy = [0.0] * n_ranks
        self.core_clock: dict[int, float] = {}
        #: Cumulative seconds each core spent occupied (compute + message
        #: CPU overheads); feeds the core-busy-fraction metric.
        self.core_busy: dict[int, float] = {}
        self._comm_counter = 0
        self._coll_pool: dict[tuple[int, int], dict[int, ops.CollectiveOp]] = {}
        self._states: list[_RankState] = []
        self.collectives_completed = 0
        #: Compute-execution backend (:mod:`repro.runtime.executor`).
        #: ``None`` defers to the process-wide default (REPRO_EXECUTOR env)
        #: at first use, so plain constructions stay env-configurable.
        self._executor = executor
        #: Whether :meth:`close` closes the executor: an instance this
        #: scheduler acquired itself (the lazy default fallback) or one
        #: handed over with ``owns_executor``; any other belongs to its
        #: caller.
        self._owns_executor = owns_executor or executor is None
        #: ``(rank, task)`` pairs parked since the last executor flush, in
        #: deterministic park order.
        self._pending_exec: list = []
        #: Set once a :class:`~repro.runtime.engine.SimEngine` binds this
        #: scheduler (directly or via :meth:`run`).  Clocks and transport
        #: counters are not reusable, so a second bind raises.
        self._driven = False
        self._finished = 0

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def make_world(self, rank: int) -> Comm:
        """World communicator handle for ``rank`` (comm_id 0)."""
        return Comm(self, 0, self._world, rank)

    def next_comm_id(self) -> int:
        self._comm_counter += 1
        return self._comm_counter

    def notify_step(self, rank: int, step: int) -> None:
        """A rank entered ``step`` (called via ``Comm.annotate_step``).

        Updates the tracer's step stamp and the per-rank step counter, and
        gives the resilience hooks their step-boundary callback (straggler
        observation, crash events) — the only path through which a fault
        plan can charge time outside an op dispatch.
        """
        self.step[rank] = step
        if self.tracer is not None:
            self.tracer.set_step(rank, step)
        if self.resilience is not None:
            self.resilience.on_step_boundary(self, rank, step)

    def run(self, programs: Sequence[Callable[[Comm], Any]]) -> SpmdResult:
        """Execute one program per rank until every rank returns.

        Thin drive-to-completion loop over the re-entrant engine core —
        see :class:`repro.runtime.engine.SimEngine` for the incremental
        API (``tick``/``flush``/``pause``).  A scheduler runs once;
        re-entry raises :class:`RuntimeConfigError`.
        """
        # Local import: engine.py imports names from this module.
        from repro.runtime.engine import SimEngine

        return SimEngine(self, programs).run()

    #: Rank-state factory used by the engine when binding programs.
    _rank_state = _RankState

    def close(self) -> None:
        """Release an owned executor's workers (idempotent).

        Only an executor this scheduler obtained itself (via the
        ``default_executor()`` fallback) or was handed with
        ``owns_executor=True`` is closed; any other instance passed to the
        constructor belongs to its caller.  Closing the process-wide
        default is safe: ``ProcessExecutor.close`` is idempotent and
        leaves a fresh arena behind, so the pool restarts lazily on next
        use.
        """
        if self._owns_executor and self._executor is not None:
            self._executor.close()

    def _advance_one(self, ready: deque) -> None:
        """Pop one ready rank and drive it to its next yield point."""
        r = ready.popleft()
        state = self._states[r]
        if state.status != _RUNNABLE:  # pragma: no cover - defensive
            return
        try:
            value, state.resume_value = state.resume_value, None
            op = state.gen.send(value)
        except StopIteration as stop:
            state.retval = stop.value
            state.status = _DONE
            self._finished += 1
            return
        self._dispatch(r, op, ready)

    # ------------------------------------------------------------------
    # Clock helpers
    # ------------------------------------------------------------------
    def _occupy(self, rank: int, seconds: float) -> float:
        """Occupy the rank's core for ``seconds``; returns the end time.

        Zero-duration occupations are free and must not touch the core
        clock: the core-busy model is forward-only (no backfilling of idle
        gaps), so pushing the core clock to a late rank's current time
        would wrongly delay co-located ranks whose work logically fits in
        the earlier idle gap.
        """
        if seconds == 0.0:
            return self.clock[rank]
        core = self.rank_to_core[rank]
        start = self.clock[rank]
        core_free = self.core_clock.get(core, 0.0)
        if core_free > start:
            start = core_free
        end = start + seconds
        self.clock[rank] = end
        self.core_clock[core] = end
        self.core_busy[core] = self.core_busy.get(core, 0.0) + seconds
        self.rank_busy[rank] += seconds
        return end

    # ------------------------------------------------------------------
    # Deferred compute execution
    # ------------------------------------------------------------------
    def _get_executor(self):
        if self._executor is None:
            from repro.runtime.executor import default_executor

            self._executor = default_executor()
        return self._executor

    def _flush_compute(self, ready: deque) -> None:
        """Run all parked compute tasks, overlapping exchange with compute.

        The batch is handed to the executor in park order via
        ``start_batch``, and ranks are woken strictly one at a time in
        that same park order as their tasks complete; after each wake the
        current ready set gets one round-robin sweep (each ready rank
        advances one op).  The sweep is the overlap: a woken rank packs
        and routes its ownership-exchange messages (pure parent-side
        work) while later tasks of the same batch are still running on
        the workers.  One sweep per wake — rather than draining to
        quiescence — keeps the op interleaving close to the scheduler's
        round-robin concurrency model, which the simulated shared-core
        occupation order is sensitive to.  The policy is uniform across
        executors: eager backends return an already-completed handle
        whose ``wait`` is a no-op, so the interleaving is identical
        whether or not anything actually overlapped, and simulated clocks
        were already charged at dispatch — wall-clock completion order
        can never leak into simulated time.

        When the executor settled the batch as one wave
        (``InProcessExecutor.wave``) and :meth:`_clock_round` admits it,
        the wave's first exchange round is clocked for all members before
        anyone wakes: woken, each member adopts its post-round rows and
        goes straight to the settlement allreduce, so the round's ops never
        pass through the per-op pump.  Everything else — and this whole
        method without that step — is the per-op pump, the oracle the bulk
        clocking must equal bit for bit.
        """
        batch, self._pending_exec = self._pending_exec, []
        executor = self._get_executor()
        handle = executor.start_batch(batch)
        wave = getattr(executor, "wave", None)
        if wave is not None and self._clock_round(wave):
            for _, task in batch:
                task.clocked = True
        states = self._states
        for i, (r, _task) in enumerate(batch):
            handle.wait(i)
            states[r].status = _RUNNABLE
            ready.append(r)
            for _ in range(len(ready)):
                self._advance_one(ready)
        handle.finish()

    def _clock_round(self, wave) -> bool:
        """Clock a settled wave's first exchange round for every member at
        once; False, with nothing moved, leaves the round to the pump.

        ``wave`` is a :class:`~repro.runtime.exchange.SettledWave`.  Each
        member runs the op template of
        :func:`~repro.runtime.exchange._route_axis`'s round: per hop — x
        when ``px > 1``, then y when ``py > 1`` — pack compute of its
        leavers, ``sendrecv`` forward, ``sendrecv`` backward, unpack compute
        of its arrivals.  Clocks, core clocks, core and rank busy seconds
        and the transport's traffic counters move by the same IEEE
        operations, in the same per-member order, as :meth:`_occupy`,
        :meth:`_do_send` and :meth:`_complete_recv` would move them; the
        exchange prices with the driver's cost model, which :attr:`cost`
        equals in every rate.

        Only the interleaving across members differs, and a member's clocks
        are a function of its own ops and its sources' send times, whatever
        order the pump would interleave them in, only when no other rank
        can touch its core or its mailbox and nobody watches the order.  So
        the wave (a subset of the batch) must hold every unfinished rank;
        every member must have a core of its own (AMPI's virtual ranks
        share one) and no pending message (a receive would match it
        first); and no tracer, metrics registry or resilience hook may be
        attached (they record or perturb the interleaving).

        One thing the interleaving does decide is the order in which cores
        never occupied before enter ``core_clock`` (and ``core_busy``;
        checkpoints serialise both in that order).  The pump occupies each
        member's core for the first time in member order when that happens
        by the member's first send — its first or second op, both run
        before the next member wakes — so those keys are inserted here in
        member order.  A round that first occupies a new core later than
        that, with another new core in play, returns False.
        """
        if (
            self.tracer is not None
            or self.metrics is not None
            or self.resilience is not None
        ):
            return False
        ranks, src, n = wave.ranks, wave.sources, wave.lengths
        m = len(ranks)
        if m != self.n_ranks - self._finished:
            return False
        cores = tuple(map(self.rank_to_core.__getitem__, ranks))
        transport = self.transport
        if len(set(cores)) != m or any(map(transport._pending.__getitem__, ranks)):
            return False
        clock, rank_busy = self.clock, self.rank_busy
        core_clock, core_busy = self.core_clock, self.core_busy
        # Rows: the members' clocks, core-free times, core busy and rank
        # busy seconds.
        st = np.array([
            [clock[r] for r in ranks],
            [core_clock.get(c, 0.0) for c in cores],
            [core_busy.get(c, 0.0) for c in cores],
            [rank_busy[r] for r in ranks],
        ])
        hit = np.zeros(m, dtype=bool)  # the members whose core was occupied

        def occupy(seconds) -> None:
            """:meth:`_occupy` for every member: one charge (a float) for
            all or one per member (an array); a charge of 0.0 is free."""
            nonlocal hit
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

        # Latency and bandwidth, (M, 4) each, of the link every member's
        # four receives arrive over, kept for the next wave of the same
        # geometry.
        key = (cores, src.tobytes())
        if self._wave_links is None or self._wave_links[0] != key:
            lat, bw = np.empty(src.shape), np.empty(src.shape)
            for i, row in enumerate(src.tolist()):
                for j, s in enumerate(row):
                    pair = (cores[s], cores[i])
                    link = self._links.get(pair)
                    if link is None:
                        link = self._links[pair] = self.machine.link(*pair)
                    lat[i, j], bw[i, j] = link.latency, link.bandwidth
            self._wave_links = (key, (lat, bw))
        lat, bw = self._wave_links[1]
        cost = self.cost
        send_s, recv_s = self._send_overhead_s, self._recv_overhead_s
        messages = nbytes = 0
        early = None  # the members occupied by their first send
        for axis in (0, 1):
            if wave.dims[axis] == 1:
                continue
            fwd, bwd = n[:, 2 * axis], n[:, 2 * axis + 1]
            src_bwd, src_fwd = src[:, 2 * axis], src[:, 2 * axis + 1]
            occupy(cost.pack_time(fwd + bwd))
            # Forward buffers arrive from the backward source, backward ones
            # from the forward source.
            for j, out, sender in ((2 * axis, fwd, src_bwd),
                                   (2 * axis + 1, bwd, src_fwd)):
                occupy(send_s)
                if early is None:
                    early = hit.copy()
                # cost.particle_wire_bytes(record_nbytes(len(buf))) per buffer
                wire = (record_nbytes(out) * cost.particle_byte_scale).astype(np.int64)
                t_avail = st[0][sender] + (lat[:, j] + wire[sender] / bw[:, j])
                np.maximum(st[0], t_avail, out=st[0])
                occupy(recv_s)
                messages += m
                nbytes += int(wire.sum())
            occupy(cost.pack_time(fwd[src_bwd] + bwd[src_fwd]))
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
        transport._seq += messages
        transport.messages_sent += messages
        transport.bytes_sent += nbytes
        return True

    # ------------------------------------------------------------------
    # Op dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, r: int, op, ready: deque) -> None:
        # Op types are tested most common first.
        kind = type(op)
        if kind is ops.ComputeOp:
            # The simulated charge happens *now*, at dispatch, whether or
            # not the real work is deferred — so batching tasks to an
            # executor cannot move a single simulated timestamp.  An active
            # fault plan scales the charge (slowdown faults) here, at the
            # single point every compute phase passes through.
            seconds = op.seconds
            if (
                self.work_rates is not None
                and op.task is not None
                and seconds > 0.0
            ):
                seconds = self.work_rates.scale_compute(r, seconds)
            if self.resilience is not None and seconds > 0.0:
                seconds = self.resilience.scale_compute(self, r, seconds)
            end = self._occupy(r, seconds)
            if self.tracer is not None and seconds > 0.0:
                self.tracer.record(
                    "compute", "compute", r, self.rank_to_core[r],
                    end - seconds, end,
                )
            if op.task is None:
                ready.append(r)
            else:
                self._states[r].status = _BLOCKED_EXEC
                self._pending_exec.append((r, op.task))
        elif kind is ops.SendrecvOp:
            comm = op.comm
            self._do_send(r, comm, op.dst, op.sendtag, op.payload, op.nbytes, ready)
            msg = self.transport.match(r, comm.comm_id, op.src, op.recvtag)
            if msg is None:
                state = self._states[r]
                state.status = _BLOCKED_RECV
                state.blocked_op = ops.RecvOp(comm, op.src, op.recvtag)
            else:
                self._complete_recv(r, msg)
                ready.append(r)
        elif kind is ops.CollectiveOp:
            self._join_collective(r, op, ready)
        elif kind is ops.SendOp:
            self._do_send(r, op.comm, op.dst, op.tag, op.payload, op.nbytes, ready)
            ready.append(r)
        elif kind is ops.RecvOp:
            self._try_recv(r, op, ready)
        elif kind is ops.WaitOp:
            req = op.request
            if req.done:
                self._states[r].resume_value = req.result
                ready.append(r)
            else:
                # Lazy irecv: the wait performs the blocking receive.
                recv = ops.RecvOp(req.comm, req.src, req.tag)
                req.done = True
                self._try_recv(r, recv, ready)
        else:
            raise TypeError(
                f"rank {r} yielded {op!r}, which is not a runtime operation"
            )

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def _do_send(self, r: int, comm: Comm, dst: int, tag, payload, nbytes, ready: deque) -> None:
        dst_world = comm.world_ranks[dst]
        overhead = self._send_overhead_s
        end = self._occupy(r, overhead)
        if self.tracer is not None and overhead > 0.0:
            self.tracer.record(
                "send", "comm", r, self.rank_to_core[r], end - overhead, end,
                dst=dst_world, tag=tag, nbytes=nbytes,
            )
        cores = (self.rank_to_core[r], self.rank_to_core[dst_world])
        link = self._links.get(cores)
        if link is None:
            link = self._links[cores] = self.machine.link(*cores)
        wire = link.transfer_time(nbytes)
        if self.resilience is not None:
            # Transient delay/drop-with-retry faults lengthen the wire time
            # of matching messages; payloads are never lost.
            wire += self.resilience.message_penalty(self, r, dst_world, nbytes)
        self.transport.post(
            dst_world, comm.comm_id, comm.rank, tag, payload, nbytes, end + wire
        )
        # A rank parked on a matching receive can now continue.
        dst_state = self._states[dst_world]
        if dst_state.status == _BLOCKED_RECV:
            pending = dst_state.blocked_op
            matched = self.transport.match(
                dst_world, pending.comm.comm_id, pending.src, pending.tag
            )
            if matched is not None:
                self._complete_recv(dst_world, matched, pending.with_status)
                dst_state.status = _RUNNABLE
                dst_state.blocked_op = None
                ready.append(dst_world)

    def _try_recv(self, r: int, op: ops.RecvOp, ready: deque) -> None:
        msg = self.transport.match(r, op.comm.comm_id, op.src, op.tag)
        if msg is None:
            state = self._states[r]
            state.status = _BLOCKED_RECV
            state.blocked_op = op
            return
        self._complete_recv(r, msg, op.with_status)
        ready.append(r)

    def _complete_recv(self, r: int, msg: Message, with_status: bool = False) -> None:
        t_avail = msg.t_avail
        if t_avail > self.clock[r]:
            if self.tracer is not None:
                # Blocked-on-message interval: from when the rank posted the
                # receive (its clock froze there) until the message arrived.
                self.tracer.record(
                    "recv_wait", "wait", r, self.rank_to_core[r],
                    self.clock[r], t_avail,
                    src=msg.src, tag=msg.tag,
                )
            self.clock[r] = t_avail
        overhead = self._recv_overhead_s
        end = self._occupy(r, overhead)
        if self.tracer is not None and overhead > 0.0:
            self.tracer.record(
                "recv", "comm", r, self.rank_to_core[r], end - overhead, end,
                src=msg.src, tag=msg.tag, nbytes=msg.nbytes,
            )
        state = self._states[r]
        if with_status:
            state.resume_value = (msg.payload, msg.src, msg.tag)
        else:
            state.resume_value = msg.payload

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def _join_collective(self, r: int, op: ops.CollectiveOp, ready: deque) -> None:
        if self.metrics is not None:
            self.metrics.counter(f"comm.coll.{op.kind}").inc()
        key = (op.comm.comm_id, op.seq)
        pool = self._coll_pool.setdefault(key, {})
        local = op.comm.rank
        if local in pool:  # pragma: no cover - defensive
            raise CollectiveMismatchError(
                f"rank {r} joined collective {key} twice"
            )
        if pool:
            first_kind = next(iter(pool.values())).kind
            if op.kind != first_kind:
                raise CollectiveMismatchError(
                    f"collective #{op.seq} on comm {op.comm.comm_id} mixes "
                    f"kinds {{{first_kind!r}, {op.kind!r}}}"
                )
        pool[local] = op
        state = self._states[r]
        if len(pool) < op.comm.size:
            state.status = _BLOCKED_COLL
            state.blocked_op = op
            return
        # Last arrival completes the collective on behalf of everyone.
        del self._coll_pool[key]
        self._finish_collective(op.comm, pool, ready)

    def _finish_collective(self, comm_sample: Comm, pool: dict[int, ops.CollectiveOp], ready: deque) -> None:
        self.collectives_completed += 1
        size = comm_sample.size
        world_ranks = comm_sample.world_ranks
        op0 = pool[0]
        kind = op0.kind
        values = [pool[i].value for i in range(size)]
        nbytes = max(pool[i].nbytes for i in range(size))
        cores = [self.rank_to_core[w] for w in world_ranks]
        if self.metrics is not None:
            self.metrics.counter("runtime.collectives_completed").inc()

        t_arrive = max(self.clock[w] for w in world_ranks)
        if self.tracer is not None:
            # Early arrivals idled from their own clock until the straggler.
            for w in world_ranks:
                if self.clock[w] < t_arrive:
                    self.tracer.record(
                        f"wait:{kind}", "wait", w, self.rank_to_core[w],
                        self.clock[w], t_arrive,
                    )
        extra: dict[int, float] = {}

        if kind == "user":
            fn = op0.user_fn
            if fn is None:
                raise CollectiveMismatchError("user collective without a function")
            ctx = CollectiveContext(self, pool[0].comm)
            results = fn(values, ctx)
            if len(results) != size:
                raise CollectiveMismatchError(
                    f"user collective returned {len(results)} results for {size} ranks"
                )
            extra = ctx.extra_time
        else:
            results = self._builtin_collective(kind, pool, values, size)

        t_done = t_arrive + self.cost.collective_time(kind, cores, nbytes)
        for i, w in enumerate(world_ranks):
            end_w = t_done + extra.get(i, 0.0)
            if self.tracer is not None and end_w > t_arrive:
                self.tracer.record(
                    f"coll:{kind}", "collective", w, self.rank_to_core[w],
                    t_arrive, end_w, nbytes=nbytes,
                )
            self.clock[w] = end_w
            st = self._states[w]
            st.resume_value = results[i]
            if st.status == _BLOCKED_COLL:
                st.status = _RUNNABLE
                st.blocked_op = None
            ready.append(w)

    def _builtin_collective(self, kind, pool, values, size):
        if kind == "barrier":
            return [None] * size
        if kind == "bcast":
            root_value = values[pool[0].root]
            return [root_value] * size
        if kind == "reduce":
            folded = _fold(pool[0].op, values)
            root = pool[0].root
            return [folded if i == root else None for i in range(size)]
        if kind == "allreduce":
            folded = _fold(pool[0].op, values)
            return [folded] * size
        if kind == "gather":
            root = pool[0].root
            return [list(values) if i == root else None for i in range(size)]
        if kind == "allgather":
            return [list(values) for _ in range(size)]
        if kind == "alltoall":
            return [[values[j][i] for j in range(size)] for i in range(size)]
        if kind == "scan":
            op = pool[0].op
            out = []
            acc = None
            for i, v in enumerate(values):
                acc = v if i == 0 else op(acc, v)
                out.append(acc)
            return out
        if kind == "split":
            return self._do_split(pool, values, size)
        if kind == "cart_create":
            return self._do_cart_create(pool, values, size)
        raise CollectiveMismatchError(f"unknown collective kind {kind!r}")

    def _do_split(self, pool, values, size):
        comm = pool[0].comm
        groups: dict[int, list[tuple[int, int]]] = {}
        for local, (color, key) in enumerate(values):
            if color is None:
                continue
            groups.setdefault(color, []).append((key, local))
        results: list = [None] * size
        for color in sorted(groups):
            members = sorted(groups[color])  # by (key, old rank)
            new_world = tuple(comm.world_ranks[local] for _, local in members)
            new_id = self.next_comm_id()
            for new_rank, (_, local) in enumerate(members):
                results[local] = Comm(self, new_id, new_world, new_rank)
        return results

    def _do_cart_create(self, pool, values, size):
        comm = pool[0].comm
        dims, periodic = values[0]
        if any(v != (dims, periodic) for v in values):
            raise CollectiveMismatchError("ranks disagree on cartesian dims")
        new_id = self.next_comm_id()
        world = tuple(comm.world_ranks)
        return [
            CartComm(self, new_id, world, i, dims, periodic) for i in range(size)
        ]

    # ------------------------------------------------------------------
    def _raise_deadlock(self) -> None:
        blocked_ranks: list[int] = []
        lines = []
        for r, st in enumerate(self._states):
            if st.status == _BLOCKED_RECV:
                op = st.blocked_op
                blocked_ranks.append(r)
                lines.append(
                    f"  rank {r}: parked on recv(src={op.src}, tag={op.tag}, "
                    f"comm={op.comm.comm_id})"
                )
            elif st.status == _BLOCKED_COLL:
                op = st.blocked_op
                blocked_ranks.append(r)
                lines.append(
                    f"  rank {r}: parked on collective {op.kind} #{op.seq} "
                    f"on comm {op.comm.comm_id}"
                )
            elif st.status == _BLOCKED_EXEC:
                blocked_ranks.append(r)
                lines.append(f"  rank {r}: parked on a dispatched compute task")
        detail = "\n".join(lines) if lines else "  (no blocked ranks?)"
        ranks = ", ".join(str(r) for r in blocked_ranks) or "none"
        err = DeadlockError(
            f"no rank can make progress; blocked ranks: [{ranks}]\n"
            + detail
            + "\npending messages:\n"
            + self.transport.describe_pending()
        )
        err.blocked_ranks = blocked_ranks
        raise err


def _fold(op: ReduceOp, values: list):
    if op is None:
        raise CollectiveMismatchError("reduction collective without an operator")
    return op.reduce(values)


def run_spmd(
    n_ranks: int,
    program: Callable[[Comm], Any] | Sequence[Callable[[Comm], Any]],
    *,
    machine: MachineModel | None = None,
    cost: CostModel | None = None,
    rank_to_core: Sequence[int] | None = None,
    tracer=None,
    metrics=None,
    executor=None,
    resilience=None,
    work_rates=None,
) -> SpmdResult:
    """Convenience wrapper: run one program (or one per rank) on ``n_ranks``.

    ``program`` is either a single callable used by every rank or a sequence
    of per-rank callables.
    """
    sched = Scheduler(
        n_ranks,
        machine=machine,
        cost=cost,
        rank_to_core=rank_to_core,
        tracer=tracer,
        metrics=metrics,
        executor=executor,
        resilience=resilience,
        work_rates=work_rates,
    )
    if callable(program):
        programs = [program] * n_ranks
    else:
        programs = list(program)
    try:
        return sched.run(programs)
    except BaseException:
        # Error paths (deadlock, rank failure) must not leak the worker
        # pool of a lazily-created default executor.
        sched.close()
        raise
