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
from repro.runtime.costmodel import CostModel, payload_nbytes
from repro.runtime.errors import (
    CollectiveMismatchError,
    DeadlockError,
    RuntimeConfigError,
)
from repro.runtime.machine import MachineModel, TierCosts
from repro.runtime.message import Message
from repro.runtime.reduce_ops import ReduceOp
from repro.runtime.transport import Transport

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
        if core < 0:
            raise RuntimeConfigError(
                f"rank {world} cannot move to core {core}; cores are >= 0"
            )
        # A rank may move to a core no rank started on: give it state.
        sched = self.scheduler
        missing = core + 1 - len(sched.core_clock)
        if missing > 0:
            sched.core_clock += [0.0] * missing
            sched.core_busy += [0.0] * missing
        tracer = sched.tracer
        if tracer is not None:
            tracer.instant(
                "migrate",
                "lb",
                world,
                core,
                sched.clock[world],
                old_core=sched.rank_to_core[world],
            )
        sched.rank_to_core[world] = core

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
            for rank, core in enumerate(rank_to_core):
                if core < 0:
                    raise RuntimeConfigError(
                        f"rank {rank} is mapped to core {core}; cores are >= 0"
                    )
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
        #: sources (:meth:`_close_step`).
        self._wave_links = None
        #: The last collective's price, keyed by its kind, payload and
        #: cores (:meth:`_collective_end`).
        self._collective_price = None
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
        #: Busy-until time of each core, indexed by core (grown by
        #: :meth:`CollectiveContext.set_core` for a core no rank started on).
        n_cores = max(rank_to_core) + 1
        self.core_clock = [0.0] * n_cores
        #: Cumulative seconds each core spent occupied (compute + message
        #: CPU overheads); feeds the core-busy-fraction metric.
        self.core_busy = [0.0] * n_cores
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
        core_free = self.core_clock[core]
        if core_free > start:
            start = core_free
        end = start + seconds
        self.clock[rank] = end
        self.core_clock[core] = end
        self.core_busy[core] += seconds
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
        """Run all parked compute tasks, then wake the whole batch.

        The core-service rule: a flush wakes the whole batch in park order
        — every member becomes runnable and joins ``ready`` behind whoever
        is already there, none advances here — and a core serves
        occupations in the order the round-robin dispatches them.  The
        engine's ordinary round-robin then advances the woken ranks.  The
        batch is complete before anyone wakes, and simulated clocks were
        charged at dispatch, so neither the executor nor wall-clock
        completion order can reach simulated time.

        A batch forms a wave only for a step that will close, so the gate
        runs before the push: no tracer, metrics registry or resilience
        hook (they record or perturb the interleaving); the batch is the
        whole world (nobody finished, so ``ready`` is empty); no rank has
        a pending message (a receive would match it first); every op is a
        step op settling on the world communicator (:meth:`Comm.run_steps`).
        Failing any, the tasks' ``route`` is cleared and no wave forms.  A
        wave the executor settled without a stray comes back from
        :meth:`~repro.runtime.executor.Executor.take_wave`, and
        :meth:`_close_run` closes it and the quiet steps after it for every
        rank before anyone wakes.  Everything else is the per-op pump, the
        oracle the closed steps must equal bit for bit.
        """
        batch, self._pending_exec = self._pending_exec, []
        if not self._may_close(batch):
            for _r, task in batch:
                if hasattr(task, "route"):
                    task.route = None
        executor = self._get_executor()
        executor.start_batch(batch).finish()
        resident = executor.take_wave()
        if resident is not None:
            self._close_run(batch, resident, ready)
            return
        states = self._states
        for r, _task in batch:
            state = states[r]
            state.status = _RUNNABLE
            state.blocked_op = None
            ready.append(r)

    def _may_close(self, batch) -> bool:
        """:meth:`_flush_compute`'s gate."""
        if (
            self.tracer is not None
            or self.metrics is not None
            or self.resilience is not None
            or len(batch) != self.n_ranks
            or any(self.transport._pending)
        ):
            return False
        states = self._states
        for r, _task in batch:
            settle = states[r].blocked_op.settle
            if settle is None or settle.comm_id != 0:
                return False
        return True

    def _close_run(self, batch, resident, ready: deque) -> None:
        """Close a settled wave's step and the quiet steps after it, for
        every rank at once, then wake the ranks.

        ``resident`` is the :class:`~repro.runtime.executor.ResidentWave`
        of the whole batch, whose first round the executor settled without
        a stray.  Each step closes by :meth:`_close_step`.  Then the run's
        plan (the ops' ``plan``, one per driver) decides: if no rank
        needs its program after this step — no LB round, event or
        checkpoint, not the last step — the closer does what the ranks
        would do up to their next push: every rank enters the next step
        (:attr:`step`) and is charged that push, ``plan.push_seconds`` of
        its count, in world-rank order, the order :meth:`_close_step`
        wakes ranks in and so the pump dispatches the pushes in.  The
        executor pushes its block and settles the next round
        (:meth:`~repro.runtime.executor.ResidentWave.advance`) and the loop
        closes it, its members served in world-rank order now, as the
        pump's flush would wake them.  A round that leaves a stray ends the
        run unclosed: its members run that step's exchange per rank.

        At the end each rank resumes once, with ``(counts, rows)``: its
        post-exchange count after each closed step, and its rows
        (:meth:`~repro.runtime.executor.ResidentWave.release`) for its
        exchange to take, or None when its last pushed step still needs
        its exchange.  Ranks wake in world-rank order.
        """
        n = self.n_ranks
        states = self._states
        plan = states[batch[0][0]].blocked_op.plan
        t = self.step[batch[0][0]]
        wave = resident.wave
        ranks = wave.ranks
        # The pump's service order of members: park order, then world order.
        order, world_order = range(len(ranks)), np.argsort(ranks).tolist()
        closed = []  # each closed step's counts
        stray = False
        while True:
            self._close_step(batch, wave, order)
            closed.append(wave.counts)
            if plan.ends(t):
                break
            t += 1
            self.step[:] = [t] * n
            seconds = np.empty(n)
            seconds[ranks] = plan.push_seconds(wave.counts)
            self._charge_pushes(seconds)
            if not resident.advance():
                stray = True
                break
            wave, order = resident.wave, world_order
        rows = resident.release(stray)
        # A row of counts per member, sized to this run.
        counts = np.stack(closed, axis=1)
        for i, r in enumerate(ranks):
            state = states[r]
            state.resume_value = (counts[i], None if rows is None else rows[i])
            state.status = _RUNNABLE
            state.blocked_op = None
        ready.extend(range(n))

    def _close_step(self, batch, wave, order) -> None:
        """Finish a settled wave's step — its first exchange round and the
        settlement allreduce after it — for every rank at once.

        ``wave`` is a :class:`~repro.runtime.exchange.SettledWave` of the
        whole batch, which :meth:`_flush_compute` let form: no round of it
        left an arrival off its block.  Each member runs the op template
        of ``_route_axis``'s round from its row of the table: per hop — x
        when ``px > 1``, then y when ``py > 1`` — pack compute of its
        leavers, ``sendrecv`` forward, ``sendrecv`` backward, unpack
        compute of its arrivals.  Members with a core each are clocked by
        :meth:`_clock_own_cores`, whose result no interleaving can change;
        members that share cores (AMPI's virtual ranks) by
        :meth:`_replay_shared_cores`, which replays the pump's service
        order: ``order``, the member indices as the flush woke them.
        Clocks, core clocks, busy seconds and the transport's counters
        move by the IEEE operations :meth:`_occupy`, :meth:`_do_send` and
        :meth:`_complete_recv` would use; the exchange prices with the
        driver's cost model, which :attr:`cost` equals in every rate.  The
        allreduce of each rank's zero misplaced count is then what
        :meth:`_finish_collective` does for it — the same price
        (:meth:`_collective_end`) on the same clocks, the collective
        counted, every world sequence number advanced; the ranks then wake
        in world-rank order (:meth:`_close_run`), the order
        :meth:`_finish_collective` wakes them in (change both or
        neither).
        """
        n = self.n_ranks
        ranks = wave.ranks
        cores = tuple(map(self.rank_to_core.__getitem__, ranks))
        hops = self._round_hops(wave, cores)
        if len(set(cores)) == n:
            self._clock_own_cores(ranks, cores, hops)
        else:
            self._replay_shared_cores(ranks, cores, hops, order)
        messages = 2 * n * len(hops)
        transport = self.transport
        transport._seq += messages
        transport.messages_sent += messages
        transport.bytes_sent += sum(
            int(wire.sum()) for *_, slots in hops for _, wire, _ in slots
        )
        t_done = self._collective_end(max(self.clock), "allreduce", self.rank_to_core,
                                      payload_nbytes(0))
        self.clock[:] = [t_done] * n
        self.collectives_completed += 1
        states = self._states
        for r, _task in batch:
            states[r].blocked_op.settle._coll_seq += 1

    def _charge_pushes(self, seconds) -> None:
        """The pushes the ranks of a run dispatch after a closed step:
        :meth:`_occupy` each rank for ``seconds[rank]`` (an array), in
        world-rank order, the order the pump dispatches them in; ranks
        with a core each all at once, as :meth:`_clock_own_cores` does."""
        ranks, cores = range(self.n_ranks), self.rank_to_core
        if len(set(cores)) == self.n_ranks:
            st = self._member_state(ranks, cores)
            _occupy_members(st, seconds)
            self._store_member_state(ranks, cores, st)
            return
        for r, s in enumerate(seconds.tolist()):
            self._occupy(r, s)

    def _round_hops(self, wave, cores) -> list:
        """The prices of a settled round's hops, one tuple per hop that
        runs: ``(leavers, pack_s, arrivals, unpack_s, slots)``, each member's
        leaver count and pack charge and arrival count and unpack charge,
        and per ``sendrecv`` (forward, backward) ``(sender, wire,
        transfer)``: the member each member receives from, the wire bytes
        each member sends and the transfer time of the message each member
        receives.  Link prices are kept for the next wave of the same
        geometry.
        """
        src, n = wave.sources, wave.table
        key = (cores, src.tobytes())
        if self._wave_links is None or self._wave_links[0] != key:
            # Latency and bandwidth, (M, 4) each, of the link every
            # member's four receives arrive over.
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
        hops = []
        for axis in (0, 1):
            if wave.dims[axis] == 1:
                continue
            fwd, bwd, arrivals = n[:, 4 * axis : 4 * axis + 3].T
            slots = []
            # Forward buffers arrive from the backward source, backward ones
            # from the forward source.
            for j, out in ((2 * axis, fwd), (2 * axis + 1, bwd)):
                sender = src[:, j]
                # cost.particle_wire_bytes(record_nbytes(count)) per buffer
                wire = (record_nbytes(out) * cost.particle_byte_scale).astype(np.int64)
                slots.append((sender, wire, lat[:, j] + wire[sender] / bw[:, j]))
            leavers = fwd + bwd
            hops.append((leavers, cost.pack_time(leavers), arrivals,
                         cost.pack_time(arrivals), slots))
        return hops

    def _clock_own_cores(self, ranks, cores, hops) -> None:
        """Clock a round whose members have a core each, all members per op
        with numpy: a member's clocks are then a function of its own ops and
        its sources' send times, whatever order the pump would interleave
        them in.  Per-core state is indexed by core, so it has no order for
        the interleaving to decide either."""
        st = self._member_state(ranks, cores)
        send_s, recv_s = self._send_overhead_s, self._recv_overhead_s
        for _, pack_s, _, unpack_s, slots in hops:
            _occupy_members(st, pack_s)
            for sender, _, transfer in slots:
                _occupy_members(st, send_s)
                np.maximum(st[0], st[0][sender] + transfer, out=st[0])
                _occupy_members(st, recv_s)
            _occupy_members(st, unpack_s)
        self._store_member_state(ranks, cores, st)

    def _member_state(self, ranks, cores) -> np.ndarray:
        """Rows: the members' clocks, core-free times, core busy and rank
        busy seconds (``cores`` a core per member)."""
        return np.array([
            [self.clock[r] for r in ranks],
            [self.core_clock[c] for c in cores],
            [self.core_busy[c] for c in cores],
            [self.rank_busy[r] for r in ranks],
        ])

    def _store_member_state(self, ranks, cores, st) -> None:
        """Write :meth:`_member_state`'s rows back."""
        clock, rank_busy = self.clock, self.rank_busy
        core_clock, core_busy = self.core_clock, self.core_busy
        for r, t, busy in zip(ranks, st[0].tolist(), st[3].tolist()):
            clock[r] = t
            rank_busy[r] = busy
        for c, free, busy in zip(cores, st[1].tolist(), st[2].tolist()):
            core_clock[c] = free
            core_busy[c] = busy

    def _replay_shared_cores(self, ranks, cores, hops, order) -> None:
        """Clock a round whose members share cores by replaying the pump on
        member indices.

        A core serves occupations in the order the round-robin dispatches
        them (DESIGN.md §2), and that order is not (member, op index): a
        member blocked on its forward neighbour's buffer rejoins the deque
        at its tail when the buffer arrives.  So this runs the pump's own
        loop — a deque of members in ``order`` (the pump's wake order of
        member indices), each popped member issuing
        its next op — with a float for a compute charge and an int for a
        ``sendrecv`` slot instead of generators, ops and messages.  A
        ``sendrecv`` does what :meth:`_dispatch` does: occupy the send
        overhead, hand the buffer to a destination blocked on that slot (it
        receives and rejoins the deque) or leave its arrival time in the
        destination's inbox, then receive the member's own buffer or block.
        """
        m = len(ranks)
        # Every member's ops in _route_axis's order, in one flat list (a
        # list per member would cost the garbage collector): a float is a
        # compute charge, an int a sendrecv slot (forward, backward per
        # running hop), None the settlement allreduce that ends the round.
        # at[i] is the index of member i's next op.
        grid = np.empty((m, 4 * len(hops) + 1), dtype=object)
        issued = np.ones(grid.shape, dtype=bool)
        dst, transfer = [], []
        members = np.arange(m)
        for h, (leavers, pack_s, arrivals, unpack_s, slots) in enumerate(hops):
            grid[:, 4 * h] = pack_s.astype(object)
            grid[:, 4 * h + 1] = 2 * h
            grid[:, 4 * h + 2] = 2 * h + 1
            grid[:, 4 * h + 3] = unpack_s.astype(object)
            issued[:, 4 * h] = leavers != 0
            issued[:, 4 * h + 3] = arrivals != 0
            for sender, _, recv_transfer in slots:
                to = np.empty(m, dtype=np.int64)
                to[sender] = members
                dst.append(to.tolist())
                transfer.append(recv_transfer[to].tolist())
        todo = grid[issued].tolist()
        n_ops = issued.sum(axis=1)
        at = (np.cumsum(n_ops) - n_ops).tolist()
        clock, rank_busy = self.clock, self.rank_busy
        core_clock, core_busy = self.core_clock, self.core_busy
        send_s, recv_s = self._send_overhead_s, self._recv_overhead_s
        clk = [clock[r] for r in ranks]
        busy = [rank_busy[r] for r in ranks]
        # The slot each member is blocked on (-1: none), and per slot the
        # arrival time of each member's buffer not yet received.
        blocked = [-1] * m
        inbox = [[None] * m for _ in dst]
        ready = deque(order)
        pop, push = ready.popleft, ready.append
        # Every occupation below is _occupy inlined (the loop's cost is its
        # calls): a nonzero charge starts at max(clock, core free), ends
        # both, and adds to both busy counters; a zero charge is free.
        while ready:
            i = pop()
            op = todo[at[i]]
            if op is None:
                continue
            at[i] += 1
            core = cores[i]
            if type(op) is float:  # compute
                if op != 0.0:
                    t = clk[i]
                    if core_clock[core] > t:
                        t = core_clock[core]
                    clk[i] = core_clock[core] = t = t + op
                    core_busy[core] += op
                    busy[i] += op
                push(i)
                continue
            # sendrecv: the send overhead, then the buffer's arrival time.
            t = clk[i]
            if send_s != 0.0:
                if core_clock[core] > t:
                    t = core_clock[core]
                clk[i] = core_clock[core] = t = t + send_s
                core_busy[core] += send_s
                busy[i] += send_s
            t += transfer[op][i]
            d = dst[op][i]
            if blocked[d] != op:
                inbox[op][d] = t
            else:  # _complete_recv for the destination, which rejoins
                blocked[d] = -1
                if t < clk[d]:
                    t = clk[d]
                if recv_s != 0.0:
                    d_core = cores[d]
                    if core_clock[d_core] > t:
                        t = core_clock[d_core]
                    t += recv_s
                    core_busy[d_core] += recv_s
                    busy[d] += recv_s
                    core_clock[d_core] = t
                clk[d] = t
                push(d)
            t = inbox[op][i]
            if t is None:
                blocked[i] = op
                continue
            # _complete_recv for the member itself
            if t < clk[i]:
                t = clk[i]
            if recv_s != 0.0:
                if core_clock[core] > t:
                    t = core_clock[core]
                t += recv_s
                core_busy[core] += recv_s
                busy[i] += recv_s
                core_clock[core] = t
            clk[i] = t
            push(i)
        for r, t, b in zip(ranks, clk, busy):
            clock[r] = t
            rank_busy[r] = b

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
                state = self._states[r]
                state.status = _BLOCKED_EXEC
                state.blocked_op = op
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
                self._complete_recv(dst_world, matched)
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
        self._complete_recv(r, msg)
        ready.append(r)

    def _complete_recv(self, r: int, msg: Message) -> None:
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
        self._states[r].resume_value = msg.payload

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

        # _close_run wakes a closed run's ranks in this order too:
        # change both or neither.
        t_done = self._collective_end(t_arrive, kind, cores, nbytes)
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

    def _collective_end(self, t_arrive: float, kind: str, cores: list, nbytes) -> float:
        """The clock at which a collective of ``kind`` over ``cores``,
        moving ``nbytes``, ends when its last member arrives at
        ``t_arrive``: the one price of a collective, whether the pump
        finishes it (:meth:`_finish_collective`) or a settled step closes
        in one op (:meth:`_close_step`).  The price is kept for the next
        collective of the same kind, payload and cores (a copy of them:
        an AMPI migration changes the rank -> core map in place)."""
        kept = self._collective_price
        if kept is None or kept[0] != kind or kept[1] != nbytes or kept[2] != cores:
            kept = self._collective_price = (
                kind, nbytes, list(cores), self.cost.collective_time(kind, cores, nbytes)
            )
        return t_arrive + kept[3]

    def _builtin_collective(self, kind, pool, values, size):
        if kind == "barrier":
            return [None] * size
        if kind == "allreduce":
            folded = _fold(pool[0].op, values)
            return [folded] * size
        if kind == "allgather":
            return [list(values) for _ in range(size)]
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


def _occupy_members(st, seconds) -> None:
    """:meth:`Scheduler._occupy` for members with a core each, on
    :meth:`Scheduler._member_state`'s rows: one charge (a float) for all
    or one per member (an array); a charge of 0.0 is free."""
    if isinstance(seconds, float):
        if seconds == 0.0:
            return
        np.maximum(st[0], st[1], out=st[0])
        st[0] += seconds
        st[1] = st[0]
        st[2:] += seconds
        return
    end = np.maximum(st[0], st[1])
    end += seconds
    np.copyto(st[:2], end, where=seconds != 0.0)
    st[2:] += seconds  # busy seconds are >= 0: adding 0.0 keeps every bit


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
