"""Shared machinery of the parallel PIC PRK implementations.

:class:`ParallelPICBase` implements the complete SPMD life cycle of §IV-A —
deterministic decomposition-independent initialization, the per-step
push/exchange loop, event handling, and the final distributed verification —
and exposes two hooks that the load-balanced variants override:

* :meth:`ParallelPICBase.setup_hook` — once, after topology creation;
* :meth:`ParallelPICBase.lb_hook` — after each step's particle exchange, may
  return a new partition (and must then re-route particles).

The per-step particle exchange lives in :mod:`repro.runtime.exchange`;
the drivers call it through this module's ``exchange_particles`` attribute,
so a harness that wraps it here sees every exchange a rank runs.  A rank
yields one op (:meth:`~repro.runtime.comm.Comm.run_steps`) for its push
and the quiet steps after it, the steps its :class:`RunPlan` lets the
scheduler settle for every rank at once (``Scheduler._close_run``), and
gets back its count after each; its one exchange call of the run then
takes the rows the last closed step left it (``settled=``) instead of
routing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.ampi import pup
from repro.core import events as ev
from repro.core import verification
from repro.core.initialization import initialize
from repro.core.mesh import Mesh
from repro.core.particles import ParticleArray
from repro.core.spec import InjectionEvent, PICSpec
from repro.decomp.grid import factor_2d, grid_fits_mesh
from repro.decomp.partition import BlockPartition
from repro.runtime.cart import CartComm
from repro.runtime.comm import Comm
from repro.runtime.costmodel import CostModel
from repro.runtime.errors import RuntimeConfigError
from repro.runtime.exchange import RankRoute, _rank_route, exchange_particles
from repro.runtime.executor import PushTask
from repro.runtime.machine import MachineModel
from repro.runtime.reduce_ops import MAX, SUM
from repro.runtime.scheduler import Scheduler
from repro.config.runspec import (
    CostConfig,
    ExecutorConfig,
    ImplConfig,
    MachineConfig,
    ResilienceSpec,
    RunSpec,
)

#: Message tag of the diffusion LB's subgrid shipment (``mpi2d_lb``).
TAG_SUBGRID = 110


@dataclass
class RankReturn:
    """Per-rank results returned from the SPMD program."""

    final_particles: int
    max_particles: int
    pushes: int
    verification: verification.VerificationResult


@dataclass
class ParallelResult:
    """Aggregated outcome of one parallel PIC run."""

    implementation: str
    n_ranks: int
    n_cores: int
    verification: verification.VerificationResult
    #: Simulated execution time in seconds (max over rank clocks).
    total_time: float
    rank_times: list[float]
    rank_returns: list[RankReturn]
    messages_sent: int
    bytes_sent: int
    collectives: int
    #: Final particle count per physical core (AMPI sums co-located VPs).
    particles_per_core: dict[int, int] = field(default_factory=dict)
    #: Final rank -> core mapping (changes from the initial one only when a
    #: VP runtime migrated ranks; used by locality analyses).
    final_rank_to_core: list[int] = field(default_factory=list)

    @property
    def max_particles_per_core(self) -> int:
        """The §V-B imbalance statistic."""
        return max(self.particles_per_core.values(), default=0)

    @property
    def ideal_particles_per_core(self) -> float:
        total = sum(self.particles_per_core.values())
        return total / max(1, self.n_cores)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.implementation}: T={self.total_time:.4f}s on "
            f"{self.n_cores} cores, {self.verification}"
        )


@dataclass(frozen=True, eq=False)
class RunPlan:
    """Where a run of steps ends, and what a push costs: what the scheduler
    needs to close steps for every rank without resuming any
    (``Scheduler._close_run``), which reads :meth:`ends`,
    :meth:`push_seconds` and ``steps``.  One per engine, shared by its
    ranks.

    After step ``t`` a rank needs its program when an event fires at step
    ``t + 1``, a load-balancing round is due after ``t``
    (:meth:`ParallelPICBase.lb_round_after`), the checkpointer is due at
    ``t`` or ``t`` is the last step: :meth:`ends`.  It is asked per step,
    so a checkpoint requested between flushes still cuts at the next step
    boundary.
    """

    steps: int
    event_steps: set[int]
    lb_round_after: Any
    checkpointer: Any
    cost: CostModel
    overhead: float

    def ends(self, t: int) -> bool:
        """Whether a rank needs its program after step ``t``."""
        return (
            t + 1 >= self.steps
            or t + 1 in self.event_steps
            or self.lb_round_after(t)
            or (self.checkpointer is not None and self.checkpointer.due(t))
        )

    def push_seconds(self, counts):
        """The push charge of each of ``counts``: a rank's step cost."""
        return self.cost.push_time(counts) + self.overhead


class ParallelPICBase:
    """Common driver: subclasses choose topology, mapping and balancing."""

    name = "base"
    #: Constructor defaults of the tunables, by RunSpec ``impl`` field name.
    PARAM_DEFAULTS: dict = {}

    @classmethod
    def resolve_params(cls, **given) -> dict:
        """This driver's tunables, defaults filled in and range-checked
        (subclasses extend).  Pure: the constructors resolve their keyword
        defaults here and :func:`repro.config.build.canonical_runspec` a
        sparse spec's, so the two cannot drift and a hash builds no driver."""
        params = dict(cls.PARAM_DEFAULTS)
        params.update((k, v) for k, v in given.items() if v is not None)
        return params

    def __init__(
        self,
        spec: PICSpec,
        n_cores: int,
        *,
        machine: MachineModel | None = None,
        cost: CostModel | None = None,
        dims: tuple[int, int] | None = None,
        tracer=None,
        span_tracer=None,
        metrics=None,
        executor=None,
        resilience=None,
    ):
        if n_cores <= 0:
            raise RuntimeConfigError("need at least one core")
        self.spec = spec
        self.n_cores = n_cores
        self.machine = machine or MachineModel()
        self.cost = cost or CostModel(machine=self.machine)
        self.mesh = Mesh(spec.cells, spec.h, spec.q)
        #: Optional explicit processor grid, e.g. ``(P, 1)`` for the paper's
        #: Fig. 3 1D block-column decomposition; default is near-square.
        self.dims_override = dims
        #: Optional :class:`repro.instrument.TraceCollector` — observes
        #: per-step loads without perturbing simulated time.
        self.tracer = tracer
        #: Optional :class:`repro.instrument.Tracer` — receives fine-grained
        #: spans (compute/comm/wait/collective) from the scheduler.
        self.span_tracer = span_tracer
        #: Optional :class:`repro.instrument.MetricsRegistry` — counters,
        #: gauges and histograms fed by every layer of the run.
        self.metrics = metrics
        #: Optional compute-execution backend
        #: (:mod:`repro.runtime.executor`); ``None`` lets the scheduler fall
        #: back to the env-configured process default.
        self.executor = executor
        #: Whether the executor is this driver's to close (set by
        #: :func:`repro.config.build.build_impl` when it built one from
        #: the spec); otherwise it belongs to whoever passed it in.
        self.owns_executor = False
        #: Optional :class:`repro.resilience.ResilienceConfig` — fault
        #: plan, straggler watch, checkpointer, recovery policy, resume
        #: snapshot.  Unlike the instrument hooks, an attached fault plan
        #: or checkpointer perturbs simulated time (deterministically).
        self.resilience = resilience
        #: The verification lookup table (:class:`ParticleOrigins`), built
        #: by a fresh :meth:`build_engine` or, after a resume, on first
        #: verify.
        self._origins: verification.ParticleOrigins | None = None

    # ------------------------------------------------------------------
    # Subclass surface
    # ------------------------------------------------------------------
    @property
    def n_ranks(self) -> int:
        """Number of SPMD ranks (== cores for MPI, cores * d for AMPI)."""
        return self.n_cores

    def initial_rank_to_core(self) -> list[int]:
        """Initial rank -> core pinning (identity for plain MPI)."""
        return list(range(self.n_ranks))

    def setup_hook(self, comm: Comm, cart: CartComm, state: "_RankState"):
        """Per-rank setup after topology creation (generator; may yield)."""
        return
        yield  # pragma: no cover - makes this a generator

    def lb_hook(self, comm: Comm, cart: CartComm, state: "_RankState", t: int):
        """Load-balancing hook after the step-``t`` exchange (generator).

        It runs only after steps that end a run (:class:`RunPlan`); a step
        after which it may yield or change anything must be one for which
        :meth:`lb_round_after` is true.
        """
        return
        yield  # pragma: no cover - makes this a generator

    def lb_round_after(self, t: int) -> bool:
        """Whether a load-balancing round is scheduled after step ``t``."""
        return False

    def per_step_overhead(self) -> float:
        """Extra per-rank seconds charged every step (AMPI VP scheduling)."""
        return 0.0

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(self) -> ParallelResult:
        """Build the engine and drive it to completion (the classic API)."""
        engine = self.build_engine()
        try:
            result = engine.run()
        except BaseException:
            # Error paths (deadlock, rank failure) must not leak a
            # lazily-acquired default executor's worker pool.
            engine.close()
            raise
        if self.owns_executor:
            engine.close()
        return result

    def close(self) -> None:
        """Release run resources (idempotent).

        Closes the scheduler side of any engine this driver built (which
        reaps an owned or lazily-acquired default executor's workers); an
        executor passed to the constructor belongs to its caller and is
        untouched.
        """
        scheduler = getattr(self, "_scheduler", None)
        if scheduler is not None:
            scheduler.close()

    def __enter__(self) -> "ParallelPICBase":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def build_engine(self, *, engine_id: str | None = None):
        """Construct a bound :class:`~repro.runtime.engine.SimEngine`.

        Everything :meth:`run` historically did up to (not including) the
        scheduler loop: decomposition, resume/checkpoint resolution,
        initial particle placement, scheduler construction and per-rank
        program creation.  The returned engine is ready to ``tick()``,
        ``run()`` or ``pause()``; its ``result()`` is the driver's
        :class:`ParallelResult`.  ``engine_id`` only names the engine (the
        layered benchmark passes one).
        """
        if self.dims_override is not None:
            dims = tuple(self.dims_override)
            if dims[0] * dims[1] != self.n_ranks:
                raise RuntimeConfigError(
                    f"dims {dims} do not cover {self.n_ranks} ranks"
                )
        else:
            dims = factor_2d(self.n_ranks)
        if not grid_fits_mesh(self.spec.cells, *dims):
            raise RuntimeConfigError(
                f"{dims} processor grid does not fit a {self.spec.cells}^2 mesh"
            )
        partition0 = BlockPartition.uniform(self.spec.cells, *dims)

        res = self.resilience
        snapshot = res.resume if res is not None else None
        checkpointer = res.checkpointer if res is not None else None
        start_step = 0
        if snapshot is not None:
            snapshot.check_compatible(self.name, self.n_ranks, self.n_cores)
            start_step = snapshot.next_step
            # Per-rank state comes out of the snapshot blobs; skip the
            # (possibly expensive) global initialization entirely.
            locals0 = [ParticleArray.empty(0) for _ in range(self.n_ranks)]
        else:
            population = initialize(self.spec, self.mesh)
            locals0 = self._initial_locals(partition0, population)
        if checkpointer is not None:
            checkpointer.meta = self._snapshot_meta()
        injections = ev.materialize_injections(self.spec, self.mesh)
        # A resumed driver has no population: it builds the table on verify.
        self._origins = None if snapshot is not None else (
            verification.ParticleOrigins.build(self.spec, population, injections.values())
        )

        scheduler = Scheduler(
            self.n_ranks,
            machine=self.machine,
            cost=self.cost,
            rank_to_core=self.initial_rank_to_core(),
            tracer=self.span_tracer,
            metrics=self.metrics,
            executor=self.executor,
            resilience=res.runtime_hook() if res is not None else None,
            owns_executor=self.owns_executor,
        )
        # Per-step load sampling backs both the explicit TraceCollector and
        # the imbalance histogram of the metrics registry.
        sampler = self.tracer
        if sampler is None and self.metrics is not None:
            from repro.instrument import TraceCollector

            sampler = TraceCollector()
        plan = RunPlan(
            self.spec.steps, {event.step for event in self.spec.events},
            self.lb_round_after, checkpointer, self.cost, self.per_step_overhead(),
        )
        programs = [
            self._make_program(
                dims, partition0, locals0[r], injections, plan, sampler,
                start_step=start_step, snapshot=snapshot,
                checkpointer=checkpointer,
            )
            for r in range(self.n_ranks)
        ]
        from repro.runtime.engine import SimEngine

        # The driver keeps the scheduler, not the engine: the engine's
        # finalize holds the driver, so driver -> engine would be a cycle
        # and a finished run would wait for the cyclic collector.
        self._scheduler = scheduler
        return SimEngine(
            scheduler,
            programs,
            engine_id=engine_id,
            checkpointer=checkpointer,
            finalize=lambda spmd: self._finalize(spmd, scheduler, sampler),
        )

    def _finalize(self, spmd, scheduler, sampler) -> ParallelResult:
        """Assemble the driver-level result from a finished SPMD run."""
        returns: list[RankReturn] = spmd.returns
        per_core: dict[int, int] = {}
        for r, ret in enumerate(returns):
            core = scheduler.rank_to_core[r]
            per_core[core] = per_core.get(core, 0) + ret.final_particles
        self._record_summary_metrics(spmd, scheduler, sampler, per_core)
        return ParallelResult(
            implementation=self.name,
            n_ranks=self.n_ranks,
            n_cores=self.n_cores,
            verification=returns[0].verification,
            total_time=spmd.total_time,
            rank_times=spmd.times,
            rank_returns=returns,
            messages_sent=spmd.messages_sent,
            bytes_sent=spmd.bytes_sent,
            collectives=spmd.collectives,
            particles_per_core=per_core,
            final_rank_to_core=list(scheduler.rank_to_core),
        )

    def _record_summary_metrics(self, spmd, scheduler, sampler, per_core) -> None:
        """Fill the registry's run-level gauges/histograms (observational)."""
        m = self.metrics
        if m is None:
            return
        m.gauge("run.total_time_s").set(spmd.total_time)
        rank_time = m.histogram("run.rank_time_s")
        for t in spmd.times:
            rank_time.observe(t)
        total = spmd.total_time
        busy = m.histogram("core.busy_fraction")
        for core in range(self.n_cores):
            busy.observe(
                scheduler.core_busy[core] / total if total > 0 else 0.0
            )
        if per_core:
            ideal = sum(per_core.values()) / self.n_cores
            if ideal > 0:
                m.gauge("run.imbalance_final").set(max(per_core.values()) / ideal)
        if sampler is not None:
            imbalance = m.histogram("step.imbalance_ratio")
            for value in sampler.imbalance_series():
                imbalance.observe(float(value))

    # ------------------------------------------------------------------
    # Initialization (decomposition-independent)
    # ------------------------------------------------------------------
    def _initial_locals(
        self, partition: BlockPartition, particles: ParticleArray
    ) -> list[ParticleArray]:
        """Slice the global initial population by owner (copies)."""
        if len(particles) == 0:
            return [ParticleArray.empty(0) for _ in range(self.n_ranks)]
        owner = partition.owner_rank(
            particles.cell_columns(self.mesh), particles.cell_rows(self.mesh)
        )
        order = np.argsort(owner, kind="stable")
        sorted_owner = owner[order]
        bounds = np.searchsorted(sorted_owner, np.arange(self.n_ranks + 1))
        return [
            particles.select(order[bounds[r] : bounds[r + 1]])
            for r in range(self.n_ranks)
        ]

    def _particle_origins(self) -> verification.ParticleOrigins:
        """The verification table; a resumed driver builds it here, once."""
        if self._origins is None:
            self._origins = verification.ParticleOrigins.build(
                self.spec, initialize(self.spec, self.mesh),
                ev.materialize_injections(self.spec, self.mesh).values(),
            )
        return self._origins

    # ------------------------------------------------------------------
    # The SPMD program
    # ------------------------------------------------------------------
    def _make_program(
        self, dims, partition0, local0, injections, plan, sampler=None,
        *, start_step=0, snapshot=None, checkpointer=None,
    ):
        spec = self.spec
        mesh = self.mesh
        cost = self.cost
        event_steps = plan.event_steps

        def program(comm: Comm):
            cart = yield comm.create_cart(dims)
            state = _RankState(partition=partition0, particles=local0)
            state.rng = np.random.default_rng([spec.seed, 7771, comm.world_rank])
            yield from self.setup_hook(comm, cart, state)
            if snapshot is not None:
                # Setup (cart creation, sub-communicators) replays from
                # clock zero; the barrier then lets the first resumed rank
                # reinstate the captured global clocks/counters before any
                # post-resume op dispatches.
                yield comm.barrier()
                self._restore_rank(comm, snapshot, state)

            t = start_step
            while t < spec.steps:
                comm.annotate_step(t)
                if t in event_steps:
                    yield from self._apply_events(comm, cart, state, t, injections)
                n_local = len(state.particles)
                # The push is dispatched as a task descriptor instead of run
                # inline: the scheduler batches all ranks parked here in the
                # same step and hands them to the executor backend, which
                # may fuse the kernel calls or fan them out across worker
                # processes (bitwise-identical either way — see
                # repro.runtime.executor).  The task also carries the rank's
                # exchange route, so a fusing executor may settle the
                # exchange for the whole group; the scheduler then closes
                # this step, and the quiet steps after it, for every rank.
                task = PushTask(mesh, state.particles, spec.dt, route=state.route(cart))
                ran = yield comm.run_steps(plan.push_seconds(n_local), task, plan)
                settled = None
                if ran is not None:
                    # Steps t, t + 1, ... closed.  Only the run's last step
                    # needs the rest of the loop body: the last closed one,
                    # whose rows come back settled, or, when none come
                    # back, the one pushed after it, whose exchange is ours.
                    counts, settled = ran
                    quiet = counts if settled is None else counts[:-1]
                    if len(quiet):
                        state.pushes += n_local + int(quiet[:-1].sum())
                        n_local = int(quiet[-1])
                        state.max_particles = max(state.max_particles, int(quiet.max()))
                        if state.load is not None:
                            state.load += int(quiet.sum())
                        if sampler is not None:
                            core = comm.core()
                            for s, count in enumerate(quiet.tolist(), t):
                                sampler.record(cart.rank, s, count, core)
                        t += len(quiet)
                state.pushes += n_local
                state.particles = yield from exchange_particles(
                    comm, cart, state.partition, mesh, state.particles, cost,
                    settled=settled,
                )
                if state.load is not None:
                    state.load += len(state.particles)
                yield from self.lb_hook(comm, cart, state, t)
                if len(state.particles) > state.max_particles:
                    state.max_particles = len(state.particles)
                if sampler is not None:
                    sampler.record(cart.rank, t, len(state.particles), comm.core())
                if checkpointer is not None and checkpointer.due(t):
                    yield from self._checkpoint_step(comm, state, t, checkpointer)
                t += 1

            return (yield from self._verify(comm, state))

        return program

    # ------------------------------------------------------------------
    # Resilience plumbing (checkpoint/restart, straggler-forced LB)
    # ------------------------------------------------------------------
    def _watch(self):
        """The run's :class:`~repro.resilience.StragglerWatch`, if any."""
        return self.resilience.watch if self.resilience is not None else None

    def _lb_due(self, state: "_RankState", t: int) -> bool:
        """Is a load-balancing round due after step ``t``?

        True on the regular schedule (:meth:`lb_round_after`), and
        additionally when the straggler watch flagged a rank since the last
        handled round.  Every rank reaches the same verdict: flags at steps
        ``<= t`` are complete and identical across ranks once step ``t``'s
        settlement allreduce has run, and the ``lb_forced`` bookkeeping
        advances in lockstep.
        """
        due = self.lb_round_after(t)
        watch = self._watch()
        if watch is None:
            return due
        last = state.extra.get("lb_forced", -1)
        if due:
            state.extra["lb_forced"] = t
        elif watch.straggler_pending(last, t):
            state.extra["lb_forced"] = t
            due = True
        return due

    def _pack_rank(self, state: "_RankState") -> bytes:
        """This rank's PUP blob: particles, RNG, partition, counters."""
        # Numeric hook bookkeeping (LB accumulators, forced-round cursors);
        # communicators are rebuilt on resume.
        extra = {
            k: v
            for k, v in state.extra.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        }
        if state.load is not None:
            extra["load"] = state.load
        counters = {
            "removed_ids": state.removed_ids,
            "max_particles": state.max_particles,
            "pushes": state.pushes,
            "extra": extra,
        }
        return pup.pack_vp(
            state.particles,
            rng=state.rng,
            partition=state.partition,
            counters=counters,
        )

    def _checkpoint_step(self, comm: Comm, state: "_RankState", t: int, ckpt):
        """End-of-step checkpoint round (generator; consistent cut)."""
        blob = self._pack_rank(state)
        yield comm.compute(ckpt.write_seconds(pup.charged_nbytes(blob)))
        yield comm.barrier()
        ckpt.contribute(comm._scheduler, comm.world_rank, t, blob, self.n_ranks)

    def _restore_rank(self, comm: Comm, snapshot, state: "_RankState") -> None:
        """Reinstate this rank's state from its snapshot blob (post-barrier)."""
        snapshot.apply_global(comm._scheduler)
        vp = pup.unpack_vp(snapshot.blobs[comm.world_rank])
        state.particles = vp.particles
        if vp.partition is not None:
            state.partition = vp.partition
        state.removed_ids = int(vp.counters.get("removed_ids", 0))
        state.max_particles = int(vp.counters.get("max_particles", len(vp.particles)))
        state.pushes = int(vp.counters.get("pushes", 0))
        extra = dict(vp.counters.get("extra", {}))
        if "load" in extra:
            state.load = extra.pop("load")
        state.extra.update(extra)
        if vp.rng_state is not None:
            state.rng = pup.rng_from_state(vp.rng_state)

    # ------------------------------------------------------------------
    # RunSpec derivation / construction
    # ------------------------------------------------------------------
    def _impl_config(self) -> ImplConfig:
        """This driver's impl section; subclasses add their tunables."""
        return ImplConfig(
            name=self.name,
            cores=self.n_cores,
            dims=None if self.dims_override is None else tuple(self.dims_override),
        )

    def runspec(self) -> RunSpec:
        """The declarative :class:`~repro.config.runspec.RunSpec` equivalent
        to this driver instance.

        Derived from live state — the same constructor arguments always
        yield the same RunSpec (and hence the same ``spec_hash()``), no
        matter whether the driver was built by hand, by the CLI or by
        :func:`repro.config.build.build_impl`.  The executor section is
        left at "inherit" (it is not part of the spec's identity: backends
        are bitwise-equivalent).
        """
        return RunSpec(
            workload=self.spec,
            impl=self._impl_config(),
            machine=MachineConfig.from_model(self.machine),
            cost=CostConfig.from_model(self.cost),
            executor=ExecutorConfig(),
            resilience=ResilienceSpec.from_config(self.resilience),
        )

    def _snapshot_meta(self) -> dict:
        """Checkpoint ``meta`` block: the embedded RunSpec identity document
        plus its content hash — everything resume needs to rebuild us, and
        what ``pic-prk resume --spec`` validates a requested spec against.
        """
        rs = self.runspec()
        return {"runspec": rs.identity_dict(), "runspec_hash": rs.spec_hash()}

    def _apply_events(self, comm, cart: CartComm, state: "_RankState", t, injections):
        """Fire the step's events; injected particles filter by ownership."""
        spec, mesh, cost = self.spec, self.mesh, self.cost
        moved = 0
        for idx, event in enumerate(spec.events):
            if event.step != t:
                continue
            if isinstance(event, InjectionEvent):
                newp = injections[idx]
                owner = state.partition.owner_rank(
                    newp.cell_columns(mesh), newp.cell_rows(mesh)
                )
                mine = newp.select(owner == cart.rank)
                if len(mine):
                    state.particles.extend(mine)
                    moved += len(mine)
                    if self.metrics is not None:
                        self.metrics.counter("particles.injected").inc(len(mine))
            else:
                mask = ev.removal_mask(event, mesh, state.particles)
                n_gone = int(mask.sum())
                if n_gone:
                    state.removed_ids += int(
                        np.sum(state.particles.pid[mask], dtype=np.int64)
                    )
                    state.particles.compact(~mask)
                    moved += n_gone
                    if self.metrics is not None:
                        self.metrics.counter("particles.removed").inc(n_gone)
        if moved:
            yield comm.compute(cost.pack_time(moved))

    def _verify(self, comm, state: "_RankState"):
        spec, mesh = self.spec, self.mesh
        particles = state.particles
        if len(particles):
            local_err = float(
                verification.position_errors(
                    mesh, particles, spec.steps, self._particle_origins()
                ).max()
            )
        else:
            local_err = 0.0
        g_err = yield comm.allreduce(local_err, op=MAX)
        g_ids = yield comm.allreduce(particles.id_checksum(), op=SUM)
        g_count = yield comm.allreduce(len(particles), op=SUM)
        g_removed = yield comm.allreduce(state.removed_ids, op=SUM)
        expected = verification.expected_checksum(spec, g_removed)
        result = verification.verify_distributed(
            mesh,
            particles,
            spec.steps,
            expected,
            global_max_error=g_err,
            global_count=g_count,
            global_id_sum=g_ids,
        )
        return RankReturn(
            final_particles=len(particles),
            max_particles=state.max_particles,
            pushes=state.pushes,
            verification=result,
        )


@dataclass
class _RankState:
    """Mutable per-rank simulation state threaded through the hooks."""

    partition: BlockPartition
    particles: ParticleArray
    removed_ids: int = 0
    max_particles: int = 0
    pushes: int = 0
    #: Per-rank RNG stream, seeded from (spec.seed, rank) and checkpointed
    #: via the PUP blob so resumed runs continue the identical sequence.
    rng: Any = None
    #: Scratch slot for subclass hooks (sub-communicators, LB bookkeeping).
    extra: dict[str, Any] = field(default_factory=dict)
    #: The rank's particle count after each step's exchange, summed by the
    #: program since the driver's load balancer last reset it; None (not
    #: summed, not checkpointed) unless the driver's setup sets it.
    load: int | None = None

    #: :meth:`route`'s cache: the last route built and its partition.
    _route: Any = None
    _routed: Any = None

    def __post_init__(self) -> None:
        self.max_particles = len(self.particles)

    def route(self, cart: CartComm) -> RankRoute:
        """This rank's exchange route, rebuilt only when the partition
        changed."""
        if self._routed is not self.partition:
            self._route = _rank_route(self.partition, cart)
            self._routed = self.partition
        return self._route

