"""Shared machinery of the parallel PIC PRK implementations.

:class:`ParallelPICBase` implements the complete SPMD life cycle of §IV-A —
deterministic decomposition-independent initialization, the per-step
push/exchange loop, event handling, and the final distributed verification —
and exposes two hooks that the load-balanced variants override:

* :meth:`ParallelPICBase.setup_hook` — once, after topology creation;
* :meth:`ParallelPICBase.lb_hook` — after each step's particle exchange, may
  return a new partition (and must then re-route particles).

Particle exchange is the multi-hop x-then-y routing described in DESIGN.md:
each iteration forwards misplaced particles one processor column/row toward
their owner (periodic, shorter direction), then an allreduce checks global
settlement.  For the paper's workloads (``2k+1`` smaller than any block
width) a single iteration suffices, reproducing the baseline's
nearest-neighbor communication structure.

Hot-path note (docs/performance.md): the exchange mutates the rank's
:class:`ParticleArray` in place (``compact`` / ``extend_packed``) and packs
departures into per-rank reused wire buffers (:class:`ExchangeScratch`), so
a settled step — the common case — performs zero full-population array
allocations.  A step with migration makes one range-test pass per axis and
then works on the leavers and arrivals only: index-based packing, tail-fill
compaction, an arrival-only settlement count.  The order of particles within
a rank is therefore implementation-defined (but deterministic).  None of
this changes simulated time, message counts or payload sizes: the
golden-trace and differential suites pin that exactly.
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
from repro.core.particles import STATE_FIELDS, ParticleArray, record_nbytes
from repro.core.spec import InjectionEvent, PICSpec
from repro.decomp.grid import factor_2d, grid_fits_mesh
from repro.decomp.partition import BlockPartition
from repro.runtime.cart import CartComm
from repro.runtime.comm import Comm
from repro.runtime.costmodel import CostModel
from repro.runtime.errors import RuntimeConfigError
from repro.runtime.executor import EMPTY_WIRE, NO_LEAVERS, PushTask, RankRoute
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

# Message tags of the particle-exchange protocol.
TAG_X_RIGHT = 101
TAG_X_LEFT = 102
TAG_Y_UP = 103
TAG_Y_DOWN = 104
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
        work_rates=None,
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
        #: Optional :class:`repro.runtime.costmodel.WorkRateMeter` with
        #: measured per-rank pushes/sec (fed by an executor's ``work_meter``
        #: or seeded directly).  Deliberately *not* part of the RunSpec:
        #: rates are measurements of the host, not identity of the run.
        #: When set, the scheduler scales each rank's modelled push charge
        #: by its measured slowdown, so a mixed compiled/python fleet shows
        #: up as a real, LB-correctable simulated imbalance.
        self.work_rates = work_rates
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
        """Load-balancing hook after the step-``t`` exchange (generator)."""
        return
        yield  # pragma: no cover - makes this a generator

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
        engine = getattr(self, "_engine", None)
        if engine is not None:
            engine.close()

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
            work_rates=self.work_rates,
            owns_executor=self.owns_executor,
        )
        # Measured backend rates are diagnostic context for the straggler
        # watch: flagging still happens on observed busy seconds, but the
        # watch records *why* the fleet is skewed (and by how much).
        if self.work_rates is not None and res is not None and res.watch is not None:
            res.watch.note_backend_rates(self.work_rates.rates())
        # Per-step load sampling backs both the explicit TraceCollector and
        # the imbalance histogram of the metrics registry.
        sampler = self.tracer
        if sampler is None and self.metrics is not None:
            from repro.instrument import TraceCollector

            sampler = TraceCollector()
        programs = [
            self._make_program(
                dims, partition0, locals0[r], injections, sampler,
                start_step=start_step, snapshot=snapshot,
                checkpointer=checkpointer,
            )
            for r in range(self.n_ranks)
        ]
        from repro.runtime.engine import SimEngine

        self._engine = SimEngine(
            scheduler,
            programs,
            engine_id=engine_id,
            checkpointer=checkpointer,
            finalize=lambda spmd: self._finalize(spmd, scheduler, sampler),
        )
        return self._engine

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
                scheduler.core_busy.get(core, 0.0) / total if total > 0 else 0.0
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
        self, dims, partition0, local0, injections, sampler=None,
        *, start_step=0, snapshot=None, checkpointer=None,
    ):
        spec = self.spec
        mesh = self.mesh
        cost = self.cost
        overhead = self.per_step_overhead()

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

            for t in range(start_step, spec.steps):
                comm.annotate_step(t)
                if ev.has_events_at(spec, t):
                    yield from self._apply_events(comm, cart, state, t, injections)
                n_local = len(state.particles)
                step_cost = cost.push_time(n_local) + overhead
                # The push is dispatched as a task descriptor instead of run
                # inline: the scheduler batches all ranks parked here in the
                # same step and hands them to the executor backend, which
                # may fuse the kernel calls or fan them out across worker
                # processes (bitwise-identical either way — see
                # repro.runtime.executor).  The task also carries the rank's
                # exchange route, so a fusing executor may run the first
                # exchange round for the whole group (task.first) and the
                # scheduler clock it (task.clocked).
                task = PushTask(
                    mesh, state.particles, spec.dt, route=state.route(cart, cost)
                )
                yield comm.compute(step_cost, task=task)
                state.pushes += n_local
                state.particles = yield from exchange_particles(
                    comm, cart, state.partition, mesh, state.particles, cost,
                    scratch=state.scratch, first=task.first,
                    clocked=task.clocked,
                )
                yield from self.lb_hook(comm, cart, state, t)
                if len(state.particles) > state.max_particles:
                    state.max_particles = len(state.particles)
                if sampler is not None:
                    sampler.record(cart.rank, t, len(state.particles), comm.core())
                if checkpointer is not None and checkpointer.due(t):
                    yield from self._checkpoint_step(comm, state, t, checkpointer)

            return (yield from self._verify(comm, state))

        return program

    # ------------------------------------------------------------------
    # Resilience plumbing (checkpoint/restart, straggler-forced LB)
    # ------------------------------------------------------------------
    def _watch(self):
        """The run's :class:`~repro.resilience.StragglerWatch`, if any."""
        return self.resilience.watch if self.resilience is not None else None

    def _lb_due(self, state: "_RankState", t: int, interval: int) -> bool:
        """Is a load-balancing round due after step ``t``?

        True on the regular ``interval`` schedule, and additionally when the
        straggler watch flagged a rank since the last handled round.  Every
        rank reaches the same verdict: flags at steps ``<= t`` are complete
        and identical across ranks once step ``t``'s settlement allreduce
        has run, and the ``lb_forced`` bookkeeping advances in lockstep.
        """
        due = (t + 1) % interval == 0
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
        counters = {
            "removed_ids": state.removed_ids,
            "max_particles": state.max_particles,
            "pushes": state.pushes,
            # Numeric hook bookkeeping (LB accumulators, forced-round
            # cursors); communicators and scratch are rebuilt on resume.
            "extra": {
                k: v
                for k, v in state.extra.items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            },
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
        state.extra.update(vp.counters.get("extra", {}))
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
    #: Reusable exchange buffers (wire + range-test scratch) for this rank.
    scratch: "ExchangeScratch" = field(default_factory=lambda: ExchangeScratch())
    #: Scratch slot for subclass hooks (sub-communicators, LB bookkeeping).
    extra: dict[str, Any] = field(default_factory=dict)

    #: :meth:`route`'s cache: the last route built and its partition.
    _route: Any = None
    _routed: Any = None

    def __post_init__(self) -> None:
        self.max_particles = len(self.particles)

    def route(self, cart: CartComm, cost: CostModel) -> RankRoute:
        """This rank's exchange route, rebuilt only when the partition
        changed."""
        if self._routed is not self.partition:
            self._route = _rank_route(self.partition, cart, cost)
            self._routed = self.partition
        return self._route


# ----------------------------------------------------------------------
# Particle exchange
# ----------------------------------------------------------------------
class ExchangeScratch:
    """Per-rank reusable buffers backing the zero-churn particle exchange.

    One instance per SPMD rank (a field of :class:`_RankState`) — the
    exchange generator yields control mid-flight, so a module-level
    singleton would be clobbered by interleaved ranks.  Holds:

    * four wire buffers, one per (axis, direction), that departures are
      packed into with :meth:`ParticleArray.pack_into`.  A receiver copies
      the payload out of the sender's buffer (``extend_packed``) before
      joining the settlement allreduce, and the sender's next write to the
      same buffer happens only after that allreduce — so reuse across hops
      and steps never aliases an in-flight message;
    * float / bool scratch for the one full-population pass a hop makes:
      the ownership range test is computed with ``out=`` into these, so a
      step in which no particle migrates allocates nothing, and a step in
      which some do allocates only leaver-sized index arrays.
    """

    def __init__(self) -> None:
        self._wire: dict[tuple[int, int], np.ndarray] = {}
        self._flt = np.empty(0, dtype=np.float64)
        self._out = np.empty(0, dtype=bool)
        self._tmpb = np.empty(0, dtype=bool)

    def wire(self, axis: int, direction: int, n: int) -> np.ndarray:
        """The ``(capacity, 6)`` wire buffer for one axis/direction."""
        buf = self._wire.get((axis, direction))
        if buf is None or buf.shape[0] < n:
            cap = max(n, 2 * (buf.shape[0] if buf is not None else 0), 16)
            buf = np.empty((cap, STATE_FIELDS), dtype=np.float64)
            self._wire[(axis, direction)] = buf
        return buf

    def outside(self, coord: np.ndarray, mesh: Mesh, lo: int, hi: int):
        """Rows of ``coord`` whose cell lies outside ``[lo, hi)``.

        Returns ``(rows, cells)``: ascending row indices and those rows'
        ``mesh.cell_of`` values.  Rows are flagged straight from positions,
        ``(v < lo) | (v >= hi)`` with ``v = coord / h`` — for ``v`` in
        ``[0, cells)`` exactly ``floor(v)`` outside ``[lo, hi)`` — so the
        floor, cast and periodic wrap run on the flagged rows only.  An
        out-of-domain value (the ``x == L`` rounding edge) is always
        flagged but may wrap to a cell inside the range, hence the re-test
        of the flagged rows' cells.
        """
        n = len(coord)
        if len(self._out) < n:
            cap = max(n, 2 * len(self._out), 16)
            self._flt = np.empty(cap, dtype=np.float64)
            self._out = np.empty(cap, dtype=bool)
            self._tmpb = np.empty(cap, dtype=bool)
        # Division by 1.0 is a bitwise no-op.
        v = coord if mesh.h == 1.0 else np.divide(coord, mesh.h, out=self._flt[:n])
        out = np.less(v, lo, out=self._out[:n])
        tmp = np.greater_equal(v, hi, out=self._tmpb[:n])
        rows = np.logical_or(out, tmp, out=out).nonzero()[0]
        if not len(rows):
            return rows, rows
        cells = np.floor(v[rows]).astype(np.int64)
        np.mod(cells, mesh.cells, out=cells)
        off = (cells < lo) | (cells >= hi)
        if np.count_nonzero(off) != len(rows):
            rows, cells = rows[off], cells[off]
        return rows, cells


def _rank_route(partition: BlockPartition, cart: CartComm, cost=None) -> RankRoute:
    """The rank's block, grid position and source neighbours per axis, and
    the cost model its exchange prices with."""
    bounds = []
    sources = []
    for axis, splits in enumerate((partition.xsplits, partition.ysplits)):
        i = cart.coords[axis]
        bounds += [int(splits[i]), int(splits[i + 1]), i, cart.dims[axis]]
        sources += [cart.world_ranks[cart.shift(axis, d)[0]] for d in (1, -1)]
    return RankRoute(
        tuple(bounds), (partition.xsplits, partition.ysplits), tuple(sources),
        cost,
    )


def exchange_particles(
    comm: Comm,
    cart: CartComm,
    partition: BlockPartition,
    mesh: Mesh,
    particles: ParticleArray,
    cost: CostModel,
    scratch: ExchangeScratch | None = None,
    first=None,
    clocked: bool = False,
):
    """Route particles to their owning rank (generator; returns the new set).

    Each iteration performs one hop of x routing (both directions) and one
    hop of y routing, then checks global settlement with an allreduce.
    Routing direction per particle is the shorter periodic way around.

    ``particles`` is mutated in place (tail-fill compact + extend into its
    pooled backing storage) and also returned, preserving the original
    return-the-new-set contract.  A hop makes one range-test pass over the
    population per axis; everything after it — owner lookup, packing,
    compaction, the settlement count — touches only the particles that
    leave or arrive.

    ``first`` is the first round as the executor settled it
    (:attr:`PushTask.first`, :func:`repro.runtime.executor.exchange_wave`):
    each hop's front half with its count, and the post-round population,
    which the rank adopts here.  The round yields the same ops, costs and
    payloads as without it.  With ``clocked`` the scheduler has already
    charged those ops for the whole wave
    (:func:`repro.runtime.executor.clock_round`, which mirrors
    :func:`_route_axis`'s op template): the round yields nothing, its
    counts come from the fronts, and the rank goes straight to the
    settlement allreduce.  Later rounds always run here.
    """
    my_px, my_py = cart.coords
    px, py = cart.px, cart.py
    if scratch is None:
        scratch = ExchangeScratch()
    x_range = partition.x_range(my_px)
    y_range = partition.y_range(my_py)
    xfront = yfront = None
    if first is not None:
        xfront, yfront, columns = first
        particles.adopt(columns)
    while True:
        # Residents a hop keeps are proven on-block along its axis, so only
        # arrivals can be misplaced: the x hop's on x, the y hop's on both.
        if clocked:
            stray_x, misplaced = xfront[3], yfront[3]
            clocked = False
        else:
            stray_x = misplaced = 0
            if px > 1:
                stray_x = yield from _route_axis(
                    comm, cart, particles, mesh, cost, scratch,
                    splits=partition.xsplits, my_index=my_px, n_index=px,
                    axis=0, tag_fwd=TAG_X_RIGHT, tag_bwd=TAG_X_LEFT,
                    ranges=(x_range,), front=xfront,
                )
            if py > 1:
                misplaced = yield from _route_axis(
                    comm, cart, particles, mesh, cost, scratch,
                    splits=partition.ysplits, my_index=my_py, n_index=py,
                    axis=1, tag_fwd=TAG_Y_UP, tag_bwd=TAG_Y_DOWN,
                    ranges=(x_range, y_range), front=yfront,
                )
        xfront = yfront = None
        if stray_x:
            # Multi-hop case: an x arrival is still off-block and may or may
            # not have left again along y — recount the whole population.
            misplaced = _count_misplaced(
                scratch, mesh, particles.x, particles.y, x_range, y_range
            )
        total = yield comm.allreduce(misplaced, op=SUM)
        if total == 0:
            return particles


def _count_misplaced(scratch, mesh, x, y, x_range, y_range=None) -> int:
    """How many of the positions ``(x, y)`` lie outside the rank's block.

    A particle is misplaced iff its cell column is outside ``x_range`` or
    its cell row is outside ``y_range`` (not tested when ``None``) — exactly
    ``owner_rank != cart.rank`` for a Cartesian-product partition, without
    materializing per-particle owner indices.
    """
    bad, _ = scratch.outside(x, mesh, *x_range)
    if y_range is not None:
        bad_y, _ = scratch.outside(y, mesh, *y_range)
        if len(bad_y):
            bad = np.union1d(bad, bad_y)
    return len(bad)


def hop_front_half(particles, mesh, scratch, *, splits, my_index, n_index, axis, rng):
    """Find and pack one rank's leavers along one axis.

    Returns ``(leavers, fwd_buf, bwd_buf)``: the ascending rows whose cell
    lies outside ``rng``, and those owned forward and backward (the
    shorter periodic way) packed, in row order, into ``scratch``'s wire
    buffers.  With :func:`_route_axis`'s back half this is the per-rank
    path and the oracle of :func:`repro.runtime.executor.exchange_wave`,
    which settles a closed fused group's whole first round at once.  It
    serves everything the wave does not: the process executor, in-place
    tasks, groups that are too small, too big or not closed, rounds >= 2
    and LB exchanges.
    """
    if not len(particles):
        return NO_LEAVERS
    leavers, cells = scratch.outside(
        particles.x if axis == 0 else particles.y, mesh, *rng
    )
    if not len(leavers):
        return NO_LEAVERS
    # Owner index and the shorter periodic direction, for the leavers only
    # (an off-block particle never has dist == 0).
    owner = splits.searchsorted(cells, "right") - 1
    go_fwd = (owner - my_index) % n_index <= n_index // 2
    fwd, bwd = leavers[go_fwd], leavers[~go_fwd]
    fwd_buf = bwd_buf = EMPTY_WIRE
    if len(fwd):
        fwd_buf = particles.pack_into(fwd, scratch.wire(axis, 1, len(fwd)))
    if len(bwd):
        bwd_buf = particles.pack_into(bwd, scratch.wire(axis, -1, len(bwd)))
    return leavers, fwd_buf, bwd_buf


def _route_axis(
    comm, cart, particles, mesh, cost, scratch,
    *, splits, my_index, n_index, axis, tag_fwd, tag_bwd, ranges, front=None,
):
    """One forwarding hop along one axis (generator), in place.

    ``ranges`` is the rank's ``(x_range,)`` for the x hop and ``(x_range,
    y_range)`` for the y hop.  ``front`` is the hop as the executor settled
    it, ``(leavers, fwd_buf, bwd_buf, count)``: the hop then only sends
    and prices, its result already adopted.  Without it
    :func:`hop_front_half` and the back half — compaction, arrivals, the
    count — run here.  Returns how many *arrivals* lie outside any of the
    ranges — kept residents cannot.  The sequence of simulated events —
    pack compute, the two sendrecvs, unpack compute — and their costs and
    payload sizes are identical to the historical copy-based hop (a
    payload is priced by :func:`record_nbytes`, not by its 6-column
    buffer); the order of particles within the rank is not (tail-fill
    compaction).  :func:`repro.runtime.executor.clock_round` replays this
    op template for a whole settled wave: change both or neither.
    """
    if front is None:
        leavers, fwd_buf, bwd_buf = hop_front_half(
            particles, mesh, scratch, splits=splits, my_index=my_index,
            n_index=n_index, axis=axis, rng=ranges[axis],
        )
    else:
        leavers, fwd_buf, bwd_buf, settled = front
    if len(leavers):
        yield comm.compute(cost.pack_time(len(leavers)))

    src_bwd, dst_fwd = cart.shift(axis, 1)
    src_fwd, dst_bwd = cart.shift(axis, -1)
    from_bwd = yield comm.sendrecv(
        fwd_buf, dst=dst_fwd, src=src_bwd, sendtag=tag_fwd, recvtag=tag_fwd,
        nbytes=cost.particle_wire_bytes(record_nbytes(len(fwd_buf))),
    )
    from_fwd = yield comm.sendrecv(
        bwd_buf, dst=dst_bwd, src=src_fwd, sendtag=tag_bwd, recvtag=tag_bwd,
        nbytes=cost.particle_wire_bytes(record_nbytes(len(bwd_buf))),
    )

    n_in = len(from_bwd) + len(from_fwd)
    if n_in:
        yield comm.compute(cost.pack_time(n_in))
    if front is not None:  # the back half's result is already adopted
        return settled
    if len(leavers):
        particles.compact(drop=leavers)
    if not n_in:
        return 0
    n_kept = len(particles)
    particles.extend_packed(from_bwd)
    particles.extend_packed(from_fwd)
    return _count_misplaced(
        scratch, mesh, particles.x[n_kept:], particles.y[n_kept:], *ranges
    )
