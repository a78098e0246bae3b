"""Resilience subsystem: fault injection, straggler watch, checkpoint/restart.

Three cooperating pieces (docs/resilience.md):

* :class:`FaultPlan` / :class:`FaultInjector` (:mod:`repro.resilience.faults`)
  — a deterministic, seedable schedule of perturbations the scheduler
  consults at dispatch;
* :class:`Checkpointer` / :class:`Snapshot`
  (:mod:`repro.resilience.checkpoint`) — versioned, CRC-validated snapshots
  of full simulation state with bitwise-identical resume;
* :class:`StragglerWatch` (:mod:`repro.resilience.straggler`) — EWMA-vs-
  median detection over measured per-rank step times, feeding LB hints.

Drivers take a :class:`ResilienceConfig`; the scheduler sees only the small
:class:`RuntimeResilience` hook object, keeping the runtime decoupled from
the subsystem's policy surface.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.resilience.checkpoint import (
    Checkpointer,
    Snapshot,
    pause_engine,
    resume_engine,
)
from repro.resilience.faults import (
    CrashFault,
    FaultInjector,
    FaultPlan,
    MessageFault,
    SlowdownFault,
    unit_hash,
)
from repro.resilience.straggler import StragglerWatch
from repro.runtime.errors import RankFailedError

__all__ = [
    "CrashFault",
    "Checkpointer",
    "FaultInjector",
    "FaultPlan",
    "MessageFault",
    "RecoveryPolicy",
    "ResilienceConfig",
    "RuntimeResilience",
    "Snapshot",
    "SlowdownFault",
    "StragglerWatch",
    "pause_engine",
    "resume_engine",
    "unit_hash",
]


@dataclass(frozen=True)
class RecoveryPolicy:
    """How a crashed rank comes back (all charged to the simulated clock).

    A crash costs ``retries`` failed restart attempts with exponential
    backoff (``backoff_s * 2**i``) plus the time to re-read the rank's
    state from the latest checkpoint (``blob_bytes / restore_bandwidth``;
    ``default_state_bytes`` prices the restore when no checkpoint has been
    taken yet).  The restored state is the *current* one — the simulated
    world is deterministic, so replay from the checkpoint would reproduce
    it exactly; the model charges the recovery time without re-executing.
    """

    restore_bandwidth: float = 2.0e8
    backoff_s: float = 1e-3
    default_state_bytes: int = 1 << 20

    def recovery_seconds(self, retries: int, state_bytes: int) -> float:
        backoff = sum(self.backoff_s * (2.0 ** i) for i in range(retries))
        return backoff + state_bytes / self.restore_bandwidth


@dataclass
class ResilienceConfig:
    """Driver-facing bundle of the subsystem's knobs (all optional)."""

    plan: FaultPlan | None = None
    watch: StragglerWatch | None = None
    checkpointer: Checkpointer | None = None
    recovery: RecoveryPolicy | None = None
    resume: Snapshot | None = None

    def runtime_hook(self) -> "RuntimeResilience | None":
        if self.plan is None and self.watch is None:
            return None
        injector = FaultInjector(self.plan) if self.plan is not None else None
        return RuntimeResilience(
            injector=injector,
            watch=self.watch,
            recovery=self.recovery,
            checkpointer=self.checkpointer,
        )


class RuntimeResilience:
    """The scheduler's view of the subsystem: three dispatch-time hooks.

    All perturbations are deterministic functions of (plan, simulated
    state), and all instrumentation here is guarded/observational — the
    hooks change *when* things happen (simulated seconds), never *what*
    the kernel computes.
    """

    def __init__(self, injector=None, watch=None, recovery=None, checkpointer=None):
        self.injector = injector
        self.watch = watch
        self.recovery = recovery
        self.checkpointer = checkpointer

    # -- compute dispatch ---------------------------------------------
    def scale_compute(self, scheduler, rank: int, seconds: float) -> float:
        if self.injector is None:
            return seconds
        scale = self.injector.compute_scale(
            rank, scheduler.rank_to_core[rank], scheduler.step[rank]
        )
        return seconds * scale

    # -- message send --------------------------------------------------
    def message_penalty(
        self, scheduler, src: int, dst: int, nbytes: int
    ) -> float:
        if self.injector is None or not self.injector.has_message_faults:
            return 0.0
        extra, drops = self.injector.message_penalty(
            src, dst, scheduler.step[src], scheduler.transport.messages_sent
        )
        if extra > 0.0:
            m = scheduler.metrics
            if m is not None:
                m.counter("resilience.messages_perturbed").inc()
                if drops:
                    m.counter("resilience.messages_dropped").inc(drops)
            if drops and scheduler.tracer is not None:
                scheduler.tracer.instant(
                    "fault:msg_drop", "fault", src,
                    scheduler.rank_to_core[src], scheduler.clock[src],
                    dst=dst, drops=drops, nbytes=nbytes,
                )
        return extra

    # -- step boundary -------------------------------------------------
    def on_step_boundary(self, scheduler, rank: int, step: int) -> None:
        if self.watch is not None:
            events = self.watch.observe(
                rank, step, scheduler.rank_busy[rank],
                core=scheduler.rank_to_core[rank],
            )
            for kind, r in events:
                if scheduler.metrics is not None:
                    scheduler.metrics.counter(f"resilience.straggler_{kind}").inc()
                if scheduler.tracer is not None:
                    scheduler.tracer.instant(
                        f"straggler_{kind}", "fault", r,
                        scheduler.rank_to_core[r], scheduler.clock[rank],
                    )
        if self.injector is None:
            return
        crash = self.injector.crash_at(rank, step)
        if crash is None:
            return
        if scheduler.metrics is not None:
            scheduler.metrics.counter("resilience.crashes").inc()
        if self.recovery is None:
            raise RankFailedError(rank, step, "no recovery policy configured")
        state_bytes = self.recovery.default_state_bytes
        ckpt = self.checkpointer
        if ckpt is not None and rank in ckpt.last_blob_bytes:
            state_bytes = ckpt.last_blob_bytes[rank]
        seconds = self.recovery.recovery_seconds(crash.retries, state_bytes)
        end = scheduler._occupy(rank, seconds)
        if scheduler.metrics is not None:
            scheduler.metrics.counter("resilience.recovery_s").inc(seconds)
        if scheduler.tracer is not None:
            scheduler.tracer.record(
                "recovery", "fault", rank, scheduler.rank_to_core[rank],
                end - seconds, end,
                retries=crash.retries, state_bytes=state_bytes,
            )
