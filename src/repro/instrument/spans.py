"""Span-based tracing of the simulated runtime.

A :class:`Tracer` receives *spans* — named intervals of simulated time,
keyed by ``(rank, core, step)`` — from the scheduler at every state
transition: compute phases, send/recv CPU overheads, blocked-on-message
intervals, collective waits, collective bodies, and load-balancing
migrations (as instant events).  Because the scheduler is fully
deterministic, two runs of the same spec produce identical span streams,
which is what makes golden-trace regression tests possible.

Hard invariant: tracing is purely observational.  The tracer never touches
rank clocks, core clocks, message ordering or payloads — a traced run
produces exactly the same simulated times and verification results as an
untraced one (enforced by ``tests/instrument/test_golden_trace.py``).

The ``step`` key is supplied out-of-band: application drivers call
:meth:`repro.runtime.comm.Comm.annotate_step` (non-yielding, zero simulated
cost) at the top of each time step, and every span emitted by that rank is
stamped with the current step until the next annotation.  Spans emitted
before the first annotation carry step ``-1`` (setup/topology creation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

#: Span categories used by the runtime (exporters color by category).
CAT_COMPUTE = "compute"
CAT_COMM = "comm"
CAT_WAIT = "wait"
CAT_COLLECTIVE = "collective"
CAT_LB = "lb"
#: Resilience events: crash recovery spans, message-drop and straggler
#: flag/clear instants (see repro.resilience).
CAT_FAULT = "fault"

CATEGORIES = (CAT_COMPUTE, CAT_COMM, CAT_WAIT, CAT_COLLECTIVE, CAT_LB, CAT_FAULT)


@dataclass(frozen=True)
class Span:
    """One named interval of simulated time on one rank.

    ``args`` is a sorted tuple of ``(key, value)`` pairs so the span stays
    hashable and its serialization order is deterministic.
    """

    name: str
    cat: str
    rank: int
    core: int
    step: int
    t_start: float
    t_end: float
    args: tuple[tuple[str, Any], ...] = ()

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def args_dict(self) -> dict[str, Any]:
        return dict(self.args)


@dataclass(frozen=True)
class InstantEvent:
    """A zero-duration marker (e.g. one VP migration) on one rank."""

    name: str
    cat: str
    rank: int
    core: int
    step: int
    t: float
    args: tuple[tuple[str, Any], ...] = ()

    def args_dict(self) -> dict[str, Any]:
        return dict(self.args)


class Tracer:
    """Collects spans and instant events emitted by the scheduler.

    The tracer lives outside the simulated world: the scheduler guards every
    emission with ``if tracer is not None`` and hands over already-computed
    timestamps, so enabling tracing can never perturb a run.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instants: list[InstantEvent] = []
        self._step: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Recording (called by the scheduler / drivers)
    # ------------------------------------------------------------------
    def set_step(self, rank: int, step: int) -> None:
        """Stamp subsequent spans of ``rank`` with ``step``."""
        self._step[rank] = step

    def record(
        self,
        name: str,
        cat: str,
        rank: int,
        core: int,
        t_start: float,
        t_end: float,
        **args: Any,
    ) -> None:
        self.spans.append(
            Span(
                name=name,
                cat=cat,
                rank=rank,
                core=core,
                step=self._step.get(rank, -1),
                t_start=t_start,
                t_end=t_end,
                args=tuple(sorted(args.items())),
            )
        )

    def instant(
        self, name: str, cat: str, rank: int, core: int, t: float, **args: Any
    ) -> None:
        self.instants.append(
            InstantEvent(
                name=name,
                cat=cat,
                rank=rank,
                core=core,
                step=self._step.get(rank, -1),
                t=t,
                args=tuple(sorted(args.items())),
            )
        )

    # ------------------------------------------------------------------
    # Queries (used by exporters and tests)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans)

    def ranks(self) -> list[int]:
        seen = {s.rank for s in self.spans} | {e.rank for e in self.instants}
        return sorted(seen)

    def cores(self) -> list[int]:
        seen = {s.core for s in self.spans} | {e.core for e in self.instants}
        return sorted(seen)

    def spans_for_rank(self, rank: int) -> list[Span]:
        """This rank's spans in simulated-time order (stable on ties)."""
        return sorted(
            (s for s in self.spans if s.rank == rank),
            key=lambda s: (s.t_start, s.t_end, s.name),
        )

    def seconds_by_category(self, rank: int | None = None) -> dict[str, float]:
        """Total span seconds per category (optionally one rank only)."""
        out: dict[str, float] = {}
        for s in self.spans:
            if rank is not None and s.rank != rank:
                continue
            out[s.cat] = out.get(s.cat, 0.0) + s.duration
        return out

    def busy_fraction(self, rank: int, total_time: float) -> float:
        """Fraction of ``total_time`` this rank spent computing."""
        if total_time <= 0.0:
            return 0.0
        busy = sum(
            s.duration for s in self.spans if s.rank == rank and s.cat == CAT_COMPUTE
        )
        return busy / total_time


# ----------------------------------------------------------------------
# Executor (wall-clock) spans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExecSpan:
    """One wall-clock interval of the compute-execution backend.

    ``worker`` is the worker index (``-1`` for parent-side phases) and
    ``batch`` the 1-based batch sequence number.  Deliberately a separate
    type from :class:`Span`: executor spans live on a *wall-clock* timebase
    (host seconds since pool start) while :class:`Span` records *simulated*
    time — mixing the two in one tracer would make golden traces depend on
    host speed and backend choice.
    """

    phase: str  # "dispatch" | "execute" | "merge" | "task"
    worker: int
    batch: int
    t_start: float
    t_end: float
    args: tuple[tuple[str, Any], ...] = ()

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def args_dict(self) -> dict[str, Any]:
        return dict(self.args)


class ExecutorTrace:
    """Collects :class:`ExecSpan` records from a process executor.

    Kept outside the golden-trace machinery on purpose: backends must
    produce byte-identical *simulated* traces, while these wall-clock spans
    differ on every run.  Export with
    :func:`repro.instrument.write_executor_trace`.
    """

    def __init__(self) -> None:
        self.spans: list[ExecSpan] = []

    def record(
        self,
        phase: str,
        worker: int,
        batch: int,
        t_start: float,
        t_end: float,
        **args: Any,
    ) -> None:
        self.spans.append(
            ExecSpan(
                phase=phase,
                worker=worker,
                batch=batch,
                t_start=t_start,
                t_end=t_end,
                args=tuple(sorted(args.items())),
            )
        )

    def __len__(self) -> int:
        return len(self.spans)

    def workers(self) -> list[int]:
        return sorted({s.worker for s in self.spans})

    def seconds_by_phase(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.phase] = out.get(s.phase, 0.0) + s.duration
        return out


def validate_spans(spans: Iterable[Span]) -> None:
    """Raise ``ValueError`` on malformed spans (negative duration, bad cat).

    Used by tests and exporters as a cheap well-formedness gate.
    """
    for s in spans:
        if s.t_end < s.t_start:
            raise ValueError(f"span {s.name!r} has negative duration: {s}")
        if s.cat not in CATEGORIES:
            raise ValueError(f"span {s.name!r} has unknown category {s.cat!r}")
