"""Re-entrant virtual-time engine core over the SPMD scheduler.

:class:`SimEngine` wraps the scheduler's rank-state / ready-deque /
``_flush_compute`` machinery behind an *incremental* drive API:

* :meth:`SimEngine.tick` advances a bounded number of rank steps and
  returns a status — ``running`` (budget exhausted), ``blocked-on-executor``
  (every runnable rank is parked on a dispatched compute task) or
  ``finished``;
* :meth:`SimEngine.flush` hands the parked batch to the executor and wakes
  the whole batch in park order (``Scheduler._flush_compute``); it
  advances no rank, so the ticks that follow carry every op;
* :meth:`SimEngine.run` is the thin drive-to-completion loop every
  historical ``Scheduler.run`` caller now goes through;
* :meth:`SimEngine.pause` rides the existing CRC-validated checkpoint
  containers to a consistent cut (see
  :func:`repro.resilience.checkpoint.pause_engine`), from which
  :func:`repro.resilience.checkpoint.resume_engine` rebuilds a
  bitwise-identical continuation.

Determinism argument: the engine changes only *where control returns to
the caller*, never the order of ``_advance_one`` / ``_flush_compute``
calls between two consecutive scheduler states.  All simulated state
(clocks, transport, collectives) mutates inside those two calls, so a
``run()`` drive, a ``tick()``-stepped drive with any budget sequence, and
any interleaving of engines inside an
:class:`~repro.runtime.multiplex.EngineGroup` produce byte-identical
positions, checksums, simulated clocks and golden traces
(``tests/parallel/test_engine_equivalence.py``).

Virtual time is fully decoupled from wall-clock drive order: compute is
charged at dispatch, so *when* a caller chooses to tick an engine cannot
move a single simulated timestamp.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Sequence

from repro.runtime.comm import Comm
from repro.runtime.errors import RuntimeConfigError
from repro.runtime.scheduler import _RUNNABLE, SpmdResult

#: :meth:`SimEngine.tick` statuses.
ENGINE_RUNNING = "running"
ENGINE_BLOCKED = "blocked-on-executor"
ENGINE_FINISHED = "finished"


class SimEngine:
    """Incremental driver of one scheduler's run-to-completion loop.

    Constructing the engine *binds* the scheduler: the rank generators are
    instantiated and the ready deque seeded, exactly as the prologue of the
    historical ``Scheduler.run`` did.  A scheduler can be bound once —
    binding a second engine (or calling ``Scheduler.run`` again) raises
    :class:`RuntimeConfigError`, because clocks, transport counters and
    collective pools are not reusable across runs.

    ``finalize`` (optional) maps the raw
    :class:`~repro.runtime.scheduler.SpmdResult` to the caller's result
    type; :meth:`result` returns its value.  The parallel drivers use it to
    assemble a :class:`~repro.parallel.base.ParallelResult` so an
    :class:`~repro.runtime.multiplex.EngineGroup` can hand back finished
    per-engine results directly.

    ``engine_id`` is a label (:attr:`engine_id`); no behaviour depends on it.
    """

    def __init__(
        self,
        scheduler,
        programs: Sequence[Callable[[Comm], Any]],
        *,
        engine_id: str | None = None,
        checkpointer=None,
        finalize: Callable[[Any], Any] | None = None,
    ):
        if getattr(scheduler, "_driven", False):
            raise RuntimeConfigError(
                "scheduler has already been run/bound to an engine; "
                "clocks and transport state are not reusable — construct "
                "a fresh Scheduler per run"
            )
        if len(programs) != scheduler.n_ranks:
            raise RuntimeConfigError(
                f"got {len(programs)} programs for {scheduler.n_ranks} ranks"
            )
        scheduler._driven = True
        self.scheduler = scheduler
        self.engine_id = engine_id
        self.checkpointer = checkpointer
        self._finalize = finalize
        #: Total rank steps (``_advance_one`` calls) driven through
        #: :meth:`tick`, which are all of them: a flush advances no rank.
        self.ticks = 0
        self._status = ENGINE_RUNNING
        self._spmd = None
        self._final = None
        states = scheduler._states = [
            scheduler._rank_state(prog(scheduler.make_world(r)))
            for r, prog in enumerate(programs)
        ]
        # A program without a yield finished when it was called.
        self._ready: deque = deque(
            r for r, st in enumerate(states) if st.status == _RUNNABLE
        )
        scheduler._finished = scheduler.n_ranks - len(self._ready)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def status(self) -> str:
        return self._status

    @property
    def finished(self) -> bool:
        return self._status == ENGINE_FINISHED

    # ------------------------------------------------------------------
    # Drive
    # ------------------------------------------------------------------
    def tick(self, budget: int | None = None) -> str:
        """Advance up to ``budget`` rank steps; return the engine status.

        ``None`` means unbounded: advance until the ready deque drains
        (blocked-on-executor or finished) or a deadlock raises.  The
        sequence of scheduler-state mutations is independent of the budget
        — only the return points differ — which is the whole equivalence
        argument (module docstring).

        A detected stall raises
        :class:`~repro.runtime.errors.DeadlockError` with the same
        blocked-rank diagnosis as a blocking run.
        """
        if self._status == ENGINE_FINISHED:
            return self._status
        sched = self.scheduler
        ready = self._ready
        advance = sched._advance_one
        remaining = -1 if budget is None else budget
        while sched._finished < sched.n_ranks:
            if remaining == 0:
                self._status = ENGINE_RUNNING
                return self._status
            if not ready:
                if sched._pending_exec:
                    self._status = ENGINE_BLOCKED
                    return self._status
                sched._raise_deadlock()
            advance(ready)
            self.ticks += 1
            if remaining > 0:
                remaining -= 1
        self._seal()
        return self._status

    def flush(self) -> str:
        """Run the parked compute batch through the executor (atomic).

        The whole batch finishes, then every member wakes in park order
        (``Scheduler._flush_compute``); no rank advances here, so the op
        order that follows is the round-robin's whatever budget the caller
        ticks with.  No-op (status unchanged) when nothing is parked.
        """
        sched = self.scheduler
        if self._status == ENGINE_FINISHED or not sched._pending_exec:
            return self._status
        sched._flush_compute(self._ready)
        if sched._finished >= sched.n_ranks:
            self._seal()
        else:
            self._status = ENGINE_RUNNING
        return self._status

    def run(self):
        """Drive to completion and return :meth:`result`.

        The tick/flush alternation below performs byte-for-byte the same
        ``_advance_one`` / ``_flush_compute`` call sequence as the
        historical blocking loop.
        """
        while True:
            status = self.tick()
            if status == ENGINE_FINISHED:
                return self.result()
            # tick() only returns early here when blocked on the executor
            # (a deadlock raises inside); flush and keep going.
            self.flush()

    def _seal(self) -> None:
        sched = self.scheduler
        times = list(sched.clock)
        self._spmd = SpmdResult(
            returns=[s.retval for s in sched._states],
            times=times,
            total_time=max(times),
            messages_sent=sched.transport.messages_sent,
            bytes_sent=sched.transport.bytes_sent,
            collectives=sched.collectives_completed,
        )
        self._status = ENGINE_FINISHED

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def result(self):
        """The finished run's result (finalized if a callback was given)."""
        if self._status != ENGINE_FINISHED:
            raise RuntimeConfigError(
                f"engine has not finished (status {self._status!r})"
            )
        if self._finalize is None:
            return self._spmd
        if self._final is None:
            self._final = self._finalize(self._spmd)
        return self._final

    def spmd_result(self):
        """The raw :class:`SpmdResult`, bypassing ``finalize``."""
        if self._status != ENGINE_FINISHED:
            raise RuntimeConfigError(
                f"engine has not finished (status {self._status!r})"
            )
        return self._spmd

    # ------------------------------------------------------------------
    # Pause / resume
    # ------------------------------------------------------------------
    def pause(self, *, force: bool = False) -> str | None:
        """Drive to the next consistent checkpoint cut and stop.

        Requires the engine to have been built with a
        :class:`~repro.resilience.Checkpointer` (the parallel drivers
        thread theirs through ``build_engine``).  Returns the checkpoint
        path, or ``None`` if the run finished before reaching a cut.  See
        :func:`repro.resilience.checkpoint.pause_engine` for the
        ``force`` semantics.
        """
        if self.checkpointer is None:
            raise RuntimeConfigError(
                "pause() needs a checkpointer: build the run with "
                "checkpoint_every > 0 (or attach a Checkpointer) so the "
                "engine has a consistent cut to stop at"
            )
        from repro.resilience.checkpoint import pause_engine

        return pause_engine(self, self.checkpointer, force=force)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release scheduler-owned resources (idempotent).

        Reaps the worker pool of a lazily-acquired default executor after
        an error path; an executor passed in explicitly belongs to its
        caller and is left alone (see ``Scheduler.close``).
        """
        self.scheduler.close()

    def __enter__(self) -> "SimEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
