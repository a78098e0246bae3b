"""Cooperative multiplexer: time-slice many engines in one process.

:class:`EngineGroup` drives N independent :class:`~repro.runtime.engine.SimEngine`
instances by handing each a bounded slice of work (``tick(slice_ticks)``
plus at most one executor flush) before moving to the next.  Because each
engine's virtual time is fully decoupled from wall-clock drive order
(compute is charged at dispatch; see :mod:`repro.runtime.engine`), *any*
interleaving order produces byte-identical per-engine results — the
scheduling policy only shapes latency/fairness across engines, never a
single simulated timestamp.  That is also what the group is *for*: it is
not a throughput device (N interleaved engines run at 0.85-0.99 of the
rate of N sequential runs, ``multiplex.seq_ratio`` on the layered
``multiplex_32`` workload); sweeps belong on the campaign fabric.

Two policies:

``fair``
    Round-robin over unfinished engines.  ``order_seed`` shuffles the
    visit order once per round (deterministically, via
    ``random.Random(order_seed)``) — the CI ``multirun-smoke`` job uses
    two different seeds to prove order-independence byte-for-byte.

``deadline``
    Each round advances the engine whose virtual clock is furthest
    behind (smallest ``engine.now``; name breaks ties), approximating
    earliest-virtual-deadline-first so co-scheduled runs of different
    sizes finish in virtual-time order rather than submission order.

One executor pool can be shared across engines: the group wraps it in
per-engine :class:`~repro.runtime.executor.ExecutorHandle` views so every
dispatched batch is tagged with its engine id (``Executor.tag_stats``),
while ``_flush_compute`` park-order semantics stay per-engine — a flush
is atomic inside one engine's slice, so batches from different engines
never interleave inside a flush.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.runtime.engine import ENGINE_FINISHED, SimEngine
from repro.runtime.errors import DeadlockError, RuntimeConfigError
from repro.runtime.executor import Executor, ExecutorHandle

_POLICIES = ("fair", "deadline")


class EngineGroup:
    """Run many :class:`SimEngine` instances cooperatively in one process.

    ``policy``
        ``"fair"`` (round-robin) or ``"deadline"`` (furthest-behind
        virtual clock first).
    ``slice_ticks``
        Rank steps granted per engine per slice; each slice also performs
        at most one executor flush when the engine blocks.
    ``order_seed``
        Fair policy only: per-round deterministic shuffle of the visit
        order.  ``None`` keeps insertion order.
    ``executor``
        Optional shared pool.  The group *owns* it (closes it in
        :meth:`close`); use :meth:`handle` to get tagged per-engine views
        for building the engines' schedulers.
    """

    def __init__(
        self,
        *,
        policy: str = "fair",
        slice_ticks: int = 64,
        order_seed: int | None = None,
        executor: Executor | None = None,
    ):
        if policy not in _POLICIES:
            raise RuntimeConfigError(
                f"unknown multiplex policy {policy!r}; "
                f"choose from {', '.join(_POLICIES)}"
            )
        if slice_ticks <= 0:
            raise RuntimeConfigError("slice_ticks must be positive")
        self.policy = policy
        self.slice_ticks = slice_ticks
        self.order_seed = order_seed
        self.executor = executor
        self._engines: dict[str, SimEngine] = {}
        self._rng = random.Random(order_seed) if order_seed is not None else None
        #: Completed slices, for reporting.
        self.slices = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def handle(self, tag: str) -> ExecutorHandle:
        """A tagged per-engine view of the shared pool.

        Raises if the group was built without a shared executor — in that
        configuration each engine owns its backend.
        """
        if self.executor is None:
            raise RuntimeConfigError(
                "EngineGroup has no shared executor; pass executor= at "
                "construction to hand out per-engine handles"
            )
        return ExecutorHandle(self.executor, tag=tag)

    def add(self, name: str, engine: SimEngine) -> SimEngine:
        """Register an engine under ``name`` (its id within the group)."""
        if name in self._engines:
            raise RuntimeConfigError(f"engine {name!r} already in group")
        self._engines[name] = engine
        return engine

    def __len__(self) -> int:
        return len(self._engines)

    def __iter__(self) -> Iterator[str]:
        return iter(self._engines)

    def engine(self, name: str) -> SimEngine:
        return self._engines[name]

    @property
    def unfinished(self) -> list[str]:
        return [n for n, e in self._engines.items() if not e.finished]

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _next_round(self) -> list[str]:
        """Engine names to visit this round, per the policy."""
        pending = self.unfinished
        if not pending:
            return []
        if self.policy == "deadline":
            # Furthest-behind virtual clock first; one engine per round so
            # the deadline ordering re-evaluates after every slice.
            return [min(pending, key=lambda n: (self._engines[n].now, n))]
        if self._rng is not None:
            self._rng.shuffle(pending)
        return pending

    def _slice(self, name: str) -> str:
        """Give one engine one bounded slice of work."""
        eng = self._engines[name]
        try:
            status = eng.tick(self.slice_ticks)
            if status == "blocked-on-executor":
                status = eng.flush()
        except DeadlockError as err:
            if hasattr(err, "add_note"):  # pragma: no branch
                err.add_note(
                    f"while advancing engine {name!r} in an EngineGroup slice"
                )
            raise
        self.slices += 1
        return status

    def step(self) -> bool:
        """Advance one round of slices; False when every engine finished."""
        names = self._next_round()
        if not names:
            return False
        for name in names:
            if not self._engines[name].finished:
                self._slice(name)
        return bool(self.unfinished)

    def run_all(self) -> dict[str, object]:
        """Interleave every engine to completion; results keyed by name.

        Each engine's result is byte-identical to driving it alone with
        ``run()`` — the interleaving order cannot move simulated state.
        """
        if not self._engines:
            raise RuntimeConfigError("EngineGroup has no engines to run")
        while self.step():
            pass
        return {
            name: eng.result()
            for name, eng in self._engines.items()
            if eng.status == ENGINE_FINISHED
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every engine, then the shared pool (if any). Idempotent."""
        for eng in self._engines.values():
            eng.close()
        if self.executor is not None:
            self.executor.close()

    def __enter__(self) -> "EngineGroup":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
