"""Cooperative multiplexer: time-slice many engines round-robin in one process.

:class:`EngineGroup` hands each :class:`~repro.runtime.engine.SimEngine` a
bounded slice (``tick(slice_ticks)`` plus at most one executor flush) per
round.  Virtual time is decoupled from wall-clock drive order (compute is
charged at dispatch; see :mod:`repro.runtime.engine`), so *any* visit order
-- ``order_seed`` shuffles it per round -- gives byte-identical per-engine
results.  A flush is atomic inside one slice, so engines may share one
executor.  It is no throughput device (0.85-0.99 of the rate of sequential
runs); sweeps belong on the campaign fabric.  What is left is what the
engine equivalence matrix and the layered ``multiplex_32`` workload drive.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.runtime.engine import ENGINE_BLOCKED, SimEngine
from repro.runtime.errors import DeadlockError, RuntimeConfigError
from repro.runtime.executor import Executor


class EngineGroup:
    """Run many :class:`SimEngine` instances round-robin, ``slice_ticks`` rank
    steps each per round; ``order_seed`` (``None``: insertion order) shuffles
    every round.  ``executor`` is an optional shared pool the group closes."""

    def __init__(self, *, policy: str = "fair", slice_ticks: int = 64,
                 order_seed: int | None = None, executor: Executor | None = None):
        # Round-robin is the only policy; the keyword stays because the
        # layered benchmark's multiplex_32 workload passes policy="fair".
        if policy != "fair":
            raise RuntimeConfigError(f"unknown multiplex policy {policy!r}")
        if slice_ticks <= 0:
            raise RuntimeConfigError("slice_ticks must be positive")
        self.slice_ticks = slice_ticks
        self.order_seed = order_seed
        self.executor = executor
        self._engines: dict[str, SimEngine] = {}
        self._rng = random.Random(order_seed) if order_seed is not None else None
        #: Completed slices, for reporting.
        self.slices = 0

    def handle(self, tag: str) -> Executor:
        """The shared executor, to build an engine's scheduler with."""
        if self.executor is None:
            raise RuntimeConfigError("EngineGroup has no shared executor")
        return self.executor

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

    def run_all(self) -> dict[str, object]:
        """Interleave every engine to completion; results keyed by name."""
        if not self._engines:
            raise RuntimeConfigError("EngineGroup has no engines to run")
        while pending := [n for n, e in self._engines.items() if not e.finished]:
            if self._rng is not None:
                self._rng.shuffle(pending)
            for name in pending:
                eng = self._engines[name]
                try:
                    if eng.tick(self.slice_ticks) == ENGINE_BLOCKED:
                        eng.flush()
                except DeadlockError as err:
                    if hasattr(err, "add_note"):  # pragma: no branch
                        err.add_note(f"while advancing engine {name!r} in an EngineGroup slice")
                    raise
                self.slices += 1
        return {name: eng.result() for name, eng in self._engines.items()}

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
