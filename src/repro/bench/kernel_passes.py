"""Per-pass accounting of the python kernel's fused block.

The cost of :func:`repro.core.kernel._advance_block` is the full-block ufunc
passes it makes, and one slow pass hides easily among sixty cheap ones (a
scalar-``fmod`` ``np.mod`` once cost a quarter of the push).  This module
makes the passes visible: :func:`record_block_passes` runs one block over
scratch rows that log every ufunc call through ``__array_ufunc__``, and
:func:`time_block_passes` replays each logged call on its own to price it.
The count is exact and host-independent (``tests/core/
test_kernel_pass_budget.py`` pins it); the prices are wall clock
(``benchmarks/bench_kernel_micro.py`` prints them).
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from repro.core import kernel
from repro.core.mesh import Mesh


class BlockPass(NamedTuple):
    """One ufunc call of the block that touched a block-sized operand."""

    ufunc: np.ufunc
    method: str  # "__call__" for an elementwise pass, else e.g. "reduce"
    inputs: tuple  # scalars as passed, arrays as copies taken before the call


def record_block_passes(mesh: Mesh, x, y, vx, vy, q, dt: float) -> list[BlockPass]:
    """Push the fields as one block (in place) and return its full-block calls.

    Calls whose operands are all smaller than the block — the ``np.mod`` on
    the few rows the selective wrap picks out — are executed but not logged.
    """
    n = len(x)
    log: list[BlockPass] = []

    class Recording(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
            plain = [np.asarray(a) if isinstance(a, np.ndarray) else a for a in inputs]
            if out is not None:
                kwargs["out"] = tuple(np.asarray(o) for o in out)
            operands = plain + list(kwargs.get("out", ()))
            if any(isinstance(a, np.ndarray) and a.size == n for a in operands):
                snapshot = tuple(
                    a.copy() if isinstance(a, np.ndarray) else a for a in plain
                )
                log.append(BlockPass(ufunc, method, snapshot))
            return getattr(ufunc, method)(*plain, **kwargs)

    real = kernel.KernelWorkspace()

    class RecordingWorkspace:
        def rows(self, n):
            return [r.view(Recording) for r in real.rows(n)]

        def bool_rows(self, n):
            return [r.view(Recording) for r in real.bool_rows(n)]

    fields = [a.view(Recording) for a in (x, y, vx, vy, q)]
    kernel._advance_block(mesh, *fields, dt, RecordingWorkspace())
    return log


def best_seconds(call: Callable[[], object], reps: int = 1, rounds: int = 5) -> float:
    """Seconds per ``call()``: best of ``rounds`` batches of ``reps``, one warm-up."""
    call()
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(reps):
            call()
        best = min(best, (time.perf_counter() - t0) / reps)
    return best


def time_block_passes(passes: list[BlockPass], reps: int = 200) -> list[float]:
    """Seconds per call of each logged pass, replayed alone.

    A replay writes into its own output row, so it prices the pass with its
    operands cache-hot; the block in situ pays a little more per pass for
    sharing the cache with the other scratch rows.
    """
    seconds = []
    for ufunc, method, inputs in passes:
        if method == "__call__":
            call = partial(ufunc, *inputs, out=ufunc(*inputs))
        else:
            call = partial(getattr(ufunc, method), *inputs)
        seconds.append(best_seconds(call, reps))
    return seconds
