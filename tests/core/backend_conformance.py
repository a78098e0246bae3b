"""Shared harness for the cross-backend bitwise conformance suite.

Not collected directly (pytest only collects ``test_*.py``); imported by
``tests/core/test_backend_conformance.py`` and anything else that wants
to run a kernel-touching scenario under both kernel backends.

Everything here funnels into one claim: the python fused kernel, the
compiled C kernel and the textbook ``advance_reference`` are
*bit-for-bit* interchangeable — positions, checksums, simulated clocks,
golden traces and checkpoint files, never ``allclose``.  On a host without
a usable C compiler the compiled legs skip (``requires_compiled``, the one
skip mark for them) and ``auto`` falls back to python.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest

from repro.core import kernel, kernel_compiled
from repro.core.mesh import Mesh
from repro.core.particles import ParticleArray
from repro.core.spec import Distribution, PICSpec
from repro.instrument import Tracer, dumps_chrome_trace
from repro.parallel import AmpiPIC, Mpi2dLbPIC, Mpi2dPIC
from repro.resilience import Checkpointer, ResilienceConfig
from repro.runtime.executor import make_executor

requires_compiled = pytest.mark.skipif(
    not kernel_compiled.compiled_available(),
    reason="the compiled kernel backend needs a working C compiler ('cc')",
)

#: The backends that can run here, for fixtures that precompute every cell.
AVAILABLE_BACKENDS = ["python"] + (
    ["compiled"] if kernel_compiled.compiled_available() else []
)

#: All kernel backends, the compiled one skip-marked where it cannot load.
BACKENDS = [
    pytest.param("python", id="python"),
    pytest.param("compiled", id="compiled", marks=requires_compiled),
]

#: The three parallel implementations, smallest meaningful configs.
IMPLS = [
    ("mpi-2d", Mpi2dPIC, {}),
    ("mpi-2d-LB", Mpi2dLbPIC, dict(lb_interval=3, border_width=1)),
    ("ampi", AmpiPIC, dict(overdecomposition=2, lb_interval=4)),
]

#: Executor backends crossed with the kernel backends in the full matrix.
EXECUTORS = [("serial", 0), ("batched", 0), ("process", 2)]

#: Small but non-trivial: enough particles/steps that every rank computes,
#: exchanges across subgrid borders, checkpoints mid-run and rebalances.
SPEC = PICSpec(
    cells=32, n_particles=600, steps=8, distribution=Distribution.UNIFORM
)
CORES = 4
CKPT_EVERY = 4


# ----------------------------------------------------------------------
# Kernel-level helpers
# ----------------------------------------------------------------------
def advance_arrays_backend(backend, mesh, x, y, vx, vy, q, dt, workspace=None):
    """Dispatch an ``advance_arrays`` call to the named kernel backend."""
    if backend == "python":
        kernel.advance_arrays(mesh, x, y, vx, vy, q, dt, workspace=workspace)
    elif backend == "compiled":
        kernel_compiled.advance_arrays_compiled(
            mesh, x, y, vx, vy, q, dt, workspace=workspace
        )
    else:  # pragma: no cover - harness misuse
        raise ValueError(f"unknown backend {backend!r}")


def make_particles(n, mesh, seed=11, v_scale=0.05):
    rng = np.random.default_rng(seed)
    p = ParticleArray.empty(n)
    p.x[:] = rng.uniform(0.0, mesh.L, n)
    p.y[:] = rng.uniform(0.0, mesh.L, n)
    p.vx[:] = rng.normal(size=n) * v_scale
    p.vy[:] = rng.normal(size=n) * v_scale
    p.q[:] = np.where(rng.integers(0, 2, n) == 0, 1.0, -1.0)
    return p


def assert_bitwise_equal(a: ParticleArray, b: ParticleArray, context=""):
    for name in ("x", "y", "vx", "vy"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), (
            f"{name} diverged {context}"
        )


# ----------------------------------------------------------------------
# Full-run harness
# ----------------------------------------------------------------------
class _Capturing:
    """Mixin factory: stash each rank's final particles for comparison."""

    _cache: dict = {}

    @classmethod
    def wrap(cls, impl_cls):
        got = cls._cache.get(impl_cls)
        if got is None:

            class Capturing(impl_cls):
                def __init__(self, *args, **kw):
                    super().__init__(*args, **kw)
                    self.final = {}

                def _verify(self, comm, state):
                    self.final[comm.world_rank] = state.particles.copy()
                    return (yield from super()._verify(comm, state))

            got = cls._cache[impl_cls] = Capturing
        return got


def trace_hash(tracer: Tracer) -> str:
    """Stable digest of a golden (simulated-time) trace."""
    return hashlib.sha256(
        dumps_chrome_trace(tracer).encode("utf-8")
    ).hexdigest()


def run_scenario(impl_cls, params, executor_name, workers, backend, ckpt_dir):
    """One full run; returns every artifact the conformance claim covers.

    The result dict is directly comparable across matrix cells: positions
    are per-rank packed bytes, the golden trace is a sha256, checkpoint
    files are raw bytes keyed by file name.
    """
    ex = make_executor(executor_name, workers=workers, kernel_backend=backend)
    tracer = Tracer()
    resilience = ResilienceConfig(
        checkpointer=Checkpointer(str(ckpt_dir), every=CKPT_EVERY)
    )
    impl = _Capturing.wrap(impl_cls)(
        SPEC, CORES, span_tracer=tracer, executor=ex, resilience=resilience,
        **params,
    )
    try:
        result = impl.run()
    finally:
        ex.close()
    assert result.verification.ok, str(result.verification)
    ckpts = {
        name: open(os.path.join(ckpt_dir, name), "rb").read()
        for name in sorted(os.listdir(ckpt_dir))
    }
    assert ckpts, "expected at least one checkpoint file"
    return {
        "positions": {
            rank: p.pack().tobytes() for rank, p in impl.final.items()
        },
        "id_checksum": result.verification.id_checksum,
        "max_abs_error": result.verification.max_abs_error,
        "n_particles": result.verification.n_particles,
        "total_time": result.total_time,
        "rank_times": tuple(result.rank_times),
        "trace_hash": trace_hash(tracer),
        "checkpoints": ckpts,
    }


def assert_scenarios_identical(ref: dict, got: dict, context=""):
    """Every conformance artifact, byte-for-byte."""
    assert sorted(got["positions"]) == sorted(ref["positions"]), context
    for rank, blob in ref["positions"].items():
        assert got["positions"][rank] == blob, (
            f"rank {rank} particle bytes diverged {context}"
        )
    for key in ("id_checksum", "max_abs_error", "n_particles"):
        assert got[key] == ref[key], f"{key} diverged {context}"
    assert got["total_time"] == ref["total_time"], context
    assert got["rank_times"] == ref["rank_times"], context
    assert got["trace_hash"] == ref["trace_hash"], (
        f"golden trace diverged {context}"
    )
    assert sorted(got["checkpoints"]) == sorted(ref["checkpoints"]), context
    for name, blob in ref["checkpoints"].items():
        assert got["checkpoints"][name] == blob, (
            f"checkpoint {name} diverged {context}"
        )
