"""Bitwise determinism of the executor x kernel-backend matrix.

A fig6-shape config is run under every cell of {serial, batched,
process --workers 4} x {python, compiled}; every cell must produce
identical final particle positions, id checksums, simulated times, golden
traces and *checkpoint files* — not merely equal within one backend.
Compiled cells skip only on a host without a working C compiler.

Worker (wall-clock) spans are structurally excluded from the comparison:
they live in a separate :class:`repro.instrument.ExecutorTrace`, never in
the simulated-time :class:`~repro.instrument.Tracer` that golden traces
are built from.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.bench.workloads import FIG6_CELLS, rescale_r
from repro.core.spec import PICSpec
from repro.instrument import ExecutorTrace, Tracer, dumps_chrome_trace
from repro.parallel.mpi2d import Mpi2dPIC
from repro.resilience import Checkpointer, ResilienceConfig
from repro.runtime.executor import make_executor
from tests.core.backend_conformance import AVAILABLE_BACKENDS, requires_compiled

_SPEC = PICSpec(
    cells=FIG6_CELLS,
    n_particles=6_000,
    steps=3,
    r=rescale_r(0.999, 2998, FIG6_CELLS),
)
_CORES = 4
_CKPT_EVERY = 2

_EXECUTORS = [("serial", 0), ("batched", 0), ("process", 4)]

_CELLS = [
    pytest.param(
        (ex, w, backend),
        id=f"{ex}-{backend}",
        marks=() if backend == "python" else (requires_compiled,),
    )
    for ex, w in _EXECUTORS
    for backend in ["python", "compiled"]
]
#: Cells compared against the serial/python reference (which is excluded).
_OTHER_CELLS = [
    p
    for p in _CELLS
    if (p.values[0][0], p.values[0][2]) != ("serial", "python")
]


class _CapturingPIC(Mpi2dPIC):
    """Stashes each rank's final particle set for bitwise comparison."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.final = {}

    def _verify(self, comm, state):
        self.final[comm.rank] = state.particles.copy()
        return (yield from super()._verify(comm, state))


def _run(executor_name, workers, backend, ckpt_dir, exec_tracer=None):
    ex = make_executor(
        executor_name, workers=workers, exec_tracer=exec_tracer,
        kernel_backend=backend,
    )
    tracer = Tracer()
    resilience = ResilienceConfig(
        checkpointer=Checkpointer(str(ckpt_dir), every=_CKPT_EVERY)
    )
    impl = _CapturingPIC(
        _SPEC, _CORES, span_tracer=tracer, executor=ex, resilience=resilience
    )
    try:
        result = impl.run()
    finally:
        ex.close()
    assert result.verification.ok
    ckpts = {
        name: open(os.path.join(ckpt_dir, name), "rb").read()
        for name in sorted(os.listdir(ckpt_dir))
    }
    assert ckpts, "expected at least one checkpoint file"
    return result, impl.final, dumps_chrome_trace(tracer), ckpts


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = {}
    for ex, workers in _EXECUTORS:
        for backend in AVAILABLE_BACKENDS:
            exec_tracer = (
                ExecutorTrace()
                if (ex, backend) == ("process", "python")
                else None
            )
            ckpt = tmp_path_factory.mktemp(f"ckpt-{ex}-{backend}")
            out[(ex, backend)] = _run(ex, workers, backend, ckpt, exec_tracer)
            if exec_tracer is not None:
                out["exec_tracer"] = exec_tracer
    return out


@pytest.mark.parametrize("cell", _OTHER_CELLS)
class TestBitwiseAgainstSerialPython:
    def _pick(self, runs, cell):
        ex, _w, backend = cell
        return runs[("serial", "python")], runs[(ex, backend)]

    def test_final_positions_identical(self, runs, cell):
        (_, ref, _, _), (_, got, _, _) = self._pick(runs, cell)
        assert sorted(ref) == sorted(got)
        for rank in ref:
            for f in ("x", "y", "vx", "vy", "q", "pid"):
                np.testing.assert_array_equal(
                    getattr(ref[rank], f), getattr(got[rank], f),
                    err_msg=f"rank {rank} field {f} diverged ({cell})",
                )

    def test_id_checksums_identical(self, runs, cell):
        (ref_res, *_), (got_res, *_) = self._pick(runs, cell)
        assert (
            got_res.verification.id_checksum == ref_res.verification.id_checksum
        )
        assert got_res.verification.n_particles == ref_res.verification.n_particles
        assert got_res.verification.max_abs_error == ref_res.verification.max_abs_error

    def test_simulated_times_identical(self, runs, cell):
        (ref_res, *_), (got_res, *_) = self._pick(runs, cell)
        assert got_res.total_time == ref_res.total_time
        assert got_res.rank_times == ref_res.rank_times

    def test_golden_traces_identical(self, runs, cell):
        """Byte-identical Chrome traces: neither the executor nor the
        kernel backend is visible in simulated time (worker spans live
        elsewhere, see module docstring)."""
        (*_, ref_trace, _), (*_, got_trace, _) = self._pick(runs, cell)
        assert got_trace == ref_trace

    def test_checkpoint_files_identical(self, runs, cell):
        """Checkpoints taken mid-run come out byte-for-byte the same in
        every matrix cell — the executor/backend choice must not leak into
        persisted state (this is what makes cross-backend resume sound)."""
        (*_, ref_ckpts), (*_, got_ckpts) = self._pick(runs, cell)
        assert sorted(got_ckpts) == sorted(ref_ckpts)
        for name, blob in ref_ckpts.items():
            assert got_ckpts[name] == blob, f"{name} differs in cell {cell}"


def test_worker_spans_recorded_outside_the_golden_trace(runs):
    tr = runs["exec_tracer"]
    assert len(tr) > 0
    phases = {s.phase for s in tr.spans}
    # "task" spans (per-rank wall timings, the measured work-rate evidence)
    # joined the original three in the kernel-backend PR.
    assert phases == {"dispatch", "execute", "merge", "task"}
    by_phase = tr.seconds_by_phase()
    assert all(v >= 0.0 for v in by_phase.values())
    assert -1 in tr.workers() and max(tr.workers()) >= 0
    # Every task span names the world rank it measured.
    task_ranks = {
        dict(s.args)["rank"] for s in tr.spans if s.phase == "task"
    }
    assert task_ranks <= set(range(_CORES)) and task_ranks
