"""Checkpoint/restart is bitwise-exact on all three implementations.

Each implementation runs the full scenario twice: once uninterrupted (with
periodic checkpointing) and once restarted from the mid-run checkpoint in a
fresh process state.  Final particle positions, id checksums, simulated
clocks, the golden trace from the resumed step onward and even the *later
checkpoint files* must be byte-for-byte identical — under an active fault
plan and straggler watch, and under both the serial and the process-pool
executor backends.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.spec import Distribution, PICSpec
from repro.instrument import Tracer
from repro.parallel import AmpiPIC, Mpi2dLbPIC, Mpi2dPIC
from repro.resilience import (
    Checkpointer,
    CrashFault,
    FaultPlan,
    MessageFault,
    RecoveryPolicy,
    ResilienceConfig,
    SlowdownFault,
    Snapshot,
    StragglerWatch,
)
from repro.runtime.executor import make_executor
from tests.core.backend_conformance import requires_compiled

SPEC = PICSpec(
    cells=32, n_particles=900, steps=12,
    distribution=Distribution.UNIFORM,
)
CORES = 4
EVERY = 4  # checkpoints after steps 3, 7, 11 -> files 000004/000008/000012
RESUME_FILE = "ckpt_step000004.ckpt"

PLAN = FaultPlan(
    seed=3,
    faults=(
        SlowdownFault(factor=2.5, core=1, start=2),
        MessageFault(delay_s=1e-4, drop_prob=0.2, src=0, start=1),
        CrashFault(rank=2, step=9, retries=2),
    ),
)


def _capturing(cls):
    class Capturing(cls):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            self.final = {}

        def _verify(self, comm, state):
            self.final[comm.world_rank] = state.particles.copy()
            return (yield from super()._verify(comm, state))

    return Capturing


IMPLS = [
    pytest.param(_capturing(Mpi2dPIC), {}, id="mpi-2d"),
    pytest.param(
        _capturing(Mpi2dLbPIC),
        dict(lb_interval=3, border_width=1),
        id="mpi-2d-LB",
    ),
    pytest.param(
        _capturing(AmpiPIC),
        dict(overdecomposition=2, lb_interval=4),
        id="ampi",
    ),
]

EXECUTORS = [
    pytest.param(("serial", 0), id="serial"),
    pytest.param(("process", 2), id="process-2"),
]


def _run(cls, params, ckpt_dir, executor, *, resume=None, backend="python"):
    cfg = ResilienceConfig(
        plan=PLAN,
        watch=StragglerWatch(cls(SPEC, CORES, **params).n_ranks),
        checkpointer=Checkpointer(ckpt_dir, every=EVERY),
        recovery=RecoveryPolicy(),
        resume=resume,
    )
    ex = make_executor(executor[0], workers=executor[1], kernel_backend=backend)
    tracer = Tracer()
    impl = cls(SPEC, CORES, span_tracer=tracer, executor=ex,
               resilience=cfg, **params)
    try:
        result = impl.run()
    finally:
        ex.close()
    assert result.verification.ok, str(result.verification)
    return result, impl.final, tracer


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("cls,params", IMPLS)
def test_resume_is_bitwise_identical(cls, params, executor, tmp_path):
    full_dir = str(tmp_path / "full")
    resumed_dir = str(tmp_path / "resumed")

    full, full_final, full_tracer = _run(cls, params, full_dir, executor)

    snapshot = Snapshot.load(os.path.join(full_dir, RESUME_FILE))
    assert snapshot.next_step == EVERY
    resumed, res_final, res_tracer = _run(
        cls, params, resumed_dir, executor, resume=snapshot
    )

    # Simulated clocks: total and per rank.
    assert resumed.total_time == full.total_time
    assert resumed.rank_times == full.rank_times

    # Final particle state, bitwise, on every rank.
    assert set(res_final) == set(full_final)
    for rank, particles in full_final.items():
        got = res_final[rank]
        assert got.pack().tobytes() == particles.pack().tobytes(), (
            f"rank {rank} particle state diverged after resume"
        )

    # Golden trace from the resumed step onward (earlier spans belong to
    # the skipped prefix; resume re-plays setup at clock zero).
    cut = snapshot.next_step
    full_spans = [s for s in full_tracer.spans if s.step >= cut]
    res_spans = [s for s in res_tracer.spans if s.step >= cut]
    assert res_spans == full_spans
    full_inst = [e for e in full_tracer.instants if e.step >= cut]
    res_inst = [e for e in res_tracer.instants if e.step >= cut]
    assert res_inst == full_inst

    # The later checkpoints are re-taken on the same absolute schedule and
    # the files come out byte-identical.
    later = ["ckpt_step000008.ckpt", "ckpt_step000012.ckpt"]
    assert sorted(os.listdir(resumed_dir)) == later
    for name in later:
        a = open(os.path.join(full_dir, name), "rb").read()
        b = open(os.path.join(resumed_dir, name), "rb").read()
        assert a == b, f"{name} differs between uninterrupted and resumed run"


#: (checkpoint-writing backend, resuming backend).  The ``auto`` leg runs
#: everywhere and resolves to *either* concrete backend depending on the
#: host — which is exactly the claim: the choice cannot matter.
CROSS_BACKENDS = [
    pytest.param(("python", "auto"), id="python-to-auto"),
    pytest.param(
        ("compiled", "python"), id="compiled-to-python",
        marks=requires_compiled,
    ),
    pytest.param(
        ("python", "compiled"), id="python-to-compiled",
        marks=requires_compiled,
    ),
]


@pytest.mark.parametrize("pair", CROSS_BACKENDS)
@pytest.mark.parametrize("cls,params", IMPLS[:1])
def test_cross_backend_resume_is_bitwise_identical(cls, params, pair, tmp_path):
    """A checkpoint written under one kernel backend resumes bit-for-bit
    under the other — the concrete justification for excluding
    ``kernel_backend`` from ``spec_hash`` (checkpoints and cached results
    stay valid however they are later recomputed)."""
    write_backend, resume_backend = pair
    full_dir = str(tmp_path / "full")
    full, full_final, _ = _run(
        cls, params, full_dir, ("serial", 0), backend=write_backend
    )

    snapshot = Snapshot.load(os.path.join(full_dir, RESUME_FILE))
    resumed, res_final, _ = _run(
        cls, params, str(tmp_path / "resumed"), ("serial", 0),
        resume=snapshot, backend=resume_backend,
    )

    assert resumed.total_time == full.total_time
    assert resumed.rank_times == full.rank_times
    assert set(res_final) == set(full_final)
    for rank, particles in full_final.items():
        assert res_final[rank].pack().tobytes() == particles.pack().tobytes(), (
            f"rank {rank} diverged resuming {write_backend} -> {resume_backend}"
        )
    # Later checkpoints re-taken by the resumed run are byte-identical too.
    for name in ("ckpt_step000008.ckpt", "ckpt_step000012.ckpt"):
        a = open(os.path.join(full_dir, name), "rb").read()
        b = open(os.path.join(tmp_path / "resumed", name), "rb").read()
        assert a == b, f"{name} differs across backends"


def test_resume_from_each_checkpoint(tmp_path):
    """Any cut point works, not just the first (mpi-2d-LB, serial)."""
    cls = _capturing(Mpi2dLbPIC)
    params = dict(lb_interval=3, border_width=1)
    full_dir = str(tmp_path / "full")
    full, full_final, _ = _run(cls, params, full_dir, ("serial", 0))
    for name in ("ckpt_step000008.ckpt", "ckpt_step000012.ckpt"):
        snapshot = Snapshot.load(os.path.join(full_dir, name))
        resumed, res_final, _ = _run(
            cls, params, str(tmp_path / name), ("serial", 0), resume=snapshot
        )
        assert resumed.total_time == full.total_time
        for rank, particles in full_final.items():
            assert (
                res_final[rank].pack().tobytes() == particles.pack().tobytes()
            )
