"""The engine-core acceptance matrix: every drive mode is bitwise equal.

For all three implementations, under both the serial and the process-pool
executor, the following four ways of driving a run must agree byte-for-byte
on final particle positions, id checksums, simulated clocks, golden traces
and checkpoint files:

* ``run()`` — the classic blocking drive (reference);
* ``tick()``-stepped — the engine advanced with a small bounded budget and
  explicit flushes;
* checkpoint-pause/resume — ``SimEngine.pause()`` to the first scheduled
  cut, then a fresh process state resumed from that file;
* EngineGroup-interleaved — all three implementations time-sliced in one
  group over a *shared* executor pool, under two shuffled slice orders.

This is the non-negotiable invariant of the virtual-time engine core: the
incremental drive API changes where control returns, never what is
simulated.
"""

from __future__ import annotations

import os

import pytest

from repro.core.spec import Distribution, PICSpec
from repro.instrument import Tracer, dumps_chrome_trace
from repro.parallel import AmpiPIC, Mpi2dLbPIC, Mpi2dPIC
from repro.resilience import Checkpointer, ResilienceConfig, Snapshot
from repro.runtime import ENGINE_BLOCKED, ENGINE_FINISHED
from repro.runtime.executor import make_executor
from repro.runtime.multiplex import EngineGroup

SPEC = PICSpec(
    cells=32, n_particles=900, steps=12,
    distribution=Distribution.UNIFORM,
)
CORES = 4
EVERY = 4  # cuts after steps 3/7/11 -> files 000004/000008/000012
PAUSE_FILE = "ckpt_step000004.ckpt"
LATER_FILES = ("ckpt_step000008.ckpt", "ckpt_step000012.ckpt")
CUT = EVERY
TICK_BUDGET = 7  # deliberately awkward: never aligned with a step boundary
#: EngineGroup drive modes -> the seed shuffling their per-round slice order.
GROUP_ORDER_SEEDS = {"group": 3, "group-reseeded": 11}


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
    pytest.param("mpi-2d", _capturing(Mpi2dPIC), {}, id="mpi-2d"),
    pytest.param(
        "mpi-2d-LB", _capturing(Mpi2dLbPIC),
        dict(lb_interval=3, border_width=1), id="mpi-2d-LB",
    ),
    pytest.param(
        "ampi", _capturing(AmpiPIC),
        dict(overdecomposition=2, lb_interval=4), id="ampi",
    ),
]
_IMPL_TRIPLES = [p.values for p in IMPLS]

EXECUTORS = [
    pytest.param(("serial", 0), id="serial"),
    pytest.param(("process", 2), id="process-2"),
]


def _build(cls, params, ckpt_dir, executor, tracer, resume=None):
    cfg = ResilienceConfig(
        checkpointer=Checkpointer(str(ckpt_dir), every=EVERY), resume=resume
    )
    return cls(
        SPEC, CORES, span_tracer=tracer, executor=executor,
        resilience=cfg, **params,
    )


def _collect(impl, result, tracer, ckpt_dir):
    assert result.verification.ok, str(result.verification)
    ckpts = {
        name: open(os.path.join(ckpt_dir, name), "rb").read()
        for name in sorted(os.listdir(ckpt_dir))
    }
    return dict(
        result=result,
        final=impl.final,
        trace=dumps_chrome_trace(tracer),
        spans=list(tracer.spans),
        instants=list(tracer.instants),
        ckpts=ckpts,
    )


@pytest.fixture(scope="module", params=EXECUTORS)
def matrix(request, tmp_path_factory):
    """All four drive modes for every implementation under one executor."""
    kind, workers = request.param
    root = tmp_path_factory.mktemp(f"engine-eq-{kind}")
    out = {"executor": (kind, workers)}

    for key, cls, params in _IMPL_TRIPLES:
        # --- reference: classic blocking run() --------------------------
        ex = make_executor(kind, workers=workers)
        tracer = Tracer()
        ckpt = str(root / f"run-{key}")
        impl = _build(cls, params, ckpt, ex, tracer)
        try:
            result = impl.run()
        finally:
            ex.close()
        out[("run", key)] = _collect(impl, result, tracer, ckpt)

        # --- tick()-stepped with an awkward budget ----------------------
        ex = make_executor(kind, workers=workers)
        tracer = Tracer()
        ckpt = str(root / f"tick-{key}")
        impl = _build(cls, params, ckpt, ex, tracer)
        engine = impl.build_engine()
        try:
            while True:
                status = engine.tick(TICK_BUDGET)
                if status == ENGINE_FINISHED:
                    break
                if status == ENGINE_BLOCKED:
                    engine.flush()
            result = engine.result()
        finally:
            ex.close()
        out[("tick", key)] = _collect(impl, result, tracer, ckpt)

        # --- pause at the first scheduled cut, resume fresh -------------
        ex = make_executor(kind, workers=workers)
        ckpt = str(root / f"pause-{key}")
        impl = _build(cls, params, ckpt, ex, Tracer())
        engine = impl.build_engine()
        try:
            pause_path = engine.pause()
        finally:
            ex.close()
        assert pause_path is not None and pause_path.endswith(PAUSE_FILE)
        pause_bytes = open(pause_path, "rb").read()

        ex = make_executor(kind, workers=workers)
        tracer = Tracer()
        resumed_ckpt = str(root / f"resumed-{key}")
        impl = _build(
            cls, params, resumed_ckpt, ex, tracer,
            resume=Snapshot.load(pause_path),
        )
        try:
            result = impl.run()
        finally:
            ex.close()
        out[("pause", key)] = dict(
            _collect(impl, result, tracer, resumed_ckpt),
            pause_bytes=pause_bytes,
        )

    # --- all three implementations interleaved in one EngineGroup, under
    # --- two different shuffled slice orders ----------------------------
    for mode, order_seed in GROUP_ORDER_SEEDS.items():
        shared = make_executor(kind, workers=workers)
        group = EngineGroup(
            policy="fair", slice_ticks=48, order_seed=order_seed,
            executor=shared,
        )
        staged = {}
        try:
            for key, cls, params in _IMPL_TRIPLES:
                tracer = Tracer()
                ckpt = str(root / f"{mode}-{key}")
                impl = _build(cls, params, ckpt, group.handle(key), tracer)
                group.add(key, impl.build_engine(engine_id=key))
                staged[key] = (impl, tracer, ckpt)
            results = group.run_all()
            for key, (impl, tracer, ckpt) in staged.items():
                out[(mode, key)] = _collect(impl, results[key], tracer, ckpt)
        finally:
            group.close()
    return out


def _assert_same_finals(ref, got, context):
    assert set(got) == set(ref)
    for rank, particles in ref.items():
        assert got[rank].pack().tobytes() == particles.pack().tobytes(), (
            f"rank {rank} particle state diverged ({context})"
        )


def _assert_same_clocks_and_counters(ref, got):
    assert got.total_time == ref.total_time
    assert got.rank_times == ref.rank_times
    assert got.messages_sent == ref.messages_sent
    assert got.bytes_sent == ref.bytes_sent
    assert got.collectives == ref.collectives
    assert got.verification.id_checksum == ref.verification.id_checksum
    assert got.verification.n_particles == ref.verification.n_particles


@pytest.mark.parametrize("mode", ["tick", *GROUP_ORDER_SEEDS])
@pytest.mark.parametrize("key,cls,params", IMPLS)
class TestFullDriveModes:
    """tick()-stepped and group-interleaved agree with run() *in full*:
    clocks, positions, the whole golden trace, every checkpoint byte."""

    def test_clocks_and_counters(self, matrix, mode, key, cls, params):
        _assert_same_clocks_and_counters(
            matrix[("run", key)]["result"], matrix[(mode, key)]["result"]
        )

    def test_final_positions(self, matrix, mode, key, cls, params):
        _assert_same_finals(
            matrix[("run", key)]["final"], matrix[(mode, key)]["final"],
            f"{mode} vs run, {key}, {matrix['executor']}",
        )

    def test_golden_trace_bytes(self, matrix, mode, key, cls, params):
        assert matrix[(mode, key)]["trace"] == matrix[("run", key)]["trace"]

    def test_checkpoint_bytes(self, matrix, mode, key, cls, params):
        ref, got = matrix[("run", key)]["ckpts"], matrix[(mode, key)]["ckpts"]
        assert sorted(got) == sorted(ref)
        for name, blob in ref.items():
            assert got[name] == blob, f"{name} differs ({mode} vs run, {key})"


@pytest.mark.parametrize("key,cls,params", IMPLS)
class TestPauseResume:
    """pause() stops at a state byte-identical to the uninterrupted run's
    checkpoint; resuming from it reproduces everything from the cut on."""

    def test_pause_file_matches_uninterrupted_checkpoint(
        self, matrix, key, cls, params
    ):
        ref = matrix[("run", key)]["ckpts"][PAUSE_FILE]
        assert matrix[("pause", key)]["pause_bytes"] == ref

    def test_clocks_and_counters(self, matrix, key, cls, params):
        ref = matrix[("run", key)]["result"]
        got = matrix[("pause", key)]["result"]
        assert got.total_time == ref.total_time
        assert got.rank_times == ref.rank_times

    def test_final_positions(self, matrix, key, cls, params):
        _assert_same_finals(
            matrix[("run", key)]["final"], matrix[("pause", key)]["final"],
            f"pause/resume vs run, {key}",
        )

    def test_trace_from_cut_onward(self, matrix, key, cls, params):
        ref, got = matrix[("run", key)], matrix[("pause", key)]
        assert [s for s in got["spans"] if s.step >= CUT] == [
            s for s in ref["spans"] if s.step >= CUT
        ]
        assert [e for e in got["instants"] if e.step >= CUT] == [
            e for e in ref["instants"] if e.step >= CUT
        ]

    def test_later_checkpoints_identical(self, matrix, key, cls, params):
        ref, got = matrix[("run", key)]["ckpts"], matrix[("pause", key)]["ckpts"]
        assert sorted(got) == sorted(LATER_FILES)
        for name in LATER_FILES:
            assert got[name] == ref[name], f"{name} differs after resume ({key})"

