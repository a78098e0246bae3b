"""Wall-clock performance harness for the zero-churn hot path.

Everything in :mod:`repro.bench` up to now measures *simulated* time — the
virtual clocks of the modelled machine.  This module measures *wall-clock*
time: how fast the harness itself executes, which is what the pooled
particle buffers, the fused kernel and the cached ownership tests improve.

Methodology
-----------

Absolute wall-clock numbers are meaningless across machines, so every
benchmark here is **self-normalising**: the optimised code and the code it
replaced (kept verbatim in :mod:`repro.bench.legacy` and
:func:`repro.core.kernel.advance_reference`) run back-to-back in the same
process, and the reported figure of merit is their ratio.  A
``BENCH_wallclock.json`` produced on a laptop and one produced in CI are
directly comparable on speedups even though their ``pushes_per_sec``
differ.

Three drivers:

``kernel``
    Microbenchmark of :func:`repro.core.kernel.advance` against
    ``advance_reference`` on a single large particle population.  The
    ``full`` preset uses n = 4M particles — large enough that the legacy
    path's full-population temporaries cross glibc's mmap threshold and
    every step pays page faults, which is precisely the regime the fused
    workspace eliminates.

``exchange``
    End-to-end run at several cores with **only** the particle exchange
    swapped between optimised and legacy (the kernel stays optimised on
    both sides), isolating the pooled wire buffers + cached ownership.

``end_to_end``
    The fig6 strong-scaling shape (cells=288, geometric cloud) run through
    the full simulated-MPI stack on a single node.  The ``full`` preset is
    perf-grade: the fig6 shape at 4M particles, where the per-step
    allocation churn this PR removes dominates the wall clock.  The scaled
    fig6 preset (24k particles) is also reported, non-gating, for
    transparency: at that size numpy ufunc dispatch and scheduler overhead
    floor the achievable ratio.

``workers``
    Real-multicore scaling of the :mod:`repro.runtime.executor` process
    backend: the fig6 shape run with ``--executor serial`` and with a
    persistent shared-memory worker pool at 1/2/4 workers.  Unlike the
    other drivers both sides are *current* code — the ratio measures how
    much of the host the pool actually uses, gated at >=1.5x for 4 workers
    on hosts with at least 4 cores.

``kernel_backend``
    The numba-compiled kernel (:mod:`repro.core.kernel_compiled`) against
    the python fused kernel on the perf-grade population, gated at >=3x
    where numba is installed and recorded as skipped where it is not.
    The two runs start from identical particle states and must end
    bitwise identical (``bitwise_match``), so the ratio is also a
    conformance check.

``kernel_backend_parallel``
    The prange compiled-parallel kernel against the scalar compiled one,
    gated at >=2.5x where numba is installed and the host has >= 4 cores
    (honest ``gate_skipped`` otherwise; the per-entry ``env`` stamp makes
    the skip auditable).

``campaign``
    The work-stealing campaign fabric (:mod:`repro.campaign.fabric`)
    at ``--jobs 4`` against the serial ``jobs=1`` loop on the same
    uncached 16-point sweep of process-executor points, gated at >=3x on
    hosts with >= 4 cores (honest ``gate_skipped`` below that; CI's
    asserted-4-vCPU leg runs it live with ``--require-live campaign``).
    The entry also audits byte-identical artifacts (``bitwise_match``),
    100% cache coherence on a second fabric run (``cache_coherent``) and
    warmup accounting once per worker (``startup_once_per_worker``).

Both sides of every end-to-end entry must produce *identical simulated
time* and pass the PRK verification — recorded as ``sim_time_match`` — so a
benchmark run is also a differential test of the optimisation.

Gates: entries carry ``gate_min_speedup`` (the acceptance floor checked by
:func:`check_gates`) in the ``full`` preset; ``smoke`` entries are gated
only *relatively*, by :func:`check_regression` against a checked-in
baseline (CI fails on a >25% speedup-ratio drop).
"""

from __future__ import annotations

import json
import platform
import time
from contextlib import contextmanager
from typing import Callable

import numpy as np

from repro.bench.legacy import exchange_particles_legacy
from repro.bench.workloads import FIG6_CELLS, rescale_r, scaled_cost
from repro.core import kernel
from repro.core.mesh import Mesh
from repro.core.particles import ParticleArray
from repro.core.spec import PICSpec
from repro.runtime.costmodel import CostModel
from repro.runtime.machine import MachineModel

SCHEMA_VERSION = 1

#: Relative speedup-ratio drop tolerated by :func:`check_regression`.
DEFAULT_TOLERANCE = 0.25

_FIG6_R = rescale_r(0.999, 2998, FIG6_CELLS)


def _entry_env() -> dict:
    """Per-entry environment stamp: makes conditional gates auditable.

    Every entry records the cpu count, python version and the concrete
    kernel backend the harness would resolve ``auto`` to — so a
    ``gate_skipped`` in a checked-in BENCH_wallclock.json can be verified
    against the machine that produced it, not just taken on faith.
    """
    import os

    from repro.core import kernel_compiled

    return dict(
        cpu_count=os.cpu_count(),
        python=platform.python_version(),
        kernel_backend=kernel_compiled.resolve_backend("auto"),
    )


# ----------------------------------------------------------------------
# Baseline patching
# ----------------------------------------------------------------------
@contextmanager
def use_legacy_kernel():
    """Route ``kernel.advance`` — and the ``advance_arrays`` the in-process
    executor fuses small tasks through — to the pre-fusion reference."""
    import repro.runtime.executor as executor_mod

    orig = kernel.advance
    orig_arrays = executor_mod.advance_arrays

    def _legacy(mesh, particles, dt, workspace=None):
        return kernel.advance_reference(mesh, particles, dt)

    def _legacy_arrays(mesh, x, y, vx, vy, q, dt, workspace=None):
        # A five-field container: all the reference push reads or writes.
        return _legacy(mesh, ParticleArray._raw([x, y, vx, vy, q]), dt)

    kernel.advance = _legacy
    executor_mod.advance_arrays = _legacy_arrays
    try:
        yield
    finally:
        kernel.advance = orig
        executor_mod.advance_arrays = orig_arrays


@contextmanager
def use_legacy_exchange():
    """Route particle exchange to the pre-pooling seed implementation."""
    import repro.parallel.base as base_mod
    import repro.parallel.mpi2d_lb as lb_mod

    orig_base = base_mod.exchange_particles
    orig_lb = lb_mod.exchange_particles
    base_mod.exchange_particles = exchange_particles_legacy
    lb_mod.exchange_particles = exchange_particles_legacy
    try:
        yield
    finally:
        base_mod.exchange_particles = orig_base
        lb_mod.exchange_particles = orig_lb


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def _make_particles(n: int, mesh: Mesh, seed: int = 7) -> ParticleArray:
    rng = np.random.default_rng(seed)
    p = ParticleArray.empty(n)
    p.x[:] = rng.uniform(0.0, mesh.L, n)
    p.y[:] = rng.uniform(0.0, mesh.L, n)
    p.vx[:] = rng.normal(size=n) * 0.05
    p.vy[:] = rng.normal(size=n) * 0.05
    p.q[:] = np.where(rng.integers(0, 2, n) == 0, 1.0, -1.0)
    return p


def bench_kernel(n: int, steps: int, *, cells: int = FIG6_CELLS) -> dict:
    """Time ``advance`` vs ``advance_reference`` on the same population."""
    mesh = Mesh(cells=cells)
    dt = 0.01
    timings = {}
    for label, fn in (
        ("optimized", kernel.advance),
        ("baseline", kernel.advance_reference),
    ):
        p = _make_particles(n, mesh)
        fn(mesh, p, dt)  # warm-up: grows the workspace, touches the pages
        t0 = time.perf_counter()
        for _ in range(steps):
            fn(mesh, p, dt)
        timings[label] = (time.perf_counter() - t0) / steps
        del p
    return dict(
        name=f"kernel_n{n}",
        kind="kernel",
        env=_entry_env(),
        params=dict(n_particles=n, steps=steps, cells=cells),
        baseline_s=timings["baseline"],
        optimized_s=timings["optimized"],
        speedup=timings["baseline"] / timings["optimized"],
        pushes_per_sec=n / timings["optimized"],
    )


def bench_kernel_backend(
    n: int, steps: int, *, cells: int = FIG6_CELLS, gate: float = 3.0
) -> dict:
    """Compiled (numba) kernel vs the python fused kernel, same population.

    Unlike :func:`bench_kernel` this compares two *current* code paths:
    :func:`repro.core.kernel.advance` (the numpy fused kernel, the
    "baseline" here) against
    :func:`repro.core.kernel_compiled.advance_compiled`.  JIT compilation
    happens in an explicit warm-up (reported as ``jit_warmup_s``, the
    analogue of ``pool_startup_s``) and never inside the timed loop.  The
    timed populations start from identical states and the final particle
    arrays are compared bitwise (``bitwise_match``), so the benchmark is
    also a conformance check.

    The ``gate_min_speedup`` floor (>= ``gate``x) applies only where numba
    is installed; without it the entry records ``gate_skipped`` and a 1.0x
    placeholder ratio so regression checks stay well-defined.
    """
    from repro.core import kernel_compiled

    mesh = Mesh(cells=cells)
    dt = 0.01
    p = _make_particles(n, mesh)
    kernel.advance(mesh, p, dt)  # warm-up: grows the workspace
    t0 = time.perf_counter()
    for _ in range(steps):
        kernel.advance(mesh, p, dt)
    python_s = (time.perf_counter() - t0) / steps

    entry = dict(
        name=f"kernel_backend_n{n}",
        kind="kernel_backend",
        env=_entry_env(),
        params=dict(n_particles=n, steps=steps, cells=cells),
        baseline_s=python_s,
        python_pushes_per_sec=n / python_s,
    )
    if not kernel_compiled.HAVE_NUMBA:
        entry.update(
            optimized_s=python_s,
            speedup=1.0,
            pushes_per_sec=n / python_s,
            gate_min_speedup=None,
            gate_skipped=(
                "numba not installed; the compiled-vs-python gate "
                f"(>={gate}x) only runs with the repro[compiled] extra"
            ),
        )
        return entry

    jit_s = kernel_compiled.warmup("compiled")
    q = _make_particles(n, mesh)
    kernel_compiled.advance_compiled(mesh, q, dt)  # same warm-up step as p
    t0 = time.perf_counter()
    for _ in range(steps):
        kernel_compiled.advance_compiled(mesh, q, dt)
    compiled_s = (time.perf_counter() - t0) / steps
    match = all(
        getattr(p, f).tobytes() == getattr(q, f).tobytes()
        for f in ("x", "y", "vx", "vy")
    )
    entry.update(
        optimized_s=compiled_s,
        speedup=python_s / compiled_s,
        pushes_per_sec=n / compiled_s,
        jit_warmup_s=jit_s,
        bitwise_match=bool(match),
        gate_min_speedup=gate,
    )
    return entry


def _run_sim(
    spec: PICSpec, cores: int, cost: CostModel, executor=None
) -> tuple[float, float]:
    """One full simulated-MPI run; returns (wall seconds, simulated seconds).

    The executor defaults to a fresh *serial* backend — NOT the
    env-configured process default: the legacy/optimised comparisons
    monkeypatch module attributes (``use_legacy_kernel``), which worker
    processes would never see, and a REPRO_EXECUTOR=process environment
    must not silently skew the self-normalised ratios.
    """
    from repro.parallel.mpi2d import Mpi2dPIC
    from repro.runtime.executor import make_executor

    if executor is None:
        executor = make_executor("serial")
    impl = Mpi2dPIC(
        spec, cores, machine=MachineModel(), cost=cost, executor=executor
    )
    t0 = time.perf_counter()
    result = impl.run()
    wall = time.perf_counter() - t0
    if not result.verification.ok:
        raise RuntimeError(f"perf run failed verification: {result.verification}")
    return wall, result.total_time


def _bench_sim(
    name: str,
    kind: str,
    spec: PICSpec,
    cores: int,
    cost: CostModel,
    baseline_ctx: Callable,
) -> dict:
    """Time a full run twice: optimised hot path vs ``baseline_ctx`` patch."""
    opt_wall, opt_sim = _run_sim(spec, cores, cost)
    with baseline_ctx():
        base_wall, base_sim = _run_sim(spec, cores, cost)
    pushes = spec.n_particles * spec.steps
    return dict(
        name=name,
        kind=kind,
        env=_entry_env(),
        params=dict(
            n_particles=spec.n_particles, steps=spec.steps,
            cells=spec.cells, cores=cores,
        ),
        baseline_s=base_wall,
        optimized_s=opt_wall,
        speedup=base_wall / opt_wall,
        pushes_per_sec=pushes / opt_wall,
        sim_time_s=opt_sim,
        sim_time_match=bool(opt_sim == base_sim),
    )


def _fig6_spec(n_particles: int, steps: int) -> PICSpec:
    return PICSpec(
        cells=FIG6_CELLS, n_particles=n_particles, steps=steps, r=_FIG6_R
    )


def bench_exchange(n: int, steps: int, cores: int) -> dict:
    """fig6 shape with only the exchange swapped (kernel optimised both sides)."""
    spec = _fig6_spec(n, steps)
    cost = scaled_cost(MachineModel(), 1.0)
    entry = _bench_sim(
        f"exchange_n{n}_c{cores}", "exchange", spec, cores, cost,
        use_legacy_exchange,
    )
    return entry


@contextmanager
def _legacy_all():
    with use_legacy_kernel(), use_legacy_exchange():
        yield


def bench_end_to_end(n: int, steps: int, cores: int) -> dict:
    """fig6 shape through the full stack, both hot paths swapped together."""
    spec = _fig6_spec(n, steps)
    cost = scaled_cost(MachineModel(), 1.0)
    return _bench_sim(
        f"end_to_end_n{n}_c{cores}", "end_to_end", spec, cores, cost,
        _legacy_all,
    )


def bench_worker_sweep(
    n: int,
    steps: int,
    *,
    cores: int = 4,
    workers: tuple[int, ...] = (1, 2, 4),
    reps: int = 2,
    gate: float = 1.5,
) -> dict:
    """fig6 shape: serial executor vs the process pool at each worker count.

    Unlike the other drivers this one compares two *current* code paths
    (``--executor serial`` vs ``--executor process``), so the ratio measures
    real-multicore scaling, not an optimisation against legacy code.

    Bench hygiene: each worker count starts its pool **once** and reuses it,
    warmed, across all ``reps`` repetitions; the one-time fork/spawn cost is
    reported separately per row as ``pool_startup_s`` and never pollutes the
    timed runs.  Every process run must reproduce the serial run's simulated
    time exactly (``sim_time_match``).

    The ``gate_min_speedup`` floor applies to the highest worker count, and
    only on hosts with at least that many cores — a 1-core container cannot
    demonstrate multicore speedup, so there the gate is recorded as skipped
    (``gate_skipped``) rather than failed; CI's 4-vCPU runners enforce it.
    """
    import os

    from repro.runtime.executor import ProcessExecutor

    spec = _fig6_spec(n, steps)
    cost = scaled_cost(MachineModel(), 1.0)
    serial_wall = float("inf")
    serial_sim = None
    for _ in range(reps):
        wall, serial_sim = _run_sim(spec, cores, cost)
        serial_wall = min(serial_wall, wall)

    rows = []
    match = True
    wall_by_count: dict[int, float] = {}
    for w in workers:
        ex = ProcessExecutor(workers=w)
        # Warm the pool before any timed repetition: spawn concurrently,
        # then block for the handshakes so pool_startup_s is final.
        ex.start()
        ex.ensure_ready()
        best = float("inf")
        try:
            for _ in range(reps):
                wall, sim = _run_sim(spec, cores, cost, executor=ex)
                best = min(best, wall)
                match = match and (sim == serial_sim)
        finally:
            ex.close()
        wall_by_count[w] = best
        rows.append(
            dict(
                workers=w,
                wall_s=best,
                speedup=serial_wall / best,
                pool_startup_s=ex.pool_startup_s,
            )
        )

    top = max(workers)
    top_wall = wall_by_count[top]
    cpu = os.cpu_count() or 1
    entry = dict(
        name=f"workers_n{n}_c{cores}",
        kind="workers",
        env=_entry_env(),
        params=dict(
            n_particles=n, steps=steps, cells=spec.cells, cores=cores,
            workers=list(workers), reps=reps,
        ),
        baseline_s=serial_wall,
        optimized_s=top_wall,
        speedup=serial_wall / top_wall,
        pushes_per_sec=n * steps / top_wall,
        sim_time_s=serial_sim,
        sim_time_match=bool(match),
        rows=rows,
        gate_min_speedup=gate if cpu >= top else None,
    )
    if cpu < top:
        entry["gate_skipped"] = (
            f"host has {cpu} cpu(s); the {gate}x gate for {top} workers "
            "is only meaningful with >= that many cores"
        )
    return entry


def bench_kernel_backend_parallel(
    n: int, steps: int, *, cells: int = FIG6_CELLS, gate: float = 2.5
) -> dict:
    """compiled-parallel (prange) vs scalar compiled, same population.

    Both sides are numba kernels; the ratio isolates what the prange over
    fixed chunk boundaries buys on a multi-core host.  The ``gate``x
    floor applies only where numba is installed AND the host has >= 4
    cores — one core cannot witness thread-level speedup, so there the
    entry records an honest ``gate_skipped`` (with the cpu count in the
    ``env`` stamp to audit it).  The two runs start bitwise identical and
    must end bitwise identical (``bitwise_match``): chunked prange is
    elementwise, so thread count can never change a result bit.
    """
    import os

    from repro.core import kernel_compiled

    mesh = Mesh(cells=cells)
    dt = 0.01
    entry = dict(
        name=f"kernel_parallel_n{n}",
        kind="kernel_backend_parallel",
        env=_entry_env(),
        params=dict(n_particles=n, steps=steps, cells=cells),
    )
    if not kernel_compiled.HAVE_NUMBA:
        entry.update(
            baseline_s=0.0,
            optimized_s=0.0,
            speedup=1.0,
            pushes_per_sec=0.0,
            gate_min_speedup=None,
            gate_skipped=(
                "numba not installed; the compiled-parallel gate "
                f"(>={gate}x over scalar compiled) only runs with the "
                "repro[compiled] extra"
            ),
        )
        return entry

    kernel_compiled.warmup("compiled")
    jit_s = kernel_compiled.warmup("compiled-parallel")
    p = _make_particles(n, mesh)
    kernel_compiled.advance_arrays_compiled(mesh, p.x, p.y, p.vx, p.vy, p.q, dt)
    t0 = time.perf_counter()
    for _ in range(steps):
        kernel_compiled.advance_arrays_compiled(
            mesh, p.x, p.y, p.vx, p.vy, p.q, dt
        )
    compiled_s = (time.perf_counter() - t0) / steps

    q = _make_particles(n, mesh)
    kernel_compiled.advance_arrays_parallel(mesh, q.x, q.y, q.vx, q.vy, q.q, dt)
    t0 = time.perf_counter()
    for _ in range(steps):
        kernel_compiled.advance_arrays_parallel(
            mesh, q.x, q.y, q.vx, q.vy, q.q, dt
        )
    parallel_s = (time.perf_counter() - t0) / steps
    match = all(
        getattr(p, f).tobytes() == getattr(q, f).tobytes()
        for f in ("x", "y", "vx", "vy")
    )
    cpu = os.cpu_count() or 1
    entry.update(
        baseline_s=compiled_s,
        optimized_s=parallel_s,
        speedup=compiled_s / parallel_s,
        pushes_per_sec=n / parallel_s,
        jit_warmup_s=jit_s,
        bitwise_match=bool(match),
        gate_min_speedup=gate if cpu >= 4 else None,
    )
    if cpu < 4:
        entry["gate_skipped"] = (
            f"host has {cpu} cpu(s); the {gate}x compiled-parallel gate "
            "is only meaningful with >= 4 cores"
        )
    return entry


def campaign_throughput_declaration(
    points: int = 16, inner_workers: int = 2
) -> dict:
    """The uncached smoke sweep the campaign-throughput bench runs.

    ``points`` small mpi-2d runs whose specs ask for the *process*
    executor — so in the serial ``jobs=1`` loop every point re-pays
    ``pool_startup_s`` (+ ``jit_warmup_s`` where numba is present) inside
    its own ``execute_runspec`` call, which is exactly the per-point tax
    the fabric's warm workers amortize.  The particle counts are
    heterogeneous with the two largest points *last* in expansion order,
    where an expansion-order submission would serialize its tail behind
    them; the fabric's longest-expected-first ordering starts them first.
    """
    small = [200 + 20 * i for i in range(points - 2)]
    heavy = [3000, 4000]
    return {
        "schema": 1,
        "campaign": "campaign-throughput",
        "base": {
            "workload": {"cells": 32, "n_particles": 400, "steps": 4},
            "impl": {"name": "mpi-2d", "cores": 2},
            "executor": {"kind": "process", "workers": inner_workers},
        },
        "axes": [
            {
                "axis": "n",
                "path": "workload.n_particles",
                "values": small + heavy[: max(0, points - len(small))],
            }
        ],
    }


def bench_campaign_throughput(
    *,
    points: int = 16,
    jobs: int = 4,
    inner_workers: int = 2,
    gate: float = 3.0,
) -> dict:
    """Work-stealing campaign fabric vs the serial loop, same sweep.

    Both sides run the identical uncached ``points``-point declaration
    against fresh caches: the baseline is the serial ``jobs=1`` loop (the
    fabric's bitwise oracle), the optimized side the warm-worker fabric at
    ``--jobs`` ``jobs``.  Beyond the wall-clock ratio the entry is a
    correctness audit:

    * ``bitwise_match`` — both sides' artifact directories must be
      byte-identical (the fabric cannot change a result bit);
    * ``cache_coherent`` — a second fabric run against the same cache
      must complete 100% from cache (no re-execution);
    * ``startup_once_per_worker`` — the fabric manifest must report
      ``jit_warmup_s`` and each warm executor's ``pool_startup_s`` once
      per *worker*, not once per point, and the workers' point counts
      must sum to the sweep.

    The ``gate``x floor only applies on hosts with at least ``jobs``
    cores (the sweep cannot overlap otherwise); smaller hosts record an
    honest ``gate_skipped``, and CI's asserted-4-vCPU leg turns that into
    a failure via ``--require-live campaign``.
    """
    import hashlib
    import os
    import tempfile

    from repro.campaign import CampaignSpec, run_campaign

    camp = CampaignSpec.from_dict(
        campaign_throughput_declaration(points, inner_workers)
    )
    expanded = camp.expand()
    total_pushes = sum(
        p.spec.workload.n_particles * p.spec.workload.steps for p in expanded
    )

    def _digests(cache_dir: str) -> dict:
        out = {}
        for name in sorted(os.listdir(cache_dir)):
            if not name.endswith(".json") or name.endswith(".manifest.json"):
                continue
            with open(os.path.join(cache_dir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
        return out

    with tempfile.TemporaryDirectory(prefix="bench-campaign-") as td:
        serial_cache = os.path.join(td, "serial")
        fabric_cache = os.path.join(td, "fabric")

        t0 = time.perf_counter()
        run_campaign(camp, cache_dir=serial_cache, jobs=1)
        serial_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        fab = run_campaign(camp, cache_dir=fabric_cache, jobs=jobs)
        fabric_s = time.perf_counter() - t0

        bitwise = _digests(serial_cache) == _digests(fabric_cache)

        second = run_campaign(camp, cache_dir=fabric_cache, jobs=jobs)
        coherent = second.executed == 0 and second.cached == len(expanded)

        workers = (fab.fabric or {}).get("workers", [])
        startup_once = (
            len(workers) == min(jobs, len(expanded))
            and all(len(w["pool_startup_s"]) == 1 for w in workers)
            and sum(w["points"] for w in workers) == len(expanded)
        )
        worker_rows = [
            dict(
                worker=w["worker"],
                jit_warmup_s=w["jit_warmup_s"],
                pool_startup_s=w["pool_startup_s"],
                points=w["points"],
                busy_s=w["busy_s"],
            )
            for w in workers
        ]

    cpu = os.cpu_count() or 1
    entry = dict(
        name=f"campaign_fabric_p{points}_j{jobs}",
        kind="campaign",
        env=_entry_env(),
        params=dict(
            points=points, jobs=jobs, inner_workers=inner_workers,
            total_pushes=total_pushes,
        ),
        baseline_s=serial_s,
        optimized_s=fabric_s,
        speedup=serial_s / fabric_s,
        pushes_per_sec=total_pushes / fabric_s,
        bitwise_match=bool(bitwise),
        cache_coherent=bool(coherent),
        startup_once_per_worker=bool(startup_once),
        rows=worker_rows,
        gate_min_speedup=gate if cpu >= jobs else None,
    )
    if cpu < jobs:
        entry["gate_skipped"] = (
            f"host has {cpu} cpu(s); the {gate}x campaign-fabric gate at "
            f"--jobs {jobs} is only meaningful with >= that many cores"
        )
    return entry


def bench_multiplex(
    *,
    engines: int = 32,
    cores: int = 4,
    gate: float = 0.75,
) -> dict:
    """Engine multiplexing overhead: N interleaved vs N sequential runs.

    The same ``engines`` seed-varied mpi-2d workloads run twice: the
    baseline drives each engine to completion with ``run()`` one after
    another (each with its own serial executor — the classic loop), the
    measured side time-slices all of them through one
    :class:`~repro.runtime.multiplex.EngineGroup` over a single *shared*
    executor pool.  Both sides report engines/sec; the ``speedup`` ratio
    is the pool-sharing + slicing overhead (1.0x = free, the gate floors
    it at ``gate``x — interleaving may cost bookkeeping but must never
    approach the price of a second run).

    Correctness audit: ``sim_time_match`` asserts every interleaved
    engine's simulated clock equals its sequential twin's — wall-clock
    scheduling is allowed to change, simulated time is not.

    Single-core hosts can starve the comparison (the interpreter is
    timeshared with whatever else CI runs there), so the gate only
    applies with >= 2 cpus; below that the entry records an honest
    ``gate_skipped``.
    """
    import os

    from repro.core.spec import Distribution
    from repro.parallel.mpi2d import Mpi2dPIC
    from repro.runtime.executor import make_executor
    from repro.runtime.multiplex import EngineGroup

    def _spec(i: int) -> PICSpec:
        return PICSpec(
            cells=32, n_particles=400, steps=8,
            distribution=Distribution.UNIFORM, seed=42 + i,
        )

    # Sequential baseline: one classic run() per engine, own executor.
    t0 = time.perf_counter()
    seq_times = []
    for i in range(engines):
        ex = make_executor("serial")
        result = Mpi2dPIC(_spec(i), cores, executor=ex).run()
        ex.close()
        assert result.verification.ok
        seq_times.append(result.total_time)
    sequential_s = time.perf_counter() - t0

    # Interleaved: every engine in one group over one shared pool.
    t0 = time.perf_counter()
    shared = make_executor("serial")
    group = EngineGroup(
        policy="fair", slice_ticks=64, order_seed=1, executor=shared
    )
    try:
        for i in range(engines):
            tag = f"e{i}"
            impl = Mpi2dPIC(_spec(i), cores, executor=group.handle(tag))
            group.add(tag, impl.build_engine(engine_id=tag))
        results = group.run_all()
    finally:
        group.close()
    interleaved_s = time.perf_counter() - t0

    mux_times = [results[f"e{i}"].total_time for i in range(engines)]
    sim_time_match = mux_times == seq_times
    assert all(results[f"e{i}"].verification.ok for i in range(engines))

    cpu = os.cpu_count() or 1
    entry = dict(
        name=f"multiplex_e{engines}_c{cores}",
        kind="multiplex",
        env=_entry_env(),
        params=dict(engines=engines, cores=cores, slice_ticks=64),
        baseline_s=sequential_s,
        optimized_s=interleaved_s,
        speedup=sequential_s / interleaved_s,
        engines_per_sec_sequential=engines / sequential_s,
        engines_per_sec_interleaved=engines / interleaved_s,
        slices=group.slices,
        sim_time_match=bool(sim_time_match),
        gate_min_speedup=gate if cpu >= 2 else None,
    )
    if cpu < 2:
        entry["gate_skipped"] = (
            f"host has {cpu} cpu(s); wall-clock comparison of {engines} "
            "interleaved engines is not meaningful on a starved host"
        )
    return entry


# ----------------------------------------------------------------------
# Suite presets
# ----------------------------------------------------------------------
def run_suite(
    preset: str = "full",
    progress: Callable[[str], None] = print,
    only: str | None = None,
) -> dict:
    """Run one preset and return the BENCH_wallclock document (a dict).

    ``only`` filters the plan to entries of one kind (e.g. ``campaign``
    for the CI campaign-throughput leg, which should not re-run the
    perf-grade kernel populations).
    """
    if preset == "full":
        plan = [
            # The acceptance gates: perf-grade populations where the
            # allocation churn this PR removes dominates.
            ("kernel", lambda: bench_kernel(4_194_304, steps=4), 3.0),
            ("end_to_end",
             lambda: bench_end_to_end(4_194_304, steps=4, cores=1), 2.5),
            # Supporting evidence, non-gating.
            ("kernel", lambda: bench_kernel(400_000, steps=8), None),
            ("exchange", lambda: bench_exchange(400_000, steps=16, cores=4), None),
            ("end_to_end",
             lambda: bench_end_to_end(24_000, steps=200, cores=4), None),
            # Real-multicore scaling of the process executor; carries its
            # own conditional gate (>=1.5x at 4 workers on >=4-core hosts).
            ("workers", lambda: bench_worker_sweep(4_194_304, steps=4), None),
            # Compiled kernel backend; carries its own conditional gate
            # (>=3x over the python fused kernel where numba is present).
            ("kernel_backend",
             lambda: bench_kernel_backend(4_194_304, steps=4), None),
            # prange kernel vs scalar compiled; conditional gate
            # (>=2.5x where numba is present and the host has >=4 cores).
            ("kernel_backend_parallel",
             lambda: bench_kernel_backend_parallel(4_194_304, steps=4), None),
            # Campaign fabric vs the serial loop; conditional >=3x gate
            # (sweep overlap needs >= jobs cores).
            ("campaign", lambda: bench_campaign_throughput(), None),
            # Engine multiplexing overhead: 32 interleaved vs 32
            # sequential runs; conditional >=0.75x floor (interleaving
            # must stay near-free).
            ("multiplex", lambda: bench_multiplex(), None),
        ]
    elif preset == "smoke":
        plan = [
            # CI-sized: gated only relatively, vs the checked-in baseline.
            ("kernel", lambda: bench_kernel(400_000, steps=6), None),
            # The compiled-backend gate keeps the perf-grade population in
            # smoke too: the >=3x claim is about the memory-bound regime,
            # and CI's compiled leg enforces it.
            ("kernel_backend",
             lambda: bench_kernel_backend(4_194_304, steps=4), None),
            ("exchange", lambda: bench_exchange(48_000, steps=20, cores=4), None),
            ("end_to_end",
             lambda: bench_end_to_end(200_000, steps=4, cores=1), None),
            # The acceptance config for the worker gate is deliberately the
            # perf-grade 4M population even in smoke: speedup ratios at toy
            # sizes are floored by dispatch overhead and would not witness
            # the multicore claim.
            ("workers", lambda: bench_worker_sweep(4_194_304, steps=4), None),
            ("kernel_backend_parallel",
             lambda: bench_kernel_backend_parallel(4_194_304, steps=4), None),
            # The campaign-fabric config is the acceptance config (16
            # points, --jobs 4) in smoke too: the per-point startup tax it
            # amortizes does not shrink with sweep size.
            ("campaign", lambda: bench_campaign_throughput(), None),
            # The multiplex config is the acceptance config in smoke too:
            # 32 small engines is already CI-sized.
            ("multiplex", lambda: bench_multiplex(), None),
        ]
    else:
        raise ValueError(f"unknown preset: {preset!r}")

    if only is not None:
        plan = [item for item in plan if item[0] == only]
        if not plan:
            raise ValueError(f"no {preset!r} entries of kind {only!r}")

    entries = []
    for _, fn, gate in plan:
        entry = fn()
        # Drivers that set their own (conditional) gate keep it.
        entry.setdefault("gate_min_speedup", gate)
        gate = entry["gate_min_speedup"]
        progress(
            f"  {entry['name']}: {entry['baseline_s'] * 1e3:.1f} ms -> "
            f"{entry['optimized_s'] * 1e3:.1f} ms  ({entry['speedup']:.2f}x"
            + (f", gate >={gate}x" if gate else "")
            + ")"
        )
        entries.append(entry)
    return dict(
        schema=SCHEMA_VERSION,
        preset=preset,
        machine=machine_fingerprint(),
        entries=entries,
    )


def machine_fingerprint() -> dict:
    import os

    return dict(
        platform=platform.platform(),
        python=platform.python_version(),
        numpy=np.__version__,
        cpu_count=os.cpu_count(),
    )


# ----------------------------------------------------------------------
# Persistence and gating
# ----------------------------------------------------------------------
def save_bench(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_bench(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema {doc.get('schema')!r} != {SCHEMA_VERSION}"
        )
    return doc


def check_gates(doc: dict) -> list[str]:
    """Absolute floors: entries whose speedup is below their own gate."""
    failures = []
    for e in doc["entries"]:
        gate = e.get("gate_min_speedup")
        if gate is not None and e["speedup"] < gate:
            failures.append(
                f"{e['name']}: speedup {e['speedup']:.2f}x below gate {gate}x"
            )
        if e.get("sim_time_match") is False:
            failures.append(
                f"{e['name']}: simulated time diverged between optimised "
                "and legacy hot paths"
            )
        if e.get("bitwise_match") is False:
            failures.append(
                f"{e['name']}: optimised results diverged bitwise from "
                "the baseline's"
            )
        if e.get("cache_coherent") is False:
            failures.append(
                f"{e['name']}: second fabric run re-executed points "
                "instead of completing from cache"
            )
        if e.get("startup_once_per_worker") is False:
            failures.append(
                f"{e['name']}: jit_warmup_s/pool_startup_s were not "
                "reported once per worker"
            )
    return failures


def check_regression(
    new: dict, baseline: dict, tolerance: float = DEFAULT_TOLERANCE
) -> list[str]:
    """Relative floor: speedup ratios must not drop >tolerance vs baseline.

    Speedups are machine-normalised (both sides of each ratio ran on the
    same machine), so a baseline recorded elsewhere is still comparable.
    """
    failures = []
    new_by_name = {e["name"]: e for e in new["entries"]}
    for base_entry in baseline["entries"]:
        name = base_entry["name"]
        entry = new_by_name.get(name)
        if entry is None:
            failures.append(f"{name}: present in baseline but not in this run")
            continue
        floor = base_entry["speedup"] * (1.0 - tolerance)
        if entry["speedup"] < floor:
            failures.append(
                f"{name}: speedup {entry['speedup']:.2f}x regressed below "
                f"{floor:.2f}x (baseline {base_entry['speedup']:.2f}x "
                f"- {tolerance:.0%})"
            )
    return failures
