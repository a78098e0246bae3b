"""Host-dependent wall-clock gates.

Everything else in :mod:`repro.bench` measures *simulated* time — the
virtual clocks of the modelled machine.  This module measures *wall-clock*
time, and only the four claims that need a particular host to witness:
cores to scale over, or numba to compile with.  Every other performance
number lives in the layered benchmark (``BENCHMARK.json``,
``benchmarks/layered/``), which reports end-to-end and per-layer metrics
for eight workloads and compares commits with alternating pairs.

Methodology
-----------

Absolute wall-clock numbers are meaningless across machines, so every
driver is **self-normalising**: two *current* code paths run back-to-back
in the same process on the same population, and the figure of merit is
their ratio.  Each driver owns one acceptance floor
(``gate_min_speedup``), checked by :func:`check_gates`.

A driver whose gate this host cannot witness does not measure at all: it
returns a **skipped entry** — ``name``, ``kind``, ``env``, ``params`` and
``gate_skipped`` (the reason), with no timing or ratio field, because a
number recorded on the wrong host class is not a number.  The per-entry
``env`` stamp makes every skip auditable; CI's asserted-4-vCPU
``host-gates`` job turns any skip into a failure with ``--require-live``.

One driver per kind (:data:`DRIVERS`):

``workers``
    Real-multicore scaling of the :mod:`repro.runtime.executor` process
    backend: the fig6 shape at 4M particles run with ``--executor serial``
    and with a persistent shared-memory worker pool at 1/2/4 workers,
    gated at >=1.5x for 4 workers on hosts with at least 4 cores.  Every
    process run must reproduce the serial run's simulated time exactly
    (``sim_time_match``) and pass the PRK verification.

``kernel_backend``
    The numba-compiled kernel (:mod:`repro.core.kernel_compiled`) against
    the python fused kernel on the same 4M population, gated at >=3x
    where numba is installed.  The two runs start from identical particle
    states and must end bitwise identical (``bitwise_match``), so the
    ratio is also a conformance check.

``kernel_backend_parallel``
    The prange compiled-parallel kernel against the scalar compiled one,
    gated at >=2.5x where numba is installed and the host has >= 4 cores;
    same ``bitwise_match`` audit.

``campaign``
    The work-stealing campaign fabric (:mod:`repro.campaign.fabric`)
    at ``--jobs 4`` against the serial ``jobs=1`` loop on the same
    uncached 16-point sweep of process-executor points, gated at >=3x on
    hosts with >= 4 cores.  The entry also audits byte-identical
    artifacts (``bitwise_match``), 100% cache coherence on a second
    fabric run (``cache_coherent``) and warmup accounting once per worker
    (``startup_once_per_worker``).

A false audit fails the run whatever the ratio reads.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Callable

import numpy as np

from repro.bench.workloads import FIG6_CELLS, rescale_r, scaled_cost
from repro.core import kernel
from repro.core.mesh import Mesh
from repro.core.particles import ParticleArray
from repro.core.spec import PICSpec
from repro.runtime.costmodel import CostModel
from repro.runtime.machine import MachineModel

SCHEMA_VERSION = 2

_FIG6_R = rescale_r(0.999, 2998, FIG6_CELLS)


def _entry_env() -> dict:
    """Per-entry environment stamp: makes conditional gates auditable.

    Every entry records the cpu count, python version and the concrete
    kernel backend the harness would resolve ``auto`` to — so a
    ``gate_skipped`` in a recorded BENCH_wallclock.json can be verified
    against the machine that produced it, not just taken on faith.
    """
    from repro.core import kernel_compiled

    return dict(
        cpu_count=os.cpu_count(),
        python=platform.python_version(),
        kernel_backend=kernel_compiled.resolve_backend("auto"),
    )


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


def bench_kernel_backend(
    n: int, steps: int, *, cells: int = FIG6_CELLS, gate: float = 3.0
) -> dict:
    """Compiled (numba) kernel vs the python fused kernel, same population.

    :func:`repro.core.kernel.advance` (the numpy fused kernel, the
    "baseline" here) against
    :func:`repro.core.kernel_compiled.advance_compiled`.  JIT compilation
    happens in an explicit warm-up (reported as ``jit_warmup_s``, the
    analogue of ``pool_startup_s``) and never inside the timed loop.  The
    timed populations start from identical states and the final particle
    arrays are compared bitwise (``bitwise_match``), so the benchmark is
    also a conformance check.

    The ``gate_min_speedup`` floor (>= ``gate``x) needs numba; without it
    the entry is skipped.
    """
    from repro.core import kernel_compiled

    entry = dict(
        name=f"kernel_backend_n{n}",
        kind="kernel_backend",
        env=_entry_env(),
        params=dict(n_particles=n, steps=steps, cells=cells),
    )
    if not kernel_compiled.HAVE_NUMBA:
        entry["gate_skipped"] = (
            "numba not installed; the compiled-vs-python gate "
            f"(>={gate}x) only runs with the repro[compiled] extra"
        )
        return entry

    mesh = Mesh(cells=cells)
    dt = 0.01
    p = _make_particles(n, mesh)
    kernel.advance(mesh, p, dt)  # warm-up: grows the workspace
    t0 = time.perf_counter()
    for _ in range(steps):
        kernel.advance(mesh, p, dt)
    python_s = (time.perf_counter() - t0) / steps

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
        baseline_s=python_s,
        python_pushes_per_sec=n / python_s,
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
    env-configured process default: it is the baseline side of the
    worker sweep, and a REPRO_EXECUTOR=process environment must not
    silently skew the self-normalised ratio.
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


def _fig6_spec(n_particles: int, steps: int) -> PICSpec:
    return PICSpec(
        cells=FIG6_CELLS, n_particles=n_particles, steps=steps, r=_FIG6_R
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

    The ratio of ``--executor serial`` to ``--executor process`` measures
    real-multicore scaling: how much of the host the pool actually uses.

    Bench hygiene: each worker count starts its pool **once** and reuses it,
    warmed, across all ``reps`` repetitions; the one-time fork/spawn cost is
    reported separately per row as ``pool_startup_s`` and never pollutes the
    timed runs.  Every process run must reproduce the serial run's simulated
    time exactly (``sim_time_match``).

    The ``gate_min_speedup`` floor applies to the highest worker count and
    needs a host with at least that many cores — a 1-core container cannot
    demonstrate multicore speedup, so there the entry is skipped rather
    than failed; CI's 4-vCPU runners enforce it.
    """
    from repro.runtime.executor import ProcessExecutor

    spec = _fig6_spec(n, steps)
    top = max(workers)
    entry = dict(
        name=f"workers_n{n}_c{cores}",
        kind="workers",
        env=_entry_env(),
        params=dict(
            n_particles=n, steps=steps, cells=spec.cells, cores=cores,
            workers=list(workers), reps=reps,
        ),
    )
    cpu = os.cpu_count() or 1
    if cpu < top:
        entry["gate_skipped"] = (
            f"host has {cpu} cpu(s); the {gate}x gate for {top} workers "
            "is only meaningful with >= that many cores"
        )
        return entry

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

    top_wall = wall_by_count[top]
    entry.update(
        baseline_s=serial_wall,
        optimized_s=top_wall,
        speedup=serial_wall / top_wall,
        pushes_per_sec=n * steps / top_wall,
        sim_time_s=serial_sim,
        sim_time_match=bool(match),
        rows=rows,
        gate_min_speedup=gate,
    )
    return entry


def bench_kernel_backend_parallel(
    n: int, steps: int, *, cells: int = FIG6_CELLS, gate: float = 2.5
) -> dict:
    """compiled-parallel (prange) vs scalar compiled, same population.

    Both sides are numba kernels; the ratio isolates what the prange over
    fixed chunk boundaries buys on a multi-core host.  The ``gate``x
    floor needs numba AND a host with >= 4 cores — one core cannot
    witness thread-level speedup — so anywhere else the entry is skipped
    (with the cpu count in the ``env`` stamp to audit it).  The two runs
    start bitwise identical and must end bitwise identical
    (``bitwise_match``): chunked prange is elementwise, so thread count
    can never change a result bit.
    """
    from repro.core import kernel_compiled

    entry = dict(
        name=f"kernel_parallel_n{n}",
        kind="kernel_backend_parallel",
        env=_entry_env(),
        params=dict(n_particles=n, steps=steps, cells=cells),
    )
    if not kernel_compiled.HAVE_NUMBA:
        entry["gate_skipped"] = (
            "numba not installed; the compiled-parallel gate "
            f"(>={gate}x over scalar compiled) only runs with the "
            "repro[compiled] extra"
        )
        return entry
    cpu = os.cpu_count() or 1
    if cpu < 4:
        entry["gate_skipped"] = (
            f"host has {cpu} cpu(s); the {gate}x compiled-parallel gate "
            "is only meaningful with >= 4 cores"
        )
        return entry

    mesh = Mesh(cells=cells)
    dt = 0.01
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
    entry.update(
        baseline_s=compiled_s,
        optimized_s=parallel_s,
        speedup=compiled_s / parallel_s,
        pushes_per_sec=n / parallel_s,
        jit_warmup_s=jit_s,
        bitwise_match=bool(match),
        gate_min_speedup=gate,
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

    The ``gate``x floor needs a host with at least ``jobs`` cores (the
    sweep cannot overlap otherwise); on a smaller host the entry is
    skipped, and CI's asserted-4-vCPU leg turns that into a failure via
    ``--require-live campaign``.
    """
    import hashlib
    import tempfile

    from repro.campaign import CampaignSpec, run_campaign

    camp = CampaignSpec.from_dict(
        campaign_throughput_declaration(points, inner_workers)
    )
    expanded = camp.expand()
    total_pushes = sum(
        p.spec.workload.n_particles * p.spec.workload.steps for p in expanded
    )
    entry = dict(
        name=f"campaign_fabric_p{points}_j{jobs}",
        kind="campaign",
        env=_entry_env(),
        params=dict(
            points=points, jobs=jobs, inner_workers=inner_workers,
            total_pushes=total_pushes,
        ),
    )
    cpu = os.cpu_count() or 1
    if cpu < jobs:
        entry["gate_skipped"] = (
            f"host has {cpu} cpu(s); the {gate}x campaign-fabric gate at "
            f"--jobs {jobs} is only meaningful with >= that many cores"
        )
        return entry

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

    entry.update(
        baseline_s=serial_s,
        optimized_s=fabric_s,
        speedup=serial_s / fabric_s,
        pushes_per_sec=total_pushes / fabric_s,
        bitwise_match=bool(bitwise),
        cache_coherent=bool(coherent),
        startup_once_per_worker=bool(startup_once),
        rows=worker_rows,
        gate_min_speedup=gate,
    )
    return entry


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------
#: One driver per kind, each at its acceptance configuration: the 4M
#: perf-grade population (ratios at toy sizes are floored by dispatch
#: overhead and would not witness the claim) and the 16-point sweep.
DRIVERS: dict[str, Callable[[], dict]] = {
    "workers": lambda: bench_worker_sweep(4_194_304, steps=4),
    "kernel_backend": lambda: bench_kernel_backend(4_194_304, steps=4),
    "kernel_backend_parallel":
        lambda: bench_kernel_backend_parallel(4_194_304, steps=4),
    "campaign": bench_campaign_throughput,
}


def run_suite(
    progress: Callable[[str], None] = print,
    only: str | None = None,
) -> dict:
    """Run every driver (or ``only`` one kind); return the BENCH document."""
    if only is not None and only not in DRIVERS:
        raise ValueError(
            f"no entries of kind {only!r}; choose from {', '.join(DRIVERS)}"
        )
    entries = []
    for kind in DRIVERS if only is None else (only,):
        entry = DRIVERS[kind]()
        if "gate_skipped" in entry:
            progress(f"  {entry['name']}: skipped: {entry['gate_skipped']}")
        else:
            progress(
                f"  {entry['name']}: {entry['baseline_s'] * 1e3:.1f} ms -> "
                f"{entry['optimized_s'] * 1e3:.1f} ms  "
                f"({entry['speedup']:.2f}x, "
                f"gate >={entry['gate_min_speedup']}x)"
            )
        entries.append(entry)
    return dict(
        schema=SCHEMA_VERSION,
        machine=machine_fingerprint(),
        entries=entries,
    )


def machine_fingerprint() -> dict:
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


def check_gates(doc: dict) -> list[str]:
    """Live entries below their own gate, and every false audit.

    A skipped entry carries no ``gate_min_speedup`` and no audit field,
    so nothing is checked (or formatted) for it.
    """
    failures = []
    for e in doc["entries"]:
        gate = e.get("gate_min_speedup")
        if gate is not None and e["speedup"] < gate:
            failures.append(
                f"{e['name']}: speedup {e['speedup']:.2f}x below gate {gate}x"
            )
        if e.get("sim_time_match") is False:
            failures.append(
                f"{e['name']}: simulated time diverged between the serial "
                "and process executors"
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

