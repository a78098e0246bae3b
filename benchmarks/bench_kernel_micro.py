"""Micro-benchmarks of the computational kernel and runtime hot paths.

These measure *real* wall time (unlike the figure benches, whose scientific
output is simulated time): particle-push throughput, exchange packing, and
scheduler op dispatch — the quantities that bound the harness's capacity.

Run as a script (``PYTHONPATH=src python benchmarks/bench_kernel_micro.py``,
no pytest-benchmark needed) it prints the python kernel's per-pass table
for each branch of the push — an on-axis block (the PRK's own population)
and an off-axis one (uniform y): what each ufunc of one ``KERNEL_BLOCK``
costs and its share of the block, then the whole push against
``advance_reference`` and the compiled kernel.  A further table prices the
exchange's per-hop bookkeeping — ``compact(drop=)``, ``pack_into`` and
``extend_packed`` — per call and per particle column, at ``pump_heavy``'s
and ``exchange_lb``'s shapes.  The last one times a fused group's first
exchange round settled in one wave (``exchange_wave``) against the same
round rank by rank, at the group shapes that decide ``WAVE_MAX_MEAN``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest

from repro.bench.kernel_passes import (
    best_seconds,
    record_block_passes,
    time_block_passes,
)
from repro.core.initialization import initialize
from repro.core.kernel import KERNEL_BLOCK, advance, advance_reference
from repro.core.kernel_compiled import (
    CompiledKernelUnavailable,
    advance_arrays_compiled,
)
from repro.core.mesh import Mesh
from repro.core.particles import STATE_FIELDS
from repro.core.spec import Distribution, PICSpec
from repro.parallel import Mpi2dPIC
from repro.runtime import SUM, Scheduler, run_spmd
from repro.runtime.exchange import (
    WAVE_MAX_MEAN,
    WAVE_MIN_MEMBERS,
    _count_misplaced,
    exchange_wave,
    hop_front_half,
    member_rows,
    wave_geometry,
)
from repro.runtime.executor import InProcessExecutor


@pytest.mark.parametrize("n", [1_000, 100_000])
def test_kernel_push_throughput(benchmark, n):
    spec = PICSpec(
        cells=256, n_particles=n, steps=1, distribution=Distribution.UNIFORM
    )
    mesh = Mesh(spec.cells)
    particles = initialize(spec, mesh)

    def push():
        advance(mesh, particles, spec.dt)

    benchmark(push)
    benchmark.extra_info["particles"] = n


def test_particle_pack_roundtrip(benchmark):
    spec = PICSpec(
        cells=256, n_particles=50_000, steps=1, distribution=Distribution.UNIFORM
    )
    mesh = Mesh(spec.cells)
    particles = initialize(spec, mesh)
    mask = particles.x < 128.0

    def roundtrip():
        buf = particles.pack(mask)
        return type(particles).from_packed(buf)

    benchmark(roundtrip)


def test_scheduler_op_dispatch_rate(benchmark):
    """Sendrecv ping-pong: measures per-op harness overhead."""

    def prog(comm):
        partner = 1 - comm.rank
        payload = np.zeros(16)
        for _ in range(500):
            yield comm.sendrecv(payload, dst=partner, src=partner)
        return None

    def run():
        return run_spmd(2, prog)

    benchmark(run)


def test_allreduce_rate(benchmark):
    def prog(comm):
        total = 0
        for _ in range(200):
            total = yield comm.allreduce(1, op=SUM)
        return total

    def run():
        return run_spmd(8, prog)

    result = benchmark(run)
    assert result.returns[0] == 8


def _report(title: str, mesh: Mesh, particles, dt: float) -> None:
    """Per-pass table of one block of ``particles``, then their whole push."""
    fields = [getattr(particles, f) for f in ("x", "y", "vx", "vy", "q")]
    passes = record_block_passes(mesh, *[a[:KERNEL_BLOCK].copy() for a in fields], dt)
    by_ufunc = defaultdict(lambda: [0, 0.0])
    for p, seconds in zip(passes, time_block_passes(passes)):
        name = p.ufunc.__name__ + ("" if p.method == "__call__" else "." + p.method)
        by_ufunc[name][0] += 1
        by_ufunc[name][1] += seconds / KERNEL_BLOCK * 1e9
    total = sum(ns for _, ns in by_ufunc.values())

    print(f"python kernel, one {title} block of {KERNEL_BLOCK} particles, "
          "h = dt = q = 1")
    print(f"{'ufunc':<18}{'calls':>6}{'ns/particle':>13}{'per call':>10}{'share':>8}")
    for name, (calls, ns) in sorted(by_ufunc.items(), key=lambda kv: -kv[1][1]):
        print(f"{name:<18}{calls:>6}{ns:>13.2f}{ns / calls:>10.2f}{ns / total:>8.1%}")
    print(f"{'all passes':<18}{len(passes):>6}{total:>13.2f}")

    n = len(particles)
    fused = best_seconds(lambda: advance(mesh, particles, dt)) / n * 1e9
    ref = best_seconds(lambda: advance_reference(mesh, particles, dt)) / n * 1e9
    print(f"whole push, {n} {title} particles (passes replayed alone run cache-hot;")
    print("the push adds dispatch and shares the cache between scratch rows):")
    row = "  {:<24}{:7.1f} ns/particle {:6.1f} M pushes/s {:6.2f}x advance".format
    print(row("advance", fused, 1e3 / fused, 1.0))
    print(row("advance_reference", ref, 1e3 / ref, ref / fused))
    try:
        c = best_seconds(lambda: advance_arrays_compiled(mesh, *fields, dt)) / n * 1e9
    except CompiledKernelUnavailable as exc:
        print(f"  advance_arrays_compiled unavailable: {exc}")
    else:
        print(row("advance_arrays_compiled", c, 1e3 / c, c / fused))


#: (label, residents, leavers): one rank's hop in pump_heavy (64 ranks x
#: 250 particles) and in exchange_lb (8 ranks x 75 000, fast particles).
EXCHANGE_SHAPES = (("pump_heavy", 250, 8), ("exchange_lb", 75_000, 5_000))


def _best_call_us(op, restore, reps: int) -> float:
    """Best wall microseconds of ``op()``, with ``restore()`` untimed
    before each call."""
    best = float("inf")
    for _ in range(reps + 1):  # the first call warms up
        restore()
        t0 = time.perf_counter()
        op()
        best = min(best, time.perf_counter() - t0)
    return best * 1e6


def _exchange_report() -> None:
    """Per-call cost of one hop's particle bookkeeping: drop the leavers
    (tail-fill), pack them into a wire buffer, append as many arrivals."""
    print(f"exchange bookkeeping per call, {STATE_FIELDS}-column particle record")
    print(f"{'shape':<26}{'op':<16}{'us/call':>9}{'us/column':>11}")
    rng = np.random.default_rng(7)
    for label, n, k in EXCHANGE_SHAPES:
        spec = PICSpec(cells=256, n_particles=n, steps=1,
                       distribution=Distribution.UNIFORM)
        p = initialize(spec, Mesh(spec.cells))
        p.reserve(n + k)
        leavers = np.sort(rng.choice(n, size=k, replace=False))
        wire = np.empty((k, STATE_FIELDS))
        arrivals = p.pack(leavers)
        tail = np.arange(n, n + k)
        reps = 2000 if n < 10_000 else 50

        def regrow(p=p, arrivals=arrivals):
            if len(p) < n:
                p.extend_packed(arrivals)

        def shrink(p=p, tail=tail):
            if len(p) > n:
                p.compact(drop=tail)

        for name, op, restore in (
            ("compact(drop=)", lambda: p.compact(drop=leavers), regrow),
            ("pack_into", lambda: p.pack_into(leavers, wire), regrow),
            ("extend_packed", lambda: p.extend_packed(arrivals), shrink),
        ):
            us = _best_call_us(op, restore, reps)
            print(f"{f'{label} {n}/{k}':<26}{name:<16}{us:>9.2f}"
                  f"{us / STATE_FIELDS:>11.3f}")


#: (label, cores, particles) of the groups the wave table times, at 288
#: cells: pump_heavy's, one just past one kernel block, one at the
#: member cut-over, multiplex_32's four ranks per engine (below the cut,
#: so run per rank) and churn_ckpt's 16 virtual ranks (4 x 4 on an ampi
#: grid; the same populations on a 16-rank mpi-2d grid here).
WAVE_SHAPES = (
    ("64 x 250 (pump_heavy)", 64, 16_000),
    ("64 x 312", 64, 20_000),
    ("8 x 250", 8, 2_000),
    ("4 x 1000 (multiplex_32)", 4, 4_000),
    ("16 x 7500 (churn_ckpt)", 16, 120_000),
)


def _first_batch(cores: int, n: int):
    """The pushed particles (copies), ranks and routes of the first batch
    of a one-step mpi-2d run."""
    captured = []
    real_flush = Scheduler._flush_compute

    def flush(self, ready):
        if not captured:
            captured.extend((r, t.route, t.particles.copy())
                            for r, t in self._pending_exec)
        real_flush(self, ready)

    spec = PICSpec(cells=288, n_particles=n, steps=1)
    with mock.patch.object(Scheduler, "_flush_compute", flush):
        Mpi2dPIC(spec, cores, executor=InProcessExecutor()).run()
    mesh = Mesh(spec.cells)
    for _, _, p in captured:
        advance(mesh, p, spec.dt)
    return mesh, captured


def _per_rank_round(mesh, parts, routes, where) -> None:
    """The array work of ``exchange_particles``' first round, rank by rank:
    each hop's front half, then tail-fill, arrivals and their count."""
    for axis in (0, 1):
        fronts = []
        for p, r in zip(parts, routes):
            b = r.bounds[4 * axis : 4 * axis + 4]
            if b[3] == 1:
                break
            fronts.append(hop_front_half(
                p, mesh, splits=r.splits[axis], my_index=b[2], n_index=b[3],
                axis=axis, rng=b[:2],
            ))
        if not fronts:
            continue
        for p, r, front in zip(parts, routes, fronts):
            if len(front[0]):
                p.compact(drop=front[0])
            n_kept = len(p)
            p.extend_packed(fronts[where[r.sources[2 * axis]]][1])
            p.extend_packed(fronts[where[r.sources[2 * axis + 1]]][2])
            if len(p) > n_kept:
                b = r.bounds
                ranges = ((b[0], b[1]),) if axis == 0 else ((b[0], b[1]), (b[4], b[5]))
                _count_misplaced(mesh, p.x[n_kept:], p.y[n_kept:], *ranges)


def _wave_report(reps: int = 20) -> None:
    """One fused group's first exchange round: settled in one wave against
    rank by rank, both from the pushed stage to every member holding its
    post-round population.  Rank by rank includes the stage copy-back the
    wave skips; the wave includes staging pid and adopting the block."""
    print(f"first exchange round of one fused group (WAVE_MIN_MEMBERS = "
          f"{WAVE_MIN_MEMBERS}, WAVE_MAX_MEAN = {WAVE_MAX_MEAN})")
    print(f"{'members x particles':<26}{'per rank':>10}{'wave':>10}"
          f"{'us/member':>16}{'ns/particle':>16}{'waves':>7}")
    for label, cores, n in WAVE_SHAPES:
        mesh, batch = _first_batch(cores, n)
        ranks = [r for r, _, _ in batch]
        routes = [route for _, route, _ in batch]
        pushed = [p for _, _, p in batch]
        counts = [len(p) for p in pushed]
        total = sum(counts)
        geometry = wave_geometry(ranks, routes)
        where = {r: i for i, r in enumerate(ranks)}
        stage = np.empty((STATE_FIELDS, total))
        for row, name in enumerate(("x", "y", "vx", "vy", "q")):
            stage[row] = np.concatenate([getattr(p, name) for p in pushed])
        hot = stage[:5].copy()
        state: dict = {}

        def restore():
            state["parts"] = [p.copy() for p in pushed]

        def per_rank():
            parts = state["parts"]
            a = 0
            for p in parts:  # the copy-back the wave skips
                b = a + len(p)
                p.x[:] = hot[0, a:b]
                p.y[:] = hot[1, a:b]
                p.vx[:] = hot[2, a:b]
                p.vy[:] = hot[3, a:b]
                a = b
            _per_rank_round(mesh, parts, routes, where)

        def wave():
            parts = state["parts"]
            np.concatenate([p.pid for p in parts], out=stage[5].view(np.int64))
            _, settled, layout = exchange_wave(stage, counts, mesh, *geometry)
            block = stage.copy() if layout is None else np.take(stage, layout, axis=1)
            for p, rows in zip(parts, member_rows(block, settled)):
                p.adopt(rows)

        slow = _best_call_us(per_rank, restore, reps)
        fast = _best_call_us(wave, restore, reps)
        admitted = cores >= WAVE_MIN_MEMBERS and total <= WAVE_MAX_MEAN * cores
        print(f"{label:<26}{slow:>9.0f}u{fast:>9.0f}u"
              f"{f'{slow / cores:.1f} -> {fast / cores:.1f}':>16}"
              f"{f'{1e3 * slow / total:.1f} -> {1e3 * fast / total:.1f}':>16}"
              f"{'yes' if admitted else 'no':>7}")


def main() -> None:
    """Both branches of the python push at h = dt = q = 1: a PRK population
    (every particle on its row's axis, one corner per column) and the same
    particles with uniform y (four corners)."""
    spec = PICSpec(
        cells=256, n_particles=16 * KERNEL_BLOCK, steps=1,
        distribution=Distribution.UNIFORM,
    )
    mesh = Mesh(spec.cells)
    particles = initialize(spec, mesh)
    off_axis = particles.copy()
    off_axis.y[:] = np.random.default_rng(1).uniform(0.0, mesh.L, len(off_axis))
    _report("on-axis", mesh, particles, spec.dt)
    print()
    _report("off-axis", mesh, off_axis, spec.dt)
    print()
    _exchange_report()
    print()
    _wave_report()


if __name__ == "__main__":
    main()
