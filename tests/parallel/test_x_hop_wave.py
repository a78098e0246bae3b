"""The first x hop's front half, run once per fused kernel chunk.

``InProcessExecutor`` finds, routes and packs every member's x leavers in
one pass over a fused chunk (:func:`repro.runtime.executor.x_hop_wave`)
when the chunk has at least ``WAVE_MIN_MEMBERS`` members.  The per-rank
front half (:func:`repro.parallel.base.hop_front_half`) stays the oracle:

* **Property** — for arbitrary members (sizes, bounds, per-member
  LB-shifted splits, ``h``, the ``x == L`` and ``-0.0`` edges, all-leave
  and none-leave populations) the wave's leaver rows and forward and
  backward wire bytes equal the oracle's, byte for byte.
* **Where it runs** — on a 64-rank fused step no first-round x hop calls
  ``ParticleArray.pack_into``; below the cut-over, for in-place tasks and
  under the process executor the wave never runs.
* **Runs** — a 64-rank run with the wave and one without it agree on the
  final particle bytes (in-rank order included), clocks and traffic.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.kernel import KERNEL_BLOCK, WAVE_MIN_MEMBERS
from repro.core.mesh import Mesh
from repro.core.particles import ParticleArray
from repro.core.spec import PICSpec
from repro.parallel import AmpiPIC, Mpi2dLbPIC, Mpi2dPIC, base
from repro.runtime import executor as executor_mod
from repro.runtime.executor import (
    InProcessExecutor,
    ProcessExecutor,
    x_hop_wave,
)

_HOT = ("x", "y", "vx", "vy", "q")


def _splits(rng, cells, px):
    """``px`` blocks of at least one column, at random (LB-shifted) cuts."""
    cuts = np.sort(rng.choice(np.arange(1, cells), size=px - 1, replace=False))
    return np.concatenate([[0], cuts, [cells]]).astype(np.int64)


def _member(rng, mesh, n, mode):
    px = int(rng.integers(2, 9))
    splits = _splits(rng, mesh.cells, px)
    i = int(rng.integers(px))
    lo, hi = int(splits[i]), int(splits[i + 1])
    L = mesh.cells * mesh.h
    if mode == "none-leave":
        x = rng.uniform(lo * mesh.h, hi * mesh.h, n)
        x = x[(np.floor(x / mesh.h) >= lo) & (np.floor(x / mesh.h) < hi)]
        n = len(x)
    elif mode == "all-leave":
        x = rng.uniform(0.0, L, n)
        x = x[(np.floor(x / mesh.h) < lo) | (np.floor(x / mesh.h) >= hi)]
        n = len(x)
    else:
        x = rng.uniform(0.0, L, n)
        edges = np.array([L, -0.0, 0.0, lo * mesh.h, hi * mesh.h,
                          np.nextafter(hi * mesh.h, 0.0)])
        k = min(n, len(edges))
        x[rng.choice(n, size=k, replace=False)] = edges[:k]
    p = ParticleArray.empty(n)
    p.x[:] = x
    for name in ("y", "vx", "vy"):
        getattr(p, name)[:] = rng.normal(size=n)
    p.q[:] = rng.choice([-1.0, 1.0], size=n)
    p.pid[:] = rng.integers(-(2**40), 2**40, size=n)
    return p, (lo, hi, splits, i, px)


def _stage(members):
    return np.stack([np.concatenate([getattr(p, f) for p, _ in members])
                     for f in _HOT])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(0, 600), min_size=1, max_size=80),
    h=st.sampled_from([1.0, 0.73]),
    cells=st.sampled_from([16, 36, 288]),
    modes=st.lists(st.sampled_from(["mixed", "all-leave", "none-leave"]),
                   min_size=1, max_size=3),
)
def test_wave_equals_per_rank_front_half(seed, sizes, h, cells, modes):
    rng = np.random.default_rng(seed)
    mesh = Mesh(cells, h)
    members = [_member(rng, mesh, n, modes[i % len(modes)])
               for i, n in enumerate(sizes)]
    got = x_hop_wave(_stage(members), members, mesh)
    assert len(got) == len(members)
    for (p, (lo, hi, splits, i, px)), (rows, fwd, bwd) in zip(members, got):
        want = base.hop_front_half(
            p, mesh, base.ExchangeScratch(), splits=splits, my_index=i,
            n_index=px, axis=0, rng=(lo, hi),
        )
        np.testing.assert_array_equal(rows, want[0])
        assert fwd.tobytes() == want[1].tobytes()
        assert bwd.tobytes() == want[2].tobytes()


# ----------------------------------------------------------------------
# Where the wave runs
# ----------------------------------------------------------------------
def _spec(n_particles, steps=2):
    return PICSpec(cells=64, n_particles=n_particles, steps=steps, m_vertical=1)


@pytest.fixture
def wave_calls(monkeypatch):
    calls = []
    real = executor_mod.x_hop_wave

    def counting(stage, members, mesh):
        calls.append(len(members))
        return real(stage, members, mesh)

    monkeypatch.setattr(executor_mod, "x_hop_wave", counting)
    return calls


@pytest.fixture
def x_hop_packs(monkeypatch):
    """``pack_into`` calls made inside x hops and inside y hops."""
    counts = {0: 0, 1: 0}
    axis = []
    real_route, real_pack = base._route_axis, ParticleArray.pack_into

    def route(*args, **kw):
        gen = real_route(*args, **kw)
        value = None
        while True:
            axis.append(kw["axis"])
            try:
                op = gen.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                axis.pop()
            value = yield op

    def pack_into(self, rows, out):
        counts[axis[-1]] += 1
        return real_pack(self, rows, out)

    monkeypatch.setattr(base, "_route_axis", route)
    monkeypatch.setattr(ParticleArray, "pack_into", pack_into)
    return counts


def test_wave_replaces_x_packs_on_a_64_rank_fused_step(wave_calls, x_hop_packs):
    # 64 ranks x ~60 particles, k = 0, m = 1: every hop settles in one round.
    res = Mpi2dPIC(_spec(4_000), 64, executor=InProcessExecutor()).run()
    assert res.verification.ok
    assert wave_calls == [64, 64]
    assert x_hop_packs[0] == 0
    assert x_hop_packs[1] > 0


def test_without_the_wave_x_hops_pack_per_rank(monkeypatch, wave_calls, x_hop_packs):
    monkeypatch.setattr(executor_mod, "WAVE_MIN_MEMBERS", 65)
    Mpi2dPIC(_spec(4_000), 64, executor=InProcessExecutor()).run()
    assert wave_calls == []
    assert x_hop_packs[0] > 0


def test_no_wave_below_the_cut_over(wave_calls):
    cores = WAVE_MIN_MEMBERS // 2
    Mpi2dPIC(_spec(400), cores, executor=InProcessExecutor()).run()
    assert wave_calls == []


def test_no_wave_for_in_place_tasks(monkeypatch, wave_calls):
    # Even at the lowest cut-over, tasks pushed in place never form a wave.
    monkeypatch.setattr(executor_mod, "WAVE_MIN_MEMBERS", 2)
    res = Mpi2dPIC(_spec(4 * KERNEL_BLOCK, steps=1), 4,
                   executor=InProcessExecutor()).run()
    assert res.verification.ok
    assert wave_calls == []


def test_no_wave_under_the_process_executor(wave_calls, x_hop_packs):
    with ProcessExecutor(workers=1) as ex:
        Mpi2dPIC(_spec(4_000), 64, executor=ex).run()
    assert wave_calls == []
    assert x_hop_packs[0] > 0


# ----------------------------------------------------------------------
# Whole runs, with and without the wave
# ----------------------------------------------------------------------
def _observe(monkeypatch, build):
    """Final particle bytes per rank, clocks and traffic of one run."""
    finals = {}
    real_verify = base.ParallelPICBase._verify

    def verify(self, comm, state):
        finals[comm.world_rank] = state.particles.pack().tobytes()
        return (yield from real_verify(self, comm, state))

    monkeypatch.setattr(base.ParallelPICBase, "_verify", verify)
    res = build().run()
    assert res.verification.ok
    return (finals, res.rank_times, res.messages_sent, res.bytes_sent,
            res.collectives)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: Mpi2dPIC(_spec(4_000, 6), 64,
                                  executor=InProcessExecutor()), id="mpi-2d"),
    pytest.param(lambda: Mpi2dLbPIC(_spec(4_000, 6), 64, lb_interval=2,
                                    border_width=1,
                                    executor=InProcessExecutor()),
                 id="mpi-2d-LB"),
    pytest.param(lambda: AmpiPIC(_spec(4_000, 6), 16, overdecomposition=4,
                                 lb_interval=3, executor=InProcessExecutor()),
                 id="ampi"),
])
def test_runs_with_and_without_the_wave_are_identical(monkeypatch, wave_calls, build):
    with_wave = _observe(monkeypatch, build)
    assert wave_calls
    monkeypatch.setattr(executor_mod, "WAVE_MIN_MEMBERS", 10**9)
    assert _observe(monkeypatch, build) == with_wave
