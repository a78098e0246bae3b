"""A closed fused group's first exchange round, settled once for every member.

When ``InProcessExecutor`` has just pushed a group of small ranks, one pass
(:func:`repro.runtime.exchange.exchange_wave`) runs what each member's
``exchange_particles`` would do in round 1: the x hop, the y hop on the
post-x populations, tail-fill, arrivals and the settlement counts — for a
closed group (every member's source neighbours are members) of at least
``WAVE_MIN_MEMBERS`` members with at most ``WAVE_MAX_MEAN`` particles per
member on average.  Every other rank runs its exchange itself.  The
per-rank path (:func:`repro.runtime.exchange.hop_front_half` plus
``_route_axis``'s back half) stays the oracle:

* **Property** — the settled round equals the real per-rank round
  (``exchange_particles`` up to its settlement allreduce): each member's
  count-table row holds the per-rank round's buffer lengths, arrivals and
  stray and misplaced counts up to the hop that leaves a stray, and
  without one its gathered populations match byte for byte in row order —
  over uneven and disagreeing splits, multi-hop moves, empty
  members, members whose particles all leave or all stay, ``px``/``py``
  in {1, 2, odd}, ``h != 1`` and up to 288 cells.
* **Where it runs** — on a 64-rank fused run settled hops make no
  ``compact``/``extend_packed``/``hop_front_half`` call, and the calls
  reappear without the settle; below the cut-over, for in-place tasks,
  for groups that are not closed and under the process executor no wave
  runs.
* **Runs** — a 64-rank run settled and one without the wave agree on the
  final particle bytes (in-rank order included), clocks and traffic; so
  does a multi-hop run, whose rounds leave strays: each stops at its stray
  hop and gathers no block, and the executor copies each pushed stage back
  and hands out no wave.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.kernel import KERNEL_BLOCK, WAVE_MIN_MEMBERS
from repro.core.mesh import Mesh
from repro.core.particles import ParticleArray, STATE_FIELDS
from repro.core.spec import PICSpec
from repro.decomp.partition import BlockPartition
from repro.parallel import AmpiPIC, Mpi2dLbPIC, Mpi2dPIC, base
from repro.runtime import exchange as exchange_mod
from repro.runtime import executor as executor_mod
from repro.runtime import ops, run_spmd
from repro.runtime.costmodel import CostModel
from repro.runtime.exchange import SettledWave, exchange_wave, wave_geometry
from repro.runtime.executor import InProcessExecutor, ProcessExecutor

_FIELDS = ("x", "y", "vx", "vy", "q", "pid")


def _splits(rng, cells, px):
    """``px`` blocks of at least one column, at random (LB-shifted) cuts."""
    cuts = np.sort(rng.choice(np.arange(1, cells), size=px - 1, replace=False))
    return np.concatenate([[0], cuts, [cells]]).astype(np.int64)


def _stage(parts):
    stage = np.empty((STATE_FIELDS, sum(len(p) for p in parts)))
    for row, name in enumerate(_FIELDS[:5]):
        stage[row] = np.concatenate([getattr(p, name) for p in parts])
    stage[5].view(np.int64)[:] = np.concatenate([p.pid for p in parts])
    return stage


# ----------------------------------------------------------------------
# The settled round against the per-rank round
# ----------------------------------------------------------------------
def _population(rng, mesh, n, part, cx, cy, reach, mode="mixed"):
    """At most ``n`` particles of one rank.  ``mixed``: mostly on its block,
    some moved ``reach`` blocks' worth (multi-hop when far), some on the
    domain's edges; ``none-leave``: all on its block; ``all-leave``: all
    off its x block (off its y block when that is the whole domain)."""
    L = mesh.cells * mesh.h
    x0, x1 = part.x_range(cx)
    y0, y1 = part.y_range(cy)
    if mode == "all-leave":
        x, y = rng.uniform(0.0, L, (2, n))
        v, lo, hi = (x, x0, x1) if x1 - x0 < mesh.cells else (y, y0, y1)
        off = (np.floor(v / mesh.h) < lo) | (np.floor(v / mesh.h) >= hi)
        x, y = x[off], y[off]
    else:
        x = rng.uniform(x0 * mesh.h, x1 * mesh.h, n)
        y = rng.uniform(y0 * mesh.h, y1 * mesh.h, n)
    if mode == "none-leave":
        on = ((np.floor(x / mesh.h) >= x0) & (np.floor(x / mesh.h) < x1)
              & (np.floor(y / mesh.h) >= y0) & (np.floor(y / mesh.h) < y1))
        x, y = x[on], y[on]
    elif mode == "mixed":
        moved = rng.random(n) < 0.3
        x[moved] = (x[moved] + rng.normal(0.0, reach, moved.sum()) * mesh.h) % L
        y[moved] = (y[moved] + rng.normal(0.0, reach, moved.sum()) * mesh.h) % L
        edges = [L, -0.0, 0.0, x0 * mesh.h, x1 * mesh.h,
                 np.nextafter(x1 * mesh.h, 0.0)]
        k = min(n, len(edges))
        x[rng.choice(n, size=k, replace=False)] = edges[:k]
    n = len(x)
    p = ParticleArray.empty(n)
    p.x[:], p.y[:] = x, y
    p.vx[:] = rng.normal(size=n)
    p.vy[:] = rng.normal(size=n)
    p.q[:] = rng.choice([-1.0, 1.0], size=n)
    p.pid[:] = rng.integers(-(2**40), 2**40, size=n)
    return p


def _first_round(mesh, dims, parts, partitions):
    """Every rank's ``exchange_particles`` up to its first settlement
    allreduce: ``{rank: (route, population)}``, and each hop's ``[forward
    leavers, backward leavers, arrivals, count]`` as the per-rank path
    computes it (``{(rank, axis): ...}``)."""
    cost = CostModel()
    out, fronts, hops = {}, {}, {}
    owner = {}
    real_front, real_route = exchange_mod.hop_front_half, exchange_mod._route_axis

    def front(particles, mesh, *, axis, **kw):
        got = real_front(particles, mesh, axis=axis, **kw)
        fronts[owner[id(particles)], axis] = (len(got[1]), len(got[2]))
        return got

    def route(comm, cart, particles, *args, axis, **kw):
        n0 = len(particles)
        count = yield from real_route(comm, cart, particles, *args, axis=axis, **kw)
        if (cart.rank, axis) in fronts:
            fwd, bwd = fronts[cart.rank, axis]
            hops[cart.rank, axis] = [fwd, bwd, len(particles) - n0 + fwd + bwd, count]
        return count

    def prog(comm):
        cart = yield comm.create_cart(dims)
        r = cart.rank
        part = partitions[r]
        p = parts[r].copy()
        owner[id(p)] = r
        gen = exchange_mod.exchange_particles(comm, cart, part, mesh, p, cost)
        value = None
        while type(op := gen.send(value)) is not ops.CollectiveOp:
            value = yield op
        out[r] = (exchange_mod._rank_route(part, cart), p)
        gen.close()

    exchange_mod.hop_front_half, exchange_mod._route_axis = front, route
    try:
        run_spmd(dims[0] * dims[1], prog)
    finally:
        exchange_mod.hop_front_half, exchange_mod._route_axis = real_front, real_route
    return out, hops


def _bytes(p):
    return [getattr(p, name).tobytes() for name in _FIELDS]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    px=st.sampled_from([1, 2, 3, 5]),
    py=st.sampled_from([1, 2, 3, 5]),
    h=st.sampled_from([1.0, 0.73]),
    cells=st.sampled_from([20, 36, 288]),
    sizes=st.lists(st.integers(0, 90), min_size=25, max_size=25),
    reach=st.sampled_from([0.5, 3.0, 12.0]),
    disagree=st.booleans(),
    modes=st.lists(st.sampled_from(["mixed", "all-leave", "none-leave"]),
                   min_size=1, max_size=3),
)
def test_settled_round_equals_per_rank_round(seed, px, py, h, cells, sizes,
                                             reach, disagree, modes):
    rng = np.random.default_rng(seed)
    mesh = Mesh(cells, h)
    dims = (px, py)
    n_ranks = px * py

    def lb_split():
        return BlockPartition(cells, _splits(rng, cells, px), _splits(rng, cells, py))

    shared = lb_split()
    partitions = [lb_split() if disagree else shared for _ in range(n_ranks)]
    parts = [_population(rng, mesh, sizes[r], partitions[r], r // py, r % py,
                         reach, modes[r % len(modes)])
             for r in range(n_ranks)]
    want, hops = _first_round(mesh, dims, parts, partitions)

    ranks = list(range(n_ranks))
    routes = [want[r][0] for r in ranks]
    geometry = wave_geometry(ranks, routes)
    assert geometry is not None
    stage = _stage(parts)
    wave = exchange_wave(stage, [len(p) for p in parts], ranks, routes, mesh,
                         *geometry)
    assert wave.table.shape == (n_ranks, 8) and wave.table.dtype == np.int64
    # A round stops at the hop that leaves a stray: after it, zeros.
    x_stray = any(hops.get((r, 0), [0] * 4)[3] for r in ranks)
    for r in ranks:
        # A hop that does not run (one rank along its axis) reads zeros.
        row = [hops.get((r, axis), [0] * 4) for axis in (0, 1)]
        if x_stray:
            row[1] = [0] * 4
        assert wave.table[r].tolist() == row[0] + row[1]
    assert wave.stray == any(row[3] for row in hops.values())
    if not wave.stray:
        columns = wave.columns(wave.gather(stage))
        for r in ranks:
            assert [c.tobytes() for c in columns[r]] == _bytes(want[r][1])


def test_adopted_rows_never_reach_a_neighbour():
    """Members adopt slices of one block; growth reallocates privately."""
    mesh = Mesh(16)
    part = BlockPartition.uniform(16, 4, 2)
    rng = np.random.default_rng(3)
    parts = [_population(rng, mesh, 40, part, r // 2, r % 2, 3.0) for r in range(8)]
    want, _ = _first_round(mesh, (4, 2), parts, [part] * 8)
    ranks = list(range(8))
    routes = [want[r][0] for r in ranks]
    stage = _stage(parts)
    wave = exchange_wave(stage, [40] * 8, ranks, routes, mesh,
                         *wave_geometry(ranks, routes))
    members = [ParticleArray.empty(0) for _ in range(8)]
    for p, columns in zip(members, wave.columns(wave.gather(stage))):
        p.adopt(columns)
        assert p.capacity == len(p)
    before = [_bytes(p) for p in members]
    members[0].extend(members[1])
    members[2].compact(drop=np.arange(len(members[2]) // 2))
    members[2].extend_packed(members[3].pack())
    for i in (1, 3, 4, 5, 6, 7):
        assert _bytes(members[i]) == before[i]


# ----------------------------------------------------------------------
# Where the wave runs
# ----------------------------------------------------------------------
def _spec(n_particles, steps=2, **kw):
    return PICSpec(cells=64, n_particles=n_particles, steps=steps, m_vertical=1,
                   **kw)


@pytest.fixture
def wave_calls(monkeypatch):
    """The member count of every ``exchange_wave`` call."""
    calls = []
    real = executor_mod.exchange_wave

    def counting(stage, counts, ranks, routes, mesh, *geometry):
        calls.append(len(routes))
        return real(stage, counts, ranks, routes, mesh, *geometry)

    monkeypatch.setattr(executor_mod, "exchange_wave", counting)
    return calls


@pytest.fixture
def x_hop_packs(monkeypatch):
    """``pack_into`` calls made inside x hops and inside y hops."""
    counts = {0: 0, 1: 0}
    axis = []
    real_route, real_pack = exchange_mod._route_axis, ParticleArray.pack_into

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

    monkeypatch.setattr(exchange_mod, "_route_axis", route)
    monkeypatch.setattr(ParticleArray, "pack_into", pack_into)
    return counts


@pytest.fixture
def per_rank_calls(monkeypatch):
    """Calls of the per-rank round's array work, by name."""
    calls = {"compact": 0, "extend_packed": 0, "hop_front_half": 0}

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kw):
            calls[name] += 1
            return real(*args, **kw)

        monkeypatch.setattr(owner, name, wrapper)

    counted(ParticleArray, "compact")
    counted(ParticleArray, "extend_packed")
    counted(exchange_mod, "hop_front_half")
    return calls


def test_without_the_wave_x_hops_pack_per_rank(monkeypatch, wave_calls, x_hop_packs):
    monkeypatch.setattr(executor_mod, "WAVE_MIN_MEMBERS", 65)
    Mpi2dPIC(_spec(4_000), 64, executor=InProcessExecutor()).run()
    assert wave_calls == []
    assert x_hop_packs[0] > 0


def test_settled_hops_make_no_per_rank_array_calls(monkeypatch, wave_calls,
                                                   x_hop_packs, per_rank_calls):
    res = Mpi2dPIC(_spec(4_000), 64, executor=InProcessExecutor()).run()
    assert res.verification.ok
    assert wave_calls == [64, 64]
    assert per_rank_calls == {"compact": 0, "extend_packed": 0, "hop_front_half": 0}
    assert x_hop_packs == {0: 0, 1: 0}
    # The same run without the settle: no wave, every hop does its own
    # array work.
    monkeypatch.setattr(executor_mod, "WAVE_MAX_MEAN", 0)
    wave_calls.clear()
    Mpi2dPIC(_spec(4_000), 64, executor=InProcessExecutor()).run()
    assert wave_calls == []
    assert all(per_rank_calls[name] > 0 for name in per_rank_calls)
    assert x_hop_packs[0] > 0 and x_hop_packs[1] > 0


def test_empty_ranks_keep_a_group_closed(wave_calls):
    # 64 ranks, 40 particles: most ranks start and stay empty members.
    res = Mpi2dPIC(_spec(40), 64, executor=InProcessExecutor()).run()
    assert res.verification.ok
    assert wave_calls == [64, 64]


def test_no_settle_above_the_mean_size(wave_calls):
    # 16 ranks x 3 000 particles (churn_ckpt's 16 x 7 500 is further out):
    # the group runs in two-member chunks, each rank exchanging itself.
    Mpi2dPIC(_spec(48_000, steps=1), 16, executor=InProcessExecutor()).run()
    assert wave_calls == []


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
# Whole runs: settled and without the wave
# ----------------------------------------------------------------------
_VERIFY = base.ParallelPICBase._verify


def _observe(monkeypatch, build):
    """Final particle bytes per rank, clocks and traffic of one run."""
    finals = {}

    def verify(self, comm, state):
        finals[comm.world_rank] = state.particles.pack().tobytes()
        return (yield from _VERIFY(self, comm, state))

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
    settled = _observe(monkeypatch, build)
    assert wave_calls
    monkeypatch.setattr(executor_mod, "WAVE_MAX_MEAN", 0)
    wave_calls.clear()
    assert _observe(monkeypatch, build) == settled
    assert wave_calls == []


def test_a_stray_wave_copies_its_push_back(monkeypatch, wave_calls):
    """k = 4 moves particles 9 cells a step over blocks 8 cells wide: every
    settled round leaves x strays, so it stops after the x hop and gathers
    nothing, the executor copies each pushed stage back, hands out no wave
    and every rank runs its whole exchange; final bytes, clocks and traffic
    equal the run without the wave."""
    handed, gathers = [], []
    real_take, real_gather = InProcessExecutor.take_wave, SettledWave.gather

    def take_wave(self):
        handed.append(real_take(self))
        return handed[-1]

    def gather(self, stage):
        gathers.append(self)
        return real_gather(self, stage)

    monkeypatch.setattr(InProcessExecutor, "take_wave", take_wave)
    monkeypatch.setattr(SettledWave, "gather", gather)

    def build():
        return Mpi2dPIC(_spec(4_000, 6, k=4), 64, executor=InProcessExecutor())

    strayed = _observe(monkeypatch, build)
    assert wave_calls == [64] * 6
    assert handed == [None] * 6 and gathers == []
    monkeypatch.setattr(executor_mod, "WAVE_MAX_MEAN", 0)
    wave_calls.clear()
    assert _observe(monkeypatch, build) == strayed
    assert wave_calls == []


def test_groups_beside_in_place_ranks_are_not_closed(monkeypatch, wave_calls):
    # r = 0.9 piles 52-57 % of the particles on the first block column
    # over both steps: its 8 ranks (>= 10 000 each, >= KERNEL_BLOCK // 2)
    # run in place, so the 56 small ranks fused beside them (~1 200 each)
    # form a group whose x sources include in-place ranks: not closed, and
    # no wave runs.
    closures = []
    real = executor_mod.wave_geometry

    def closed(ranks, routes):
        got = real(ranks, routes)
        closures.append((len(ranks), got is None))
        return got

    monkeypatch.setattr(executor_mod, "wave_geometry", closed)
    spec = PICSpec(cells=64, n_particles=160_000, steps=2, r=0.9, m_vertical=1)

    def build():
        return Mpi2dPIC(spec, 64, executor=InProcessExecutor())

    split = _observe(monkeypatch, build)
    assert closures and all(WAVE_MIN_MEMBERS <= m < 64 for m, _ in closures)
    assert all(none for _, none in closures)
    assert wave_calls == []
    monkeypatch.setattr(executor_mod, "WAVE_MAX_MEAN", 0)
    closures.clear()
    assert split == _observe(monkeypatch, build)
    assert closures == []
