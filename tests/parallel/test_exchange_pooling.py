"""Tests for the pooled, zero-churn, O(leavers) particle exchange.

Five concerns:

* **Zero-migration safety** — the seed's ``_route_axis`` only defined
  ``go_fwd``/``go_bwd`` inside the ``if len(particles)`` branch; the pooled
  rewrite restructured that path, and these tests pin the regression: a
  non-empty, fully-settled population must route as a no-op, repeatedly.

* **Steady-state allocation bound** — with every particle settled,
  repeated exchanges allocate no population-sized column or record copy:
  only the range test's boolean flags, under 4 bytes per resident particle
  (tracemalloc sees numpy buffers).

* **Differential equivalence** — the pooled exchange and the verbatim seed
  implementation (``tests/parallel/legacy_exchange.py``) must deliver identical
  particles, including the int64 fields, for arbitrary migration patterns.
  In-rank order is implementation-defined (tail-fill compaction), so
  populations are compared sorted by pid.

* **Multi-hop settlement** — the hop counts only its arrivals and falls
  back to a full recount when an x arrival is still off-block; random
  patterns with moves wider than one block must reproduce the legacy
  router's simulated clocks, traffic and settlement rounds exactly.

* **Pinned simulated quantities** — clocks, traffic, collectives and the
  per-step allreduce count of all three implementations on one small spec,
  recorded at the parent commit of the O(leavers) rewrite.
"""

from __future__ import annotations

import gc
import tracemalloc

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mesh import Mesh
from repro.core.particles import ParticleArray
from repro.decomp.partition import BlockPartition
from repro.core.spec import PICSpec
from repro.instrument import Tracer
from repro.parallel import AmpiPIC, Mpi2dLbPIC, Mpi2dPIC
from repro.runtime.exchange import _count_misplaced, exchange_particles
from repro.runtime import run_spmd
from repro.runtime.costmodel import CostModel
from tests.parallel.legacy_exchange import exchange_particles_legacy

_FIELDS = ("x", "y", "vx", "vy", "q", "pid")


def make_population(n, mesh, seed, *, x_range=None, y_range=None):
    """Particles with all 6 fields populated, optionally confined to a block."""
    rng = np.random.default_rng(seed)
    p = ParticleArray.empty(n)
    xlo, xhi = x_range if x_range else (0.0, mesh.L)
    ylo, yhi = y_range if y_range else (0.0, mesh.L)
    p.x[:] = rng.uniform(xlo, xhi, n)
    p.y[:] = rng.uniform(ylo, yhi, n)
    p.vx[:] = rng.normal(size=n)
    p.vy[:] = rng.normal(size=n)
    p.q[:] = rng.choice([-1.0, 1.0], size=n)
    p.pid[:] = rng.integers(0, 2**40, size=n)
    return p


def run_exchange(cells, dims, placed, exchange=exchange_particles, rounds=1):
    """Run ``rounds`` exchanges over a cart; returns {rank: ParticleArray}."""
    return dict(enumerate(run_exchange_spmd(cells, dims, placed, exchange, rounds).returns))


def run_exchange_spmd(cells, dims, placed, exchange=exchange_particles, rounds=1,
                      h=1.0):
    """Like :func:`run_exchange`, returning the whole ``SpmdResult``."""
    mesh = Mesh(cells, h)
    part = BlockPartition.uniform(cells, *dims)
    cost = CostModel()
    n = dims[0] * dims[1]

    def prog(comm):
        cart = yield comm.create_cart(dims)
        mine = placed.get(cart.rank, ParticleArray.empty(0))
        for _ in range(rounds):
            mine = yield from exchange(comm, cart, part, mesh, mine, cost)
        return mine

    return run_spmd(n, prog)


def sort_key(p):
    return np.argsort(p.pid)


def assert_same_particles(a: ParticleArray, b: ParticleArray):
    assert len(a) == len(b)
    ka, kb = sort_key(a), sort_key(b)
    for name in _FIELDS:
        fa, fb = getattr(a, name)[ka], getattr(b, name)[kb]
        assert fa.dtype == fb.dtype, name
        np.testing.assert_array_equal(fa, fb, err_msg=name)


# ----------------------------------------------------------------------
# Zero-migration regression (the go_fwd/go_bwd hazard)
# ----------------------------------------------------------------------
class TestZeroMigration:
    def test_settled_population_repeated_exchanges(self):
        """Non-empty settled sets through many exchanges."""
        cells, dims = 16, (2, 2)
        mesh = Mesh(cells)
        part = BlockPartition.uniform(cells, *dims)
        placed = {}
        for rank in range(4):
            cx, cy = divmod(rank, 2)
            placed[rank] = make_population(
                200, mesh, seed=rank,
                x_range=part.x_range(cx), y_range=part.y_range(cy),
            )
        before = {r: p.copy() for r, p in placed.items()}
        out = run_exchange(cells, dims, placed, rounds=5)
        for rank in range(4):
            assert_same_particles(out[rank], before[rank])

    def test_one_axis_migrates_other_is_clean(self):
        """x-phase moves particles while the y-phase sees zero movers —
        exercising the clean-axis skip with a non-empty population."""
        cells, dims = 16, (2, 2)
        mesh = Mesh(cells)
        part = BlockPartition.uniform(cells, *dims)
        # Rank 0 holds particles that belong in rank 2's block (x moves,
        # y already correct) plus some of its own.
        stay = make_population(50, mesh, 1, x_range=(0, 8), y_range=(0, 8))
        move = make_population(30, mesh, 2, x_range=(8, 16), y_range=(0, 8))
        placed = {0: ParticleArray.concatenate([stay, move])}
        out = run_exchange(cells, dims, placed)
        assert len(out[0]) == 50
        assert len(out[2]) == 30
        assert_same_particles(out[0], stay)
        assert_same_particles(out[2], move)

    def test_count_misplaced_matches_owner_rank(self):
        """The range-test count equals ``owner_rank != rank`` on every rank,
        and its x-only form (the x hop's arrival check) counts columns only."""
        cells, dims = 16, (2, 2)
        mesh = Mesh(cells)
        part = BlockPartition.uniform(cells, *dims)
        p = make_population(64, mesh, 3)
        owner = part.owner_rank(p.cell_columns(mesh), p.cell_rows(mesh))
        x_owner = part.x_owner(p.cell_columns(mesh))
        for rank in range(4):
            cx, cy = divmod(rank, 2)
            xr, yr = part.x_range(cx), part.y_range(cy)
            assert _count_misplaced(mesh, p.x, p.y, xr, yr) == int(
                np.count_nonzero(owner != rank)
            )
            assert _count_misplaced(mesh, p.x, p.y, xr) == int(
                np.count_nonzero(x_owner != cx)
            )


# ----------------------------------------------------------------------
# Steady-state allocation bound
# ----------------------------------------------------------------------
def test_steady_state_exchange_allocates_no_population_arrays():
    """After warm-up, settled exchanges allocate less than 4 bytes per
    resident particle.

    The range test allocates its boolean flags (1 byte per particle each),
    which pass; a single float64 population column (8 bytes per particle,
    800 kB at 100k particles) or a legacy-style record copy (select / pack,
    ~8.8 MB) fails, as would the scheduler's per-op bookkeeping growing
    with the population.
    """
    cells, dims, n_per_rank = 16, (2, 1), 100_000
    mesh = Mesh(cells)
    part = BlockPartition.uniform(cells, *dims)
    cost = CostModel()
    placed = {
        0: make_population(n_per_rank, mesh, 10, x_range=(0, 8)),
        1: make_population(n_per_rank, mesh, 11, x_range=(8, 16)),
    }
    measured = {}

    def prog(comm):
        cart = yield comm.create_cart(dims)
        mine = placed[cart.rank]
        # Warm-up: first-use imports and caches are not the exchange.
        for _ in range(2):
            mine = yield from exchange_particles(comm, cart, part, mesh, mine, cost)
        if cart.rank == 0:
            gc.collect()
            tracemalloc.start()
        for _ in range(5):
            mine = yield from exchange_particles(comm, cart, part, mesh, mine, cost)
        if cart.rank == 0:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            measured["peak"] = peak
        return len(mine)

    res = run_spmd(2, prog)
    assert res.returns == [n_per_rank, n_per_rank]
    # Both ranks' steady-state work (plus scheduler bookkeeping) ran inside
    # the measured window.
    assert measured["peak"] < 4 * n_per_rank, f"allocated {measured['peak']} bytes"


# ----------------------------------------------------------------------
# Differential: pooled vs verbatim seed implementation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dims", [(2, 1), (4, 2), (3, 3)])
def test_pooled_exchange_matches_legacy(dims, seed):
    cells = 18
    mesh = Mesh(cells)
    rng = np.random.default_rng(seed)
    n_ranks = dims[0] * dims[1]
    placed = {
        r: make_population(int(rng.integers(0, 120)), mesh, seed=100 * seed + r)
        for r in range(n_ranks)
    }
    pooled = run_exchange(
        cells, dims, {r: p.copy() for r, p in placed.items()}, rounds=2
    )
    legacy = run_exchange(
        cells, dims, {r: p.copy() for r, p in placed.items()},
        exchange=exchange_particles_legacy, rounds=2,
    )
    for rank in range(n_ranks):
        assert_same_particles(pooled[rank], legacy[rank])


# ----------------------------------------------------------------------
# Multi-hop settlement: arrival-only count + full-scan fallback
# ----------------------------------------------------------------------
def assert_same_simulation(a, b):
    """Two ``SpmdResult``s agree on every simulated quantity and particle."""
    assert a.total_time == b.total_time
    assert a.times == b.times
    assert a.messages_sent == b.messages_sent
    assert a.bytes_sent == b.bytes_sent
    assert a.collectives == b.collectives  # same number of settlement rounds
    for mine, theirs in zip(a.returns, b.returns):
        assert_same_particles(mine, theirs)


@settings(max_examples=30, deadline=None)
@given(
    dims=st.sampled_from([(4, 1), (1, 5), (4, 2), (3, 3), (5, 2), (2, 6)]),
    seed=st.integers(0, 2**31),
    rounds=st.integers(1, 2),
    h=st.sampled_from([1.0, 0.5, 0.3]),
)
def test_random_multi_hop_patterns_match_legacy(dims, seed, rounds, h):
    """Every rank starts with particles from anywhere on the mesh, so moves
    span up to half the processor grid on both axes.  Each population's
    first particle sits on the ``x == L`` rounding edge of the periodic
    wrap (cell 0, though ``x / h`` is not below ``cells``)."""
    cells = 30
    mesh = Mesh(cells, h)
    rng = np.random.default_rng(seed)
    placed = {
        r: make_population(int(rng.integers(0, 80)), mesh, seed=seed + r)
        for r in range(dims[0] * dims[1])
    }
    for p in placed.values():
        p.x[:1] = np.mod(-1e-20, mesh.L)
    pooled, legacy = (
        run_exchange_spmd(
            cells, dims, {r: p.copy() for r, p in placed.items()}, exchange,
            rounds, h=h,
        )
        for exchange in (exchange_particles, exchange_particles_legacy)
    )
    assert_same_simulation(pooled, legacy)


@pytest.mark.parametrize(
    "owner, y_range", [(4, (0, 8)), (5, (8, 16))], ids=["same-row", "row-up"]
)
def test_wide_move_takes_the_full_scan_fallback(owner, y_range):
    """Rank (0,0) holds particles owned two processor columns away.  They
    land on (1,0) still off-block in x, so its arrival count is non-zero and
    it must recount in full.  ``same-row``: they stay there, and that recount
    is the only thing that reports them.  ``row-up``: they leave again along
    y before the recount, and (1,1) reports them as y arrivals.  Either way a
    second round delivers them."""
    cells, dims = 16, (4, 2)
    mesh = Mesh(cells)
    home = make_population(40, mesh, 1, x_range=(0, 4), y_range=(0, 8))
    wide = make_population(25, mesh, 2, x_range=(8, 12), y_range=y_range)
    via = make_population(30, mesh, 3, x_range=(4, 8), y_range=(0, 8))
    placed = {0: ParticleArray.concatenate([home, wide]), 2: via}
    pooled, legacy = (
        run_exchange_spmd(cells, dims, {r: p.copy() for r, p in placed.items()}, ex)
        for ex in (exchange_particles, exchange_particles_legacy)
    )
    assert_same_simulation(pooled, legacy)
    assert_same_particles(pooled.returns[0], home)
    assert_same_particles(pooled.returns[2], via)
    assert_same_particles(pooled.returns[owner], wide)
    settled = run_exchange_spmd(cells, dims, {0: home, 2: via, owner: wide})
    assert pooled.collectives == settled.collectives + 1  # one extra round


# ----------------------------------------------------------------------
# Differential: simulated quantities pinned at the parent commit
# ----------------------------------------------------------------------
PINNED_SPEC = PICSpec(
    cells=32, n_particles=1500, steps=10, k=4, m_vertical=1, r=0.9, seed=5
)
#: impl -> (factory, total_time, messages, bytes, collectives, allreduces/step).
#: 2k+1 = 9 cells per step exceeds the 8-cell block width, so every step
#: needs two settlement rounds; the last step adds the 4 verify allreduces.
PINNED = {
    "mpi-2d": (
        lambda **kw: Mpi2dPIC(PINNED_SPEC, 8, **kw),
        "0x1.eac4a6daed19bp-11", 640, 1559096, 25,
        [2, 2, 2, 2, 2, 2, 2, 2, 2, 6],
    ),
    "mpi-2d-LB": (
        lambda **kw: Mpi2dLbPIC(PINNED_SPEC, 8, lb_interval=2, border_width=1, **kw),
        "0x1.0433965a74ec6p-10", 880, 1622864, 62,
        [2, 4, 2, 4, 2, 4, 2, 4, 2, 8],
    ),
    "ampi": (
        lambda **kw: AmpiPIC(PINNED_SPEC, 4, overdecomposition=2, lb_interval=3, **kw),
        "0x1.f43019f76d9fap-10", 640, 1559096, 28,
        [2, 2, 2, 2, 2, 2, 2, 2, 2, 6],
    ),
}


@pytest.mark.parametrize("impl", sorted(PINNED))
def test_simulated_quantities_match_parent_commit(impl):
    make, total_time, messages, nbytes, collectives, per_step = PINNED[impl]
    tracer = Tracer()
    res = make(span_tracer=tracer).run()
    assert res.verification.ok
    assert res.total_time == float.fromhex(total_time)
    # The closing verify allreduces synchronize every rank clock.
    assert res.rank_times == [res.total_time] * 8
    assert res.messages_sent == messages
    assert res.bytes_sent == nbytes
    assert res.collectives == collectives
    allreduces = Counter(
        s.step for s in tracer.spans if s.rank == 0 and s.name == "coll:allreduce"
    )
    assert [allreduces[t] for t in range(PINNED_SPEC.steps)] == per_step
