"""Equivalence of the pooled ``ParticleArray`` storage with the legacy ops.

The zero-churn hot path replaced select/append/pack/from_packed (fresh
allocations every call) with in-place compact/extend/pack_into/extend_packed
over a capacity-managed backing store.  These property tests pin the
contract the exchange and event paths rely on: for *any* population and
*any* mask, the pooled operations produce element-for-element (and
dtype-for-dtype) the same particles as the legacy ones — including the
int64 ``pid``'s value round-trip through the float64 wire format.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.particles import STATE_FIELDS, ParticleArray

_FIELDS = ("x", "y", "vx", "vy", "q", "pid")
_INT_FIELDS = ("pid",)


def random_particles(n: int, seed: int) -> ParticleArray:
    """A population with non-trivial values in every field.

    The int64 ``pid`` gets values up to 2**52 — within the float64-exact integer
    range the wire format guarantees, and far beyond what int32 could hold.
    """
    rng = np.random.default_rng(seed)
    p = ParticleArray.empty(n)
    for name in _FIELDS:
        if name in _INT_FIELDS:
            getattr(p, name)[:] = rng.integers(-(2**52), 2**52, size=n)
        else:
            getattr(p, name)[:] = rng.normal(scale=100.0, size=n)
    return p


def assert_same(a: ParticleArray, b: ParticleArray) -> None:
    assert len(a) == len(b)
    for name in _FIELDS:
        fa, fb = getattr(a, name), getattr(b, name)
        assert fa.dtype == fb.dtype, name
        np.testing.assert_array_equal(fa, fb, err_msg=name)


pop = st.integers(0, 200)
seeds = st.integers(0, 2**31)


@given(n=pop, seed=seeds, mask_seed=seeds)
@settings(max_examples=60, deadline=None)
def test_compact_equals_select(n, seed, mask_seed):
    p_new = random_particles(n, seed)
    p_old = random_particles(n, seed)
    keep = np.random.default_rng(mask_seed).integers(0, 2, size=n).astype(bool)
    expected = p_old.select(keep)
    p_new.compact(keep)
    assert_same(p_new, expected)


@given(n=pop, m=pop, seed=seeds)
@settings(max_examples=60, deadline=None)
def test_extend_equals_append(n, m, seed):
    p_new = random_particles(n, seed)
    other = random_particles(m, seed + 1)
    expected = random_particles(n, seed).append(other)
    p_new.extend(other)
    assert_same(p_new, expected)


@given(n=pop, seed=seeds, mask_seed=seeds, headroom=st.integers(0, 50))
@settings(max_examples=60, deadline=None)
def test_pack_into_equals_pack(n, seed, mask_seed, headroom):
    p = random_particles(n, seed)
    mask = np.random.default_rng(mask_seed).integers(0, 2, size=n).astype(bool)
    k = int(np.count_nonzero(mask))
    out = np.full((k + headroom, STATE_FIELDS), np.nan)
    got = p.pack_into(mask, out)
    expected = p.pack(mask)
    assert got.shape == expected.shape
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
    assert got.base is out or got is out  # a view of the caller's buffer


@given(n=pop, m=pop, seed=seeds)
@settings(max_examples=60, deadline=None)
def test_extend_packed_equals_from_packed_roundtrip(n, m, seed):
    p_new = random_particles(n, seed)
    wire = random_particles(m, seed + 1).pack()
    expected = random_particles(n, seed).append(ParticleArray.from_packed(wire))
    p_new.extend_packed(wire)
    assert_same(p_new, expected)
    # Int64 values survive the float64 wire format exactly.
    for name in _INT_FIELDS:
        assert getattr(p_new, name).dtype == np.int64


@given(n=pop, seed=seeds, mask_seed=seeds, m=pop)
@settings(max_examples=40, deadline=None)
def test_compact_then_extend_chain(n, seed, mask_seed, m):
    """The exchange's per-hop sequence: compact survivors, extend arrivals."""
    p_new = random_particles(n, seed)
    keep = np.random.default_rng(mask_seed).integers(0, 2, size=n).astype(bool)
    arrivals = random_particles(m, seed + 2)
    expected = random_particles(n, seed).select(keep).append(arrivals)
    p_new.compact(keep)
    p_new.extend(arrivals)
    assert_same(p_new, expected)


def test_reserve_is_amortized():
    p = ParticleArray.empty(4)
    grows = 0
    last_cap = p.capacity
    for _ in range(200):
        p.extend(random_particles(3, 1))
        if p.capacity != last_cap:
            grows += 1
            assert p.capacity >= 2 * last_cap or last_cap < 16
            last_cap = p.capacity
    assert len(p) == 4 + 600
    assert grows <= 10  # doubling: O(log n) reallocations, not O(n)


def test_compact_all_survivors_is_noop():
    p = random_particles(50, 9)
    backing = [getattr(p, name) for name in _FIELDS]
    p.compact(np.ones(50, dtype=bool))
    for name, arr in zip(_FIELDS, backing):
        assert getattr(p, name) is arr  # no copy, no new views


def test_extend_within_capacity_does_not_reallocate():
    p = random_particles(10, 3)
    p.reserve(1000)
    store_before = list(p._backing())
    p.extend(random_particles(500, 4))
    assert [a is b for a, b in zip(store_before, p._backing())] == [True] * len(_FIELDS)


def test_concatenate_single_part_fast_path():
    p = random_particles(20, 5)
    assert ParticleArray.concatenate([p], copy=False) is p
    copied = ParticleArray.concatenate([p], copy=True)
    assert copied is not p
    assert_same(copied, p)
    # Empty inputs are dropped before the single-survivor check.
    assert ParticleArray.concatenate([ParticleArray.empty(0), p], copy=False) is p


def test_pack_into_rejects_undersized_buffer():
    p = random_particles(8, 6)
    out = np.empty((4, STATE_FIELDS))
    try:
        p.pack_into(np.ones(8, dtype=bool), out)
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError for undersized wire buffer")


# ----------------------------------------------------------------------
# Tail-fill compaction: compact(drop=sorted_idx)
# ----------------------------------------------------------------------
def by_row(p: ParticleArray) -> ParticleArray:
    """``p`` with its rows in lexicographic order (multiset comparison)."""
    return p.select(np.lexsort([getattr(p, name) for name in reversed(_FIELDS)]))


def drop_mask(n: int, mask_seed: int, density: float, tail: int) -> np.ndarray:
    """Random drop mask; the last ``tail`` rows are always dropped, so holes
    reach into the region the fill rows come from."""
    mask = np.random.default_rng(mask_seed).random(n) < density
    mask[n - min(tail, n):] = True
    return mask


densities = st.sampled_from([0.0, 0.07, 0.5, 0.93, 1.0])
tails = st.integers(0, 8)


@given(n=pop, seed=seeds, mask_seed=seeds, density=densities, tail=tails)
@settings(max_examples=120, deadline=None)
def test_compact_drop_keeps_the_multiset_of_select(n, seed, mask_seed, density, tail):
    p = random_particles(n, seed)
    p.reserve(n + 7)  # a real backing store with headroom
    mask = drop_mask(n, mask_seed, density, tail)
    expected = random_particles(n, seed).select(~mask)
    store, cap = list(p._backing()), p.capacity
    p.compact(drop=np.flatnonzero(mask))
    assert_same(by_row(p), by_row(expected))  # all 6 fields, dtypes included
    assert p.capacity == cap
    assert all(a is b for a, b in zip(store, p._backing()))  # not reallocated
    # Rows below the new length that were not dropped never move.
    stay = np.flatnonzero(~mask[: len(p)])
    assert_same(p.select(stay), random_particles(n, seed).select(stay))


@given(n=pop, seed=seeds, mask_seed=seeds, density=densities, tail=tails, m=pop)
@settings(max_examples=80, deadline=None)
def test_compact_drop_then_extend_packed(n, seed, mask_seed, density, tail, m):
    """The exchange's per-hop sequence: drop the leavers, append the arrivals."""
    mask = drop_mask(n, mask_seed, density, tail)
    wire = random_particles(m, seed + 2).pack()
    expected = random_particles(n, seed).select(~mask).append(
        ParticleArray.from_packed(wire)
    )
    p, twin = random_particles(n, seed), random_particles(n, seed)
    for q in (p, twin):
        q.compact(drop=np.flatnonzero(mask))
        q.extend_packed(wire)
    assert_same(by_row(p), by_row(expected))
    assert_same(p, twin)  # unstable, but the same order every time
    # Arrivals land after the survivors, in wire order.
    assert_same(p.select(np.arange(len(p) - m, len(p))), ParticleArray.from_packed(wire))


def test_compact_drop_edge_cases():
    p = random_particles(20, 11)
    views = [getattr(p, name) for name in _FIELDS]
    p.compact(drop=np.empty(0, dtype=np.intp))  # nothing dropped: a no-op
    assert all(getattr(p, name) is v for name, v in zip(_FIELDS, views))
    p.compact(drop=np.arange(15, 20))  # only tail rows: a pure truncation
    assert_same(p, random_particles(20, 11).select(np.arange(15)))
    p.compact(drop=[0, 14])  # a plain list; row 13 fills hole 0
    assert_same(p, random_particles(20, 11).select([13, *range(1, 13)]))
    p.compact(drop=np.arange(13))  # everything
    assert len(p) == 0 and p.capacity == 20
    p.extend_packed(random_particles(3, 12).pack())
    assert_same(p, random_particles(3, 12))


@pytest.mark.parametrize(
    "drop", [[3, 1], [1, 1], [2, 2, 5], [-1, 4], [4, 10], [10]],
    ids=["unsorted", "duplicate", "duplicate-hole", "negative", "past-end", "at-end"],
)
def test_compact_drop_rejects_bad_indices(drop):
    p = random_particles(10, 13)
    with pytest.raises(ValueError, match="strictly increasing"):
        p.compact(drop=np.array(drop))
    assert_same(p, random_particles(10, 13))  # rejected before any write
