"""The particle exchange: routing every particle to its owning rank.

Particle exchange is the multi-hop x-then-y routing described in DESIGN.md:
each iteration forwards misplaced particles one processor column/row toward
their owner (periodic, shorter direction), then an allreduce checks global
settlement.  For the paper's workloads (``2k+1`` smaller than any block
width) a single iteration suffices, reproducing the baseline's
nearest-neighbor communication structure.

Two paths compute a round, with one range test (:func:`_outside`):

* per rank — :func:`exchange_particles` drives :func:`_route_axis` per
  hop, whose front half (:func:`hop_front_half`) finds and packs the
  rank's leavers.  It mutates the rank's :class:`ParticleArray` in place
  (``compact`` / ``extend_packed``): one range-test pass over the
  population per axis, then work on the leavers and arrivals only —
  index-based packing into fresh wire arrays, tail-fill compaction, an
  arrival-only settlement count;
* per wave — :func:`exchange_wave` settles the first round of a closed
  fused group (:mod:`repro.runtime.executor`) for every member at once,
  element for element what the per-rank path would compute, which stays
  its oracle.  A settled round is its counts (:class:`SettledWave`): one
  integer table — per hop each member's forward and backward leavers,
  arrivals and settlement count — plus where each post-round row comes
  from.  No particle is packed for it, and a round that leaves a stray
  stops at that hop.  The scheduler closes the step — the round and its
  settlement allreduce — for every member in one op
  (``Scheduler._close_step``), and the quiet steps after it too
  (``Scheduler._close_run``), the executor keeping the members' rows in
  one block between them; at the run's end each member takes its rows by
  one :func:`exchange_particles` call (``settled=``), which yields
  nothing.

The order of particles within a rank is therefore implementation-defined
(but deterministic).  None of this changes simulated time, message counts
or payload sizes: the golden-trace and differential suites pin that
exactly.  Both paths follow the leaver-only migration of Miller et al.
(arXiv:2003.10406).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.particles import STATE_FIELDS, record_nbytes
from repro.runtime.reduce_ops import SUM

if TYPE_CHECKING:
    from repro.core.mesh import Mesh
    from repro.core.particles import ParticleArray
    from repro.decomp.partition import BlockPartition
    from repro.runtime.cart import CartComm
    from repro.runtime.comm import Comm
    from repro.runtime.costmodel import CostModel

# Message tags of the particle-exchange protocol.
TAG_X_RIGHT = 101
TAG_X_LEFT = 102
TAG_Y_UP = 103
TAG_Y_DOWN = 104

#: A zero-particle wire buffer (read-only by convention).
EMPTY_WIRE = np.empty((0, STATE_FIELDS), dtype=np.float64)
_NO_ROWS = np.empty(0, dtype=np.int64)
#: The front half of a hop nobody leaves: no rows, nothing to send.
NO_LEAVERS = (_NO_ROWS, EMPTY_WIRE, EMPTY_WIRE)


class RankRoute:
    """One rank's exchange geometry, as a fusing executor reads it.

    ``bounds`` is ``(x lo, x hi, x index, px, y lo, y hi, y index, py)``:
    the rank's block ``[lo, hi)`` and its processor index and count along
    each axis.  ``splits`` holds the two axes' split vectors and
    ``sources`` the world ranks its ``(x bwd, x fwd, y bwd, y fwd)`` hops
    receive from (its own rank along an axis of one processor).  Ranks
    build one per partition and reuse it every step
    (:meth:`repro.parallel.base._RankState.route`).
    """

    __slots__ = ("bounds", "splits", "sources")

    def __init__(self, bounds, splits, sources) -> None:
        self.bounds = bounds
        self.splits = splits
        self.sources = sources


def _rank_route(partition: BlockPartition, cart: CartComm) -> RankRoute:
    """The rank's block, grid position and source neighbours per axis."""
    bounds = []
    sources = []
    for axis, splits in enumerate((partition.xsplits, partition.ysplits)):
        i = cart.coords[axis]
        bounds += [int(splits[i]), int(splits[i + 1]), i, cart.dims[axis]]
        sources += [cart.world_ranks[cart.shift(axis, d)[0]] for d in (1, -1)]
    return RankRoute(
        tuple(bounds), (partition.xsplits, partition.ysplits), tuple(sources)
    )


def _outside(v, lo, hi, mesh):
    """Rows of the coordinates ``v`` whose cell lies outside ``[lo, hi)``.

    ``lo`` and ``hi`` are one rank's bounds (scalars) or one per row
    (arrays: a wave's members).  Returns ``(rows, cells)``: ascending row
    indices and those rows' ``mesh.cell_of`` values.  Rows are flagged
    straight from positions, ``(v < lo) | (v >= hi)`` with ``v = coord /
    h`` — for ``v`` in ``[0, cells)`` exactly ``floor(v)`` outside ``[lo,
    hi)`` — so the floor, cast and periodic wrap run on the flagged rows
    only.  An out-of-domain value (the ``x == L`` rounding edge) is always
    flagged but may wrap to a cell inside the range, hence the re-test of
    the flagged rows' cells.  The bounds are small integers, so as float64
    or int64 they compare identically.
    """
    if mesh.h != 1.0:  # division by 1.0 is a bitwise no-op
        v = v / mesh.h
    out = v < lo
    out |= v >= hi
    rows = out.nonzero()[0]
    if not len(rows):
        return rows, rows
    cells = np.floor(v[rows]).astype(np.int64)
    np.mod(cells, mesh.cells, out=cells)
    if np.ndim(lo):
        lo, hi = lo[rows], hi[rows]
    off = (cells < lo) | (cells >= hi)
    if np.count_nonzero(off) != len(rows):
        rows, cells = rows[off], cells[off]
    return rows, cells


def _count_misplaced(mesh, x, y, x_range, y_range=None) -> int:
    """How many of the positions ``(x, y)`` lie outside the rank's block.

    A particle is misplaced iff its cell column is outside ``x_range`` or
    its cell row is outside ``y_range`` (not tested when ``None``) — exactly
    ``owner_rank != cart.rank`` for a Cartesian-product partition, without
    materializing per-particle owner indices.
    """
    bad, _ = _outside(x, *x_range, mesh)
    if y_range is not None:
        bad_y, _ = _outside(y, *y_range, mesh)
        if len(bad_y):
            bad = np.union1d(bad, bad_y)
    return len(bad)


# ----------------------------------------------------------------------
# Per rank
# ----------------------------------------------------------------------
def exchange_particles(
    comm: Comm,
    cart: CartComm,
    partition: BlockPartition,
    mesh: Mesh,
    particles: ParticleArray,
    cost: CostModel,
    *,
    settled=None,
):
    """Route particles to their owning rank (generator; returns the new set).

    Each iteration performs one hop of x routing (both directions) and one
    hop of y routing, then checks global settlement with an allreduce.
    Routing direction per particle is the shorter periodic way around.

    ``particles`` is mutated in place (tail-fill compact + extend into its
    pooled backing storage) and also returned, preserving the original
    return-the-new-set contract.  A hop makes one range-test pass over the
    population per axis; everything after it — owner lookup, packing,
    compaction, the settlement count — touches only the particles that
    leave or arrive.

    ``settled`` is this rank's six post-round fields after a run the
    scheduler closed for every rank at once (``Scheduler._close_run``),
    the executor's slices of one block: the rank takes them for its
    particles and routes nothing, and yields nothing.
    """
    if settled is not None:
        particles.adopt(settled)
        return particles
    my_px, my_py = cart.coords
    px, py = cart.px, cart.py
    x_range = partition.x_range(my_px)
    y_range = partition.y_range(my_py)
    while True:
        # Residents a hop keeps are proven on-block along its axis, so only
        # arrivals can be misplaced: the x hop's on x, the y hop's on both.
        stray_x = misplaced = 0
        if px > 1:
            stray_x = yield from _route_axis(
                comm, cart, particles, mesh, cost,
                splits=partition.xsplits, my_index=my_px, n_index=px,
                axis=0, tag_fwd=TAG_X_RIGHT, tag_bwd=TAG_X_LEFT,
                ranges=(x_range,),
            )
        if py > 1:
            misplaced = yield from _route_axis(
                comm, cart, particles, mesh, cost,
                splits=partition.ysplits, my_index=my_py, n_index=py,
                axis=1, tag_fwd=TAG_Y_UP, tag_bwd=TAG_Y_DOWN,
                ranges=(x_range, y_range),
            )
        if stray_x:
            # Multi-hop case: an x arrival is still off-block and may or may
            # not have left again along y — recount the whole population.
            misplaced = _count_misplaced(
                mesh, particles.x, particles.y, x_range, y_range
            )
        total = yield comm.allreduce(misplaced, op=SUM)
        if total == 0:
            return particles


def hop_front_half(particles, mesh, *, splits, my_index, n_index, axis, rng):
    """Find and pack one rank's leavers along one axis.

    Returns ``(leavers, fwd_buf, bwd_buf)``: the ascending rows whose cell
    lies outside ``rng``, and those owned forward and backward (the
    shorter periodic way) packed, in row order, into one fresh wire block
    (``fwd_buf`` its head, ``bwd_buf`` its tail), so a buffer stays valid
    however long its message is in flight.  With :func:`_route_axis`'s back
    half this is the per-rank path and the oracle of :func:`exchange_wave`,
    which settles a closed fused group's whole first round at once.  It
    serves everything the wave does not: the process executor, in-place
    tasks, groups that are too small, too big or not closed, rounds >= 2
    and LB exchanges.
    """
    if not len(particles):
        return NO_LEAVERS
    leavers, cells = _outside(particles.x if axis == 0 else particles.y, *rng, mesh)
    if not len(leavers):
        return NO_LEAVERS
    # Owner index and the shorter periodic direction, for the leavers only
    # (an off-block particle never has dist == 0).
    owner = splits.searchsorted(cells, "right") - 1
    go_fwd = (owner - my_index) % n_index <= n_index // 2
    fwd, bwd = leavers[go_fwd], leavers[~go_fwd]
    wire = np.empty((len(leavers), STATE_FIELDS), dtype=np.float64)
    fwd_buf = bwd_buf = EMPTY_WIRE
    if len(fwd):
        fwd_buf = particles.pack_into(fwd, wire)
    if len(bwd):
        bwd_buf = particles.pack_into(bwd, wire[len(fwd):])
    return leavers, fwd_buf, bwd_buf


def _route_axis(
    comm, cart, particles, mesh, cost,
    *, splits, my_index, n_index, axis, tag_fwd, tag_bwd, ranges,
):
    """One forwarding hop along one axis (generator), in place.

    ``ranges`` is the rank's ``(x_range,)`` for the x hop and ``(x_range,
    y_range)`` for the y hop.  :func:`hop_front_half` finds and packs the
    leavers; the back half — compaction, arrivals, the count — runs here.
    Returns how many *arrivals* lie outside any of the ranges — kept
    residents cannot.  The sequence of simulated events — pack compute,
    the two sendrecvs, unpack compute — and their costs and payload sizes
    are identical to the historical copy-based hop (a payload is priced by
    :func:`record_nbytes`, not by its 6-column buffer); the order of
    particles within the rank is not (tail-fill compaction).  ``Scheduler._close_step`` runs this op template for a
    whole settled wave (``_clock_own_cores``, a core per member, and
    ``_replay_shared_cores``, members sharing cores): change both or
    neither.
    """
    leavers, fwd_buf, bwd_buf = hop_front_half(
        particles, mesh, splits=splits, my_index=my_index,
        n_index=n_index, axis=axis, rng=ranges[axis],
    )
    n_fwd, n_bwd = len(fwd_buf), len(bwd_buf)
    if n_fwd + n_bwd:
        yield comm.compute(cost.pack_time(n_fwd + n_bwd))

    src_bwd, dst_fwd = cart.shift(axis, 1)
    src_fwd, dst_bwd = cart.shift(axis, -1)
    from_bwd = yield comm.sendrecv(
        fwd_buf, dst=dst_fwd, src=src_bwd, sendtag=tag_fwd, recvtag=tag_fwd,
        nbytes=cost.particle_wire_bytes(record_nbytes(n_fwd)),
    )
    from_fwd = yield comm.sendrecv(
        bwd_buf, dst=dst_bwd, src=src_fwd, sendtag=tag_bwd, recvtag=tag_bwd,
        nbytes=cost.particle_wire_bytes(record_nbytes(n_bwd)),
    )

    n_in = len(from_bwd) + len(from_fwd)
    if n_in:
        yield comm.compute(cost.pack_time(n_in))
    if len(leavers):
        particles.compact(drop=leavers)
    if not n_in:
        return 0
    n_kept = len(particles)
    particles.extend_packed(from_bwd)
    particles.extend_packed(from_fwd)
    return _count_misplaced(
        mesh, particles.x[n_kept:], particles.y[n_kept:], *ranges
    )


# ----------------------------------------------------------------------
# Per wave
# ----------------------------------------------------------------------
def _ranges(starts, lengths):
    """``concatenate([arange(s, s + l) for s, l in zip(starts, lengths)])``."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1])


def _settle_hop(v, counts, starts, lo, hi, index, n_index, owners,
                src_bwd, src_fwd, mesh):
    """One hop of a closed group's round: what every member's
    ``_route_axis`` does to its population, for all members at once.

    ``v`` holds the members' coordinates along the axis, laid out by
    ``starts`` and ``counts``; the other arguments are per member: its
    block ``[lo, hi)``, processor index and count, and the members its two
    directions receive from (``src_bwd``, ``src_fwd``; each a permutation
    of the group).  ``owners`` is the axis' ``(distinct, sid)`` from
    :func:`wave_geometry`: the distinct split vectors and, unless there is
    one, each member's index in them.  Returns ``(perm, counts, starts,
    moved, seglen, arrivals, recv)``, or None when nobody leaves:
    ``perm[p]`` is the pre-hop row of post-hop row ``p``; the post-hop
    layout's counts and starts; the leavers' pre-hop rows grouped by
    (member, forward then backward) — the hop's ``2 M`` segments — and
    the segment sizes; each member's arrivals and, in segment order, each
    leaver's receiving member.
    """
    rows, cells = _outside(v, np.repeat(lo.astype(np.float64), counts),
                           np.repeat(hi.astype(np.float64), counts), mesh)
    if not len(rows):
        return None
    mem = starts.searchsorted(rows, "right") - 1
    # Owners by one searchsorted over every distinct split vector (members
    # may hold different, LB-shifted ones), each shifted into its own key
    # range so a search cannot leave it.
    distinct, sid = owners
    if sid is None:
        owner = distinct[0].searchsorted(cells, "right") - 1
    else:
        stride = mesh.cells + 1
        sid = sid[mem]
        sizes = [len(s) for s in distinct]
        keys = np.concatenate(distinct) + np.repeat(
            np.arange(0, len(distinct) * stride, stride), sizes
        )
        first = np.cumsum(sizes) - sizes
        owner = keys.searchsorted(sid * stride + cells, "right") - first[sid] - 1
    # The shorter periodic way (an off-block particle never has distance 0).
    bwd = (owner - index[mem]) % n_index[mem] > n_index[mem] // 2
    seg = 2 * mem + bwd
    m = len(counts)
    seglen = np.bincount(seg, minlength=2 * m)
    gone = np.bincount(mem, minlength=m)
    keep = counts - gone
    # Tail-fill, as ParticleArray.compact(drop=): the holes below a
    # member's new length take its surviving tail rows in ascending order.
    # Holes and fill rows both ascend member by member, equally many per
    # member, so they pair up in order.
    local = rows - starts[mem]
    hole = local < keep[mem]
    tail = _ranges(starts + keep, gone)
    at = np.minimum(rows.searchsorted(tail), len(rows) - 1)
    fill = tail[rows[at] != tail]
    # Then the arrivals: the bwd source's forward segment, the fwd source's
    # backward one.
    a_bwd = seglen[2 * src_bwd]
    arrivals = a_bwd + seglen[2 * src_fwd + 1]
    new_counts = keep + arrivals
    new_starts = np.cumsum(new_counts) - new_counts
    perm = np.repeat(starts - new_starts, new_counts)
    perm += np.arange(len(perm))
    perm[new_starts[mem[hole]] + local[hole]] = fill
    moved = rows[seg.argsort(kind="stable")]
    at_seg = np.empty(2 * m, dtype=np.int64)
    at_seg[2 * src_bwd] = new_starts + keep
    at_seg[2 * src_fwd + 1] = new_starts + keep + a_bwd
    perm[_ranges(at_seg, seglen)] = moved
    recv = np.empty(2 * m, dtype=np.int64)
    recv[2 * src_bwd] = np.arange(m)
    recv[2 * src_fwd + 1] = np.arange(m)
    return perm, new_counts, new_starts, moved, seglen, arrivals, np.repeat(recv, seglen)


def exchange_wave(stage, counts, ranks, routes, mesh, sources, bounds,
                  owners) -> SettledWave:
    """The first exchange round of a closed fused group, for every member
    at once, as a :class:`SettledWave`.

    ``stage`` holds the group's pushed x, y, vx, vy and q rows and, viewed
    as int64, its pid row, members in order; ``counts`` gives their sizes,
    ``ranks`` their world ranks, ``routes`` their :class:`RankRoute`, and
    ``sources``, ``bounds`` and ``owners`` the group's
    :func:`wave_geometry`.  The whole round runs as the per-rank path
    would run it: the x hop, the y hop on the post-x populations, the
    tail-fill and arrival order of ``compact(drop=)`` and
    ``extend_packed``.  Each member's row of the wave's table holds, per
    hop, the lengths of the two buffers :func:`hop_front_half` would pack
    for it, its arrivals and the count its ``_route_axis`` returns; the
    settlement count reads the arrivals' coordinates from the stage.  No
    particle moves: the wave holds the stage row of every post-round row
    (:meth:`SettledWave.gather` makes the block).  A hop whose count shows
    a stray ends the round there — its members run the round per rank —
    so a stray wave's later hops read zeros.
    """
    m = len(routes)
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    n = int(starts[-1] + counts[-1])
    layout = None  # the stage row of every current row; None: the identity
    cnt, st = counts, starts
    table = np.zeros((m, 8), dtype=np.int64)
    for axis in (0, 1):
        lo, hi, index, n_index = bounds[4 * axis : 4 * axis + 4]
        if n_index[0] == 1:
            continue
        v = stage[axis, :n] if layout is None else stage[axis][layout]
        hop = _settle_hop(
            v, cnt, st, lo, hi, index, n_index, owners[axis],
            sources[:, 2 * axis], sources[:, 2 * axis + 1], mesh,
        )
        if hop is None:
            continue
        perm, cnt, st, moved, seglen, arrivals, recv = hop
        if layout is not None:
            moved = layout[moved]
        layout = perm if layout is None else layout[perm]
        # The settlement count on the arrivals: off the receiver's x block,
        # and for the y hop off its y block too.
        bad = np.zeros(len(recv), dtype=bool)
        for ax in range(axis + 1):
            lo, hi = bounds[4 * ax][recv], bounds[4 * ax + 1][recv]
            bad[_outside(stage[ax][moved], lo, hi, mesh)[0]] = True
        row = table[:, 4 * axis : 4 * axis + 4]
        row[:, :2] = seglen.reshape(m, 2)
        row[:, 2] = arrivals
        row[:, 3] = np.bincount(recv[bad], minlength=m)
        if bad.any():
            break
    return SettledWave(ranks, sources, routes[0].bounds[3::4], table, n, cnt, st,
                       layout)


def wave_geometry(ranks, routes):
    """A fused group's ``(sources, bounds, owners)`` for
    :func:`exchange_wave`, or None unless every member is routed on one
    processor grid and every source is a member.

    ``sources`` (``(M, 4)``) is the member each member's x-bwd, x-fwd,
    y-bwd and y-fwd hop receives from; ``bounds`` the routes' bounds as
    an ``(8, M)`` int64 array; ``owners`` per axis ``(distinct, sid)``:
    the distinct split vectors the members hold (LB may leave them
    different ones) and each member's index in that list, or None when
    there is one.  A periodic shift is a bijection of the grid's ranks, so
    in a group closed this way each column of ``sources`` is a permutation
    of the members.
    """
    if None in routes or len({r.bounds[3::4] for r in routes}) != 1:
        return None
    where = np.full(max(ranks) + 1, -1)
    where[ranks] = np.arange(len(ranks))
    src = np.array([r.sources for r in routes])
    if src.max() >= len(where):
        return None
    src = where[src]
    if (src < 0).any():
        return None
    owners = []
    for axis in (0, 1):
        ids: dict[int, int] = {}  # the routes hold the vectors: ids stay theirs
        distinct = []
        for r in routes:
            s = r.splits[axis]
            if ids.setdefault(id(s), len(distinct)) == len(distinct):
                distinct.append(s)
        sid = None
        if len(distinct) > 1:
            sid = np.array([ids[id(r.splits[axis])] for r in routes])
        owners.append((distinct, sid))
    return src, np.array([r.bounds for r in routes], dtype=np.int64).T, owners


class SettledWave:
    """A closed fused group's first exchange round as the executor settled
    it (:func:`exchange_wave`): its counts, and where its rows go.

    ``ranks`` lists the members' world ranks in park order, ``sources``
    is :func:`wave_geometry`'s ``(M, 4)`` array and ``dims`` the
    processor grid ``(px, py)``.  ``table`` (``(M, 8)`` int64) holds per
    member, for the x hop then the y hop, its forward leavers, backward
    leavers, arrivals and the count its :func:`_route_axis` returns (stray
    x arrivals, misplaced y arrivals); a hop that does not run, that
    nobody leaves or that follows a stray reads zeros.  ``counts`` and
    ``starts`` lay the ``n`` post-round rows out member by member, and
    ``layout`` names the stage row of each (None: the stage's own order).
    The round's timing needs nothing else: the scheduler closes the step
    for every member from the table (``Scheduler._close_step``).
    """

    __slots__ = ("ranks", "sources", "dims", "table", "n", "counts", "starts",
                 "layout")

    def __init__(self, ranks, sources, dims, table, n, counts, starts,
                 layout) -> None:
        self.ranks = ranks
        self.sources = sources
        self.dims = dims
        self.table = table
        self.n = n
        self.counts = counts
        self.starts = starts
        self.layout = layout

    @property
    def stray(self) -> bool:
        """Whether an arrival landed off its block: the round needs a
        second one, which the members run per rank."""
        return bool(self.table[:, 3::4].any())

    def gather(self, stage, out=None) -> np.ndarray:
        """The post-round rows of ``stage`` (all six), as a fresh block or
        into ``out`` (``(6, n)``, not ``stage``)."""
        if self.layout is None:
            if out is None:
                return stage[:, : self.n].copy()
            np.copyto(out, stage[:, : self.n])
            return out
        # "clip" leaves valid indices alone and lets take write into out
        # without a temporary.
        return np.take(stage, self.layout, axis=1, out=out, mode="clip")

    def columns(self, block) -> list:
        """Each member's six fields, slices of ``block`` laid out by
        :attr:`counts` (the pid row viewed as int64)."""
        x, y, vx, vy, q, pid = block
        pid = pid.view(np.int64)
        out = []
        for a, k in zip(self.starts.tolist(), self.counts.tolist()):
            rows = slice(a, a + k)  # slicing 1-D rows is ~3x cheaper than 2-D
            out.append((x[rows], y[rows], vx[rows], vy[rows], q[rows], pid[rows]))
        return out
