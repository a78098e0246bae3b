"""The seed's particle exchange, kept verbatim as a differential oracle.

Test support for ``test_exchange_pooling.py``: the pooled, O(leavers)
:func:`repro.parallel.base.exchange_particles` must deliver the same
particles, simulated clocks, traffic and settlement rounds as this
pipeline, which allocates fresh select/pack/concatenate arrays for the
full population on every routing hop.

These functions are verbatim ports of the seed implementation (commit
"PR 1") modulo renames, moved here unchanged from the former
``repro.bench.legacy``, and must stay behaviourally identical to the
seed.  Do not optimise them.  The one port since: particles pack to six
columns now, and each payload is charged the seed's 11 doubles per
particle, counted here from ``PARTICLE_RECORD_FIELDS`` rather than through
the code under test.
"""

from __future__ import annotations

import numpy as np

from repro.core.mesh import Mesh
from repro.constants import PARTICLE_RECORD_FIELDS
from repro.core.particles import ParticleArray
from repro.decomp.partition import BlockPartition
from repro.parallel.base import (
    TAG_X_LEFT,
    TAG_X_RIGHT,
    TAG_Y_DOWN,
    TAG_Y_UP,
)
from repro.runtime.cart import CartComm
from repro.runtime.comm import Comm
from repro.runtime.costmodel import CostModel
from repro.runtime.reduce_ops import SUM

#: Shared zero-particle wire buffer (read-only by convention).
_EMPTY_BUF = ParticleArray.empty(0).pack()


def _seed_nbytes(buf: np.ndarray) -> int:
    """The seed's payload size: 11 float64 per particle."""
    return len(buf) * PARTICLE_RECORD_FIELDS * 8


def exchange_particles_legacy(
    comm: Comm,
    cart: CartComm,
    partition: BlockPartition,
    mesh: Mesh,
    particles: ParticleArray,
    cost: CostModel,
    scratch=None,
):
    """The seed's particle router: fresh allocations on every hop.

    Accepts (and ignores) ``scratch`` so it can stand in for the optimised
    :func:`repro.parallel.base.exchange_particles`.
    """
    my_px, my_py = cart.coords
    px, py = cart.px, cart.py
    while True:
        if px > 1:
            particles = yield from _route_axis_legacy(
                comm, cart, particles, mesh, cost,
                owner_of=partition.x_owner,
                coord_of=lambda p: p.cell_columns(mesh),
                my_index=my_px, n_index=px, axis=0,
                tag_fwd=TAG_X_RIGHT, tag_bwd=TAG_X_LEFT,
            )
        if py > 1:
            particles = yield from _route_axis_legacy(
                comm, cart, particles, mesh, cost,
                owner_of=partition.y_owner,
                coord_of=lambda p: p.cell_rows(mesh),
                my_index=my_py, n_index=py, axis=1,
                tag_fwd=TAG_Y_UP, tag_bwd=TAG_Y_DOWN,
            )
        misplaced = _count_misplaced_legacy(cart, partition, mesh, particles)
        total = yield comm.allreduce(misplaced, op=SUM)
        if total == 0:
            return particles


def _count_misplaced_legacy(cart, partition, mesh, particles) -> int:
    if len(particles) == 0:
        return 0
    owner = partition.owner_rank(
        particles.cell_columns(mesh), particles.cell_rows(mesh)
    )
    return int(np.count_nonzero(owner != cart.rank))


def _route_axis_legacy(
    comm, cart, particles, mesh, cost,
    *, owner_of, coord_of, my_index, n_index, axis, tag_fwd, tag_bwd,
):
    """One forwarding hop along one axis (generator; returns particle set)."""
    n_fwd = n_bwd = 0
    if len(particles):
        owner = owner_of(coord_of(particles))
        dist = (owner - my_index) % n_index
        go_fwd = (dist > 0) & (dist <= n_index // 2)
        go_bwd = dist > n_index // 2
        n_fwd = int(np.count_nonzero(go_fwd))
        n_bwd = int(np.count_nonzero(go_bwd))

    fwd_buf = particles.pack(go_fwd) if n_fwd else _EMPTY_BUF
    bwd_buf = particles.pack(go_bwd) if n_bwd else _EMPTY_BUF
    n_out = n_fwd + n_bwd
    if n_out:
        yield comm.compute(cost.pack_time(n_out))

    src_bwd, dst_fwd = cart.shift(axis, 1)
    src_fwd, dst_bwd = cart.shift(axis, -1)
    from_bwd = yield comm.sendrecv(
        fwd_buf, dst=dst_fwd, src=src_bwd, sendtag=tag_fwd, recvtag=tag_fwd,
        nbytes=cost.particle_wire_bytes(_seed_nbytes(fwd_buf)),
    )
    from_fwd = yield comm.sendrecv(
        bwd_buf, dst=dst_bwd, src=src_fwd, sendtag=tag_bwd, recvtag=tag_bwd,
        nbytes=cost.particle_wire_bytes(_seed_nbytes(bwd_buf)),
    )

    n_in = len(from_bwd) + len(from_fwd)
    if n_in == 0:
        if n_out == 0:
            return particles
        return particles.select(~(go_fwd | go_bwd))
    yield comm.compute(cost.pack_time(n_in))
    kept = particles.select(~(go_fwd | go_bwd)) if n_out else particles
    parts = [kept]
    if len(from_bwd):
        parts.append(ParticleArray.from_packed(from_bwd))
    if len(from_fwd):
        parts.append(ParticleArray.from_packed(from_fwd))
    return ParticleArray.concatenate(parts)
