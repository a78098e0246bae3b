"""The computational kernel of the PIC PRK (paper §III-B).

Each time step every particle interacts with the four fixed charges at the
corners of the mesh cell containing it (Fig. 1 right).  The total Coulomb
force yields the acceleration (``ke/m = 1``), and the particle state is
advanced with the second-order scheme of Eqs. 1-2:

    x(t+dt) = x(t) + v(t) dt + a(t) dt^2 / 2
    v(t+dt) = v(t) + a(t) dt

Numerical-exactness note
------------------------
The self-verification of §III-D relies on particles staying *exactly* on the
horizontal axis of symmetry of a cell row.  We therefore accumulate the four
corner contributions pairwise — (bottom-left + top-left) then (bottom-right +
top-right).  For a particle with relative ordinate exactly ``h/2`` the two
members of each pair are bitwise mirror images in y, so the vertical force
cancels *exactly* in IEEE-754 arithmetic, the vertical velocity never picks
up rounding noise, and the particle ordinate remains exact for any number of
steps.  (The horizontal component only needs to be accurate to round-off; the
verification tolerance is 1e-5.)

The fused push turns that cancellation into less work.  When ``ry == h/2``
bitwise, ``ry - h == -ry`` exactly (Sterbenz), so the squares of the two
y-offsets are the same double: corners (0,0) and (0,h) have the same ``r2``
and the same ``f``, as do (h,0) and (h,h).  Their x-forces are then the same
double, so ``f00x + f01x`` is ``fx + fx``; their y-forces are ``a`` and
``-a``, which sum to ``+0.0`` under round-to-nearest, so ``ay`` is ``+0.0``.
With ``ay == +0.0`` the y integrator is ``y + (vy*dt + 0.0)`` and
``vy + 0.0`` (the ``+ 0.0`` is kept: it turns a ``-0.0`` velocity into
``+0.0``, as the reference does).  A block whose every particle passes that
bitwise test therefore computes one corner per column, doubles its x-force
and skips the y-force work; a block with even one particle off the axis
runs all four corners.  This holds for finite corner forces and a finite
``0.5*dt*dt`` — every input the model defines.  The test is ``==`` on
purpose: relaxed to a tolerance, the branch would no longer be exact.

Fused hot path
--------------
:func:`advance` fuses the acceleration and the integrator around a reused
scratch workspace (:class:`KernelWorkspace`): every intermediate lives in a
preallocated buffer written with ``out=``, so a steady-state step performs
zero temporary allocations.  Every value is produced by the *same
IEEE-754 operation on the same operands* as in the readable reference
implementation (:func:`advance_reference`): arithmetic is deterministic per
operation, so supplying ``out=`` buffers, computing a square once for the
two corners that share it, skipping a multiplication by exactly 1.0 or
taking the parity of an integer-valued double without ``fmod`` cannot
change a single bit of the result, nor can adding one corner's x-force to
itself where it would add its bitwise twin or forming ``ry*ry`` once, as a
scalar, when every ``ry`` is ``h/2``; and in particular the pairwise
accumulation that §III-D's axis-of-symmetry exactness argument relies on is
preserved.  The test ``tests/core/test_kernel_fused.py`` pins the two paths
bitwise against each other.
"""

from __future__ import annotations

import numpy as np

from repro.core.mesh import Mesh
from repro.core.particles import ParticleArray


def _corner_force(dx, dy, qprod):
    """Coulomb force components of one corner charge.

    ``dx, dy`` are the displacement components from the corner to the
    particle; ``qprod`` is the product of corner charge and particle charge
    (positive product = repulsive force along ``(dx, dy)``).
    Returns ``(qprod * dx / r^3, qprod * dy / r^3)``.
    """
    r2 = dx * dx + dy * dy
    f_over_r = qprod / (r2 * np.sqrt(r2))
    return f_over_r * dx, f_over_r * dy


def compute_acceleration(
    mesh: Mesh,
    x: np.ndarray,
    y: np.ndarray,
    q: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Acceleration of particles at ``(x, y)`` with charges ``q``.

    Positions must already lie in ``[0, L)``.  Returns ``(ax, ay)``; since
    ``ke/m = 1`` the force numbers are accelerations directly.
    """
    h = mesh.h
    cx = np.floor(x / h)
    cy = np.floor(y / h)
    rx = x - cx * h
    ry = y - cy * h

    # Columns alternate +q/-q; positions lie in [0, L) so cx is already in
    # [0, cells) and the right corner cx+1 at most equals cells, whose parity
    # matches column 0 because the cell count is even.
    parity = cx.astype(np.int64) & 1
    q_left = np.where(parity == 0, mesh.q, -mesh.q)
    ql = q * q_left
    qr = -ql  # the right corners sit in the adjacent (opposite-sign) column

    # Accumulate pairwise per column: (0,0)+(0,h), then (h,0)+(h,h).  The
    # dy values ry and ry - h are exact mirrors when ry == h/2, so each
    # pair's y-forces cancel *bitwise* and particles stay exactly on the
    # cell's axis of symmetry.
    f00x, f00y = _corner_force(rx, ry, ql)
    f01x, f01y = _corner_force(rx, ry - h, ql)
    f10x, f10y = _corner_force(rx - h, ry, qr)
    f11x, f11y = _corner_force(rx - h, ry - h, qr)
    ax = (f00x + f01x) + (f10x + f11x)
    ay = (f00y + f01y) + (f10y + f11y)
    return ax, ay


#: Particles per cache block of the fused push.  The 14 scratch rows of one
#: block occupy ``14 * 16384 * 8 B ≈ 1.8 MB`` — sized to stay resident in a
#: per-core L2 cache, so the ufunc calls of a push (at h = dt = q = 1: 41
#: elementwise passes when every particle is on its row's axis, 63 when one
#: is not, plus three ``any`` reductions; 9 more passes when none of h, dt,
#: q is 1) read and write hot lines instead of streaming full-population
#: temporaries through DRAM.
#: Chunking an elementwise computation does not change a single result bit.
KERNEL_BLOCK = 16384


class KernelWorkspace:
    """Reused scratch buffers for the fused particle push.

    Holds one ``(rows, capacity)`` float64 block; :meth:`rows` returns
    length-``n`` row views.  Capacity is bounded by :data:`KERNEL_BLOCK`
    (the push iterates larger populations in cache-sized chunks), so the
    workspace is small, never shrunk, and a steady-state step loop
    allocates nothing.  The module keeps one shared instance —
    :func:`advance` never yields control mid-push, so a single workspace is
    safe for any number of simulated ranks interleaved by the scheduler.
    """

    N_ROWS = 14
    N_BOOL_ROWS = 2

    def __init__(self) -> None:
        self._block = np.empty((self.N_ROWS, 0), dtype=np.float64)
        self._bools = np.empty((self.N_BOOL_ROWS, 0), dtype=bool)

    def rows(self, n: int) -> list[np.ndarray]:
        if self._block.shape[1] < n:
            # Every row starts on a cache line: malloc promises 16 bytes, and
            # what a given heap happened to add was worth 10-20 % of the push.
            cap = -(-max(n, 2 * self._block.shape[1]) // 8) * 8
            raw = np.empty(self.N_ROWS * cap + 8, dtype=np.float64)
            raw = raw[(-raw.ctypes.data % 64) // 8:][: self.N_ROWS * cap]
            self._block = raw.reshape(self.N_ROWS, cap)
        return [self._block[i, :n] for i in range(self.N_ROWS)]

    def bool_rows(self, n: int) -> list[np.ndarray]:
        if self._bools.shape[1] < n:
            self._bools = np.empty(
                (self.N_BOOL_ROWS, max(n, 2 * self._bools.shape[1])), dtype=bool
            )
        return [self._bools[i, :n] for i in range(self.N_BOOL_ROWS)]


_WORKSPACE = KernelWorkspace()


def _parity_into(cell, out) -> None:
    """``out = np.mod(cell, 2.0)`` for integer-valued ``cell``, bit for bit.

    ``np.mod`` on doubles is a scalar ``fmod`` loop, ~30x the cost of any
    other pass of the push.  ``cell - 2*floor(cell/2)`` is exact instead:
    halving and doubling only move the exponent, ``floor`` is exact, and
    the difference of two integers at most 1 apart is representable — so it
    is ``+0.0`` or ``1.0``, as ``np.mod`` is, for negative columns too.
    """
    np.multiply(cell, 0.5, out=out)
    np.floor(out, out=out)
    np.multiply(out, 2.0, out=out)
    np.subtract(cell, out, out=out)


def _corner_force_into(dx, dy, dx2, dy2, qprod, r2, f, fx_out, fy_out) -> None:
    """:func:`_corner_force` with every intermediate written into scratch.

    Performs the identical op sequence — ``r2 = dx*dx + dy*dy``,
    ``f = qprod / (r2 * sqrt(r2))``, ``fx = f*dx``, ``fy = f*dy`` — so the
    results match the reference bitwise.  The squares ``dx2, dy2`` come in
    precomputed: each is shared by two corners, and a product of the same
    operands is the same bits whoever computes it.  ``fx_out``/``fy_out``
    may alias ``r2``/``f``, both dead by then.
    """
    _corner_fx_into(dx, dx2, dy2, qprod, r2, f, fx_out)
    np.multiply(f, dy, out=fy_out)


def _corner_fx_into(dx, dx2, dy2, qprod, r2, f, fx_out) -> None:
    """The x half of :func:`_corner_force_into`; ``f`` keeps ``qprod/r^3``."""
    np.add(dx2, dy2, out=r2)
    np.sqrt(r2, out=f)
    np.multiply(r2, f, out=f)
    np.divide(qprod, f, out=f)
    np.multiply(f, dx, out=fx_out)


def advance(
    mesh: Mesh,
    particles: ParticleArray,
    dt: float,
    workspace: KernelWorkspace | None = None,
) -> None:
    """Advance all particles one time step in place (Eqs. 1-2).

    Positions are wrapped back into the periodic domain after the update.
    Fused implementation: bitwise-identical to :func:`advance_reference`
    but allocation-free once the workspace is warm, and processed in
    :data:`KERNEL_BLOCK`-sized chunks so the scratch stays cache-resident.
    """
    advance_arrays(
        mesh, particles.x, particles.y, particles.vx, particles.vy,
        particles.q, dt, workspace=workspace,
    )


def advance_arrays(
    mesh: Mesh,
    x: np.ndarray,
    y: np.ndarray,
    vx: np.ndarray,
    vy: np.ndarray,
    q: np.ndarray,
    dt: float,
    workspace: KernelWorkspace | None = None,
) -> None:
    """Array-level push: :func:`advance` on bare field segments.

    The executor backends' entry point (:mod:`repro.runtime.executor`):
    it takes plain ndarrays instead of a :class:`ParticleArray`, so callers
    can drive it over *any* contiguous segment — a rank's slice, a fused
    concatenation of several ranks' slices, or a shared-memory view inside
    a worker process.  Re-entrant when each caller supplies its own
    ``workspace`` (worker processes must: the module singleton is only safe
    within one process because the push never yields).  All arguments are
    picklable (the mesh is a frozen dataclass of scalars), but workers
    rebuild views from shared-memory ``(segment, offset)`` locations
    rather than pickling arrays — see
    :func:`repro.runtime.executor._worker_main`.

    Chunking is per :data:`KERNEL_BLOCK` and elementwise, so segment
    boundaries never change a result bit.
    """
    n = len(x)
    if n == 0:
        return
    ws = workspace if workspace is not None else _WORKSPACE
    if n <= KERNEL_BLOCK:
        _advance_block(mesh, x, y, vx, vy, q, dt, ws)
        return
    for i in range(0, n, KERNEL_BLOCK):
        s = slice(i, min(i + KERNEL_BLOCK, n))
        _advance_block(mesh, x[s], y[s], vx[s], vy[s], q[s], dt, ws)


def _advance_block(mesh, x, y, vx, vy, q, dt, ws) -> None:
    """Fused push of one cache-sized block (mutates x/y/vx/vy in place)."""
    cell, sgn, rx, ry, rxm, rym, ql, qr, sy, sym, axl, ayl, t0, t1 = ws.rows(
        len(x)
    )
    # Rows are reused once dead: cell/sgn hold two of the squares after the
    # cell-relative positions and charges are formed, and the right column
    # accumulates into rx/ql, which only the left column's corners read.
    sxm, sx, ax, ay = cell, sgn, rx, ql
    h = mesh.h
    # Multiplying or dividing by 1.0 is a bitwise no-op, so the passes that
    # scale by h, dt or the mesh charge are skipped at the PRK's canonical 1.0.
    exact_h, unit_dt, unit_q = h == 1.0, dt == 1.0, mesh.q == 1.0

    # cx = floor(x / h); column parity decides the left-corner charge sign.
    if exact_h:
        np.floor(x, out=cell)
    else:
        np.divide(x, h, out=cell)
        np.floor(cell, out=cell)
    # q_left = where(cx odd, -q, +q) == (1 - 2*(cx mod 2)) * q: the parity
    # term is exactly 0.0 or 1.0, so the product is a bitwise sign flip.
    _parity_into(cell, sgn)
    np.multiply(sgn, -2.0, out=sgn)
    np.add(sgn, 1.0, out=sgn)
    if not unit_q:
        np.multiply(sgn, mesh.q, out=sgn)
    np.multiply(q, sgn, out=ql)
    np.negative(ql, out=qr)
    # rx = x - cx*h, ry = y - cy*h (cell-relative position).
    if not exact_h:
        np.multiply(cell, h, out=cell)
    np.subtract(x, cell, out=rx)
    if exact_h:
        np.floor(y, out=cell)
    else:
        np.divide(y, h, out=cell)
        np.floor(cell, out=cell)
        np.multiply(cell, h, out=cell)
    np.subtract(y, cell, out=ry)
    # The PRK keeps every particle on its row's axis (ry == h/2); a block
    # where that holds bitwise takes the one-corner branch below.
    esc, tmp = ws.bool_rows(len(x))
    half_h = 0.5 * h
    np.not_equal(ry, half_h, out=esc)
    on_axis = not esc.any()
    np.subtract(rx, h, out=rxm)
    np.multiply(rx, rx, out=sx)
    np.multiply(rxm, rxm, out=sxm)

    if on_axis:
        # Each column's two corners are bitwise twins (see the exactness
        # note above): one corner's x-force, doubled, and no y-force work —
        # ``ay`` is +0.0 for every particle.  Every ``ry*ry`` is the one
        # product ``half_h * half_h``, so it is formed once, as a scalar.
        sy_axis = half_h * half_h
        _corner_fx_into(rx, sx, sy_axis, ql, t0, t1, axl)
        _corner_fx_into(rxm, sxm, sy_axis, qr, t0, t1, ax)
        np.add(axl, axl, out=axl)
        np.add(ax, ax, out=ax)
        ay = None
    else:
        # Pairwise per-column accumulation (see the exactness note above):
        # (0,0)+(0,h) into (axl, ayl), then (h,0)+(h,h) into (ax, ay).
        np.subtract(ry, h, out=rym)
        np.multiply(ry, ry, out=sy)
        np.multiply(rym, rym, out=sym)
        _corner_force_into(rx, ry, sx, sy, ql, t0, t1, axl, ayl)
        _corner_force_into(rx, rym, sx, sym, ql, t0, t1, t0, t1)
        np.add(axl, t0, out=axl)
        np.add(ayl, t1, out=ayl)
        _corner_force_into(rxm, ry, sxm, sy, qr, t0, t1, ax, ay)
        _corner_force_into(rxm, rym, sxm, sym, qr, t0, t1, t0, t1)
        np.add(ax, t0, out=ax)
        np.add(ay, t1, out=ay)
        np.add(ayl, ay, out=ay)
    np.add(axl, ax, out=ax)

    # Integrator (Eqs. 1-2), same per-element op order as the reference,
    # then the periodic wrap.  ``np.mod(v, L)`` returns ``v`` bit-for-bit
    # whenever ``0 <= v < L`` (fmod of a smaller magnitude is exact), so the
    # costly mod pass is applied only to the few particles that left the
    # domain.
    half_dt2 = 0.5 * dt * dt
    L = mesh.L
    for pos, v, a in ((x, vx, ax), (y, vy, ay)):
        step = t0  # v*dt + a*half_dt2
        if a is None:  # on the axis: a*half_dt2 and a*dt are +0.0
            if unit_dt:
                step = v  # v + 0.0, which is also the new velocity
            else:
                np.multiply(v, dt, out=t0)
                np.add(t0, 0.0, out=t0)
            np.add(v, 0.0, out=v)  # turns a -0.0 velocity into +0.0
        elif unit_dt:
            np.multiply(a, half_dt2, out=t1)
            np.add(v, t1, out=t0)
            np.add(v, a, out=v)
        else:
            np.multiply(a, half_dt2, out=t1)
            np.multiply(v, dt, out=t0)
            np.add(t0, t1, out=t0)
            np.multiply(a, dt, out=t1)
            np.add(v, t1, out=v)
        np.add(pos, step, out=pos)
        np.less(pos, 0.0, out=esc)
        np.greater_equal(pos, L, out=tmp)
        np.logical_or(esc, tmp, out=esc)
        if esc.any():
            pos[esc] = np.mod(pos[esc], L)


def advance_reference(mesh: Mesh, particles: ParticleArray, dt: float) -> None:
    """Readable reference push: the specification :func:`advance` must match.

    Allocates ~15 temporaries per call; kept as the bitwise oracle of the
    differential and backend-conformance tests, nothing else.
    """
    if len(particles) == 0:
        return
    ax, ay = compute_acceleration(mesh, particles.x, particles.y, particles.q)
    half_dt2 = 0.5 * dt * dt
    particles.x += particles.vx * dt + ax * half_dt2
    particles.y += particles.vy * dt + ay * half_dt2
    particles.vx += ax * dt
    particles.vy += ay * dt
    np.mod(particles.x, mesh.L, out=particles.x)
    np.mod(particles.y, mesh.L, out=particles.y)
