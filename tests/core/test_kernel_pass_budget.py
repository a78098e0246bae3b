"""Deterministic pass budget of the fused push.

The python kernel's cost is the number (and kind) of full-block ufunc
passes it makes: one ``np.mod`` pass — a scalar ``fmod`` loop — once cost a
quarter of the whole push and no test noticed.  This guard drives
``kernel._advance_block`` over scratch rows and fields that record every
ufunc call through ``__array_ufunc__``
(:func:`repro.bench.kernel_passes.record_block_passes`) and compares the
block-sized calls with the count documented at ``kernel.KERNEL_BLOCK``.  It
is a count, so it repeats exactly on any host: a reintroduced slow pass
fails tier-1 instead of waiting for a benchmark.
"""

from __future__ import annotations

import pytest

from repro.bench.kernel_passes import record_block_passes
from repro.core import kernel
from repro.core.mesh import Mesh
from tests.core.test_kernel_fused import make_particles

#: Full-block elementwise passes at h = dt = q = 1, and with none of them 1;
#: each block also makes one ``any`` reduction per wrapped axis.
UNIT_PASSES = 62
GENERAL_PASSES = 71
REDUCTIONS = 2


@pytest.mark.parametrize(
    "h, mesh_q, dt, budget",
    [(1.0, 1.0, 1.0, UNIT_PASSES), (0.73, 2.5, 0.05, GENERAL_PASSES)],
)
def test_block_stays_within_its_pass_budget(h, mesh_q, dt, budget):
    mesh = Mesh(cells=16, h=h, q=mesh_q)
    # v_scale 3: some particles leave the domain, so the wrap's passes run.
    got, ref = (make_particles(4096, mesh, v_scale=3.0) for _ in range(2))
    log = record_block_passes(mesh, got.x, got.y, got.vx, got.vy, got.q, dt)
    kernel.advance_reference(mesh, ref, dt)
    assert got.x.tobytes() == ref.x.tobytes()  # the recorder ran the real push

    # np.mod's ufunc is named remainder
    slow = {"remainder", "fmod", "divmod", "floor_divide", "power"}
    assert not [p.ufunc.__name__ for p in log if p.ufunc.__name__ in slow]
    passes = [p.ufunc.__name__ for p in log if p.method == "__call__"]
    reductions = [p.ufunc.__name__ for p in log if p.method != "__call__"]
    assert len(passes) <= budget, sorted(passes)
    assert len(reductions) <= REDUCTIONS, reductions
