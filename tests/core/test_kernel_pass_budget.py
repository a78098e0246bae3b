"""Deterministic pass budget of the fused push.

The python kernel's cost is the number (and kind) of full-block ufunc
passes it makes: one ``np.mod`` pass — a scalar ``fmod`` loop — once cost a
quarter of the whole push and no test noticed.  This guard drives
``kernel._advance_block`` over scratch rows and fields that record every
ufunc call through ``__array_ufunc__``
(:func:`repro.bench.kernel_passes.record_block_passes`) and compares the
block-sized calls with the counts documented at ``kernel.KERNEL_BLOCK``.  It
is a count, so it repeats exactly on any host: a reintroduced slow pass
fails tier-1 instead of waiting for a benchmark.

A block has two branches.  One whose particles all sit on their row's axis
of symmetry (``ry == h/2``, where the PRK keeps every particle) computes
one corner per column; any other block computes all four.  Both budgets
are pinned, so a PRK population that silently falls back to four corners
fails the on-axis case.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.bench.kernel_passes import record_block_passes
from repro.core import kernel
from repro.core.mesh import Mesh
from tests.core.test_kernel_fused import make_particles

#: Full-block elementwise passes at h = dt = q = 1, and with none of them 1;
#: each block also makes one ``any`` reduction for the axis test and one per
#: wrapped axis.
ON_AXIS_UNIT, ON_AXIS_GENERAL = 41, 50
OFF_AXIS_UNIT, OFF_AXIS_GENERAL = 63, 72
REDUCTIONS = 3

CASES = [
    pytest.param(1.0, 1.0, 1.0, id="unit"),
    # 0.75 is binary-exact, so (k + 0.5) * h lands exactly on the axis.
    pytest.param(0.75, 2.5, 0.05, id="general"),
]


def _record(mesh, got, dt):
    """Push ``got`` as one recorded block; check it against the reference."""
    ref = got.copy()
    log = record_block_passes(mesh, got.x, got.y, got.vx, got.vy, got.q, dt)
    kernel.advance_reference(mesh, ref, dt)
    for name in ("x", "y", "vx", "vy"):  # the recorder ran the real push
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name

    # np.mod's ufunc is named remainder
    slow = {"remainder", "fmod", "divmod", "floor_divide", "power"}
    assert not [p.ufunc.__name__ for p in log if p.ufunc.__name__ in slow]
    passes = Counter(p.ufunc.__name__ for p in log if p.method == "__call__")
    reductions = [p.ufunc.__name__ for p in log if p.method != "__call__"]
    assert len(reductions) <= REDUCTIONS, reductions
    return passes


def _on_axis_particles(n, mesh, dt):
    """A PRK-like block: every y at a cell centre, vy = m*h/dt with |m| <= 2
    (so the y wrap runs) or a signed zero."""
    rng = np.random.default_rng(5)
    p = make_particles(n, mesh, v_scale=3.0)
    p.y[:] = (rng.integers(0, mesh.cells, n) + 0.5) * mesh.h
    p.vy[:] = rng.integers(-2, 3, n) * mesh.h / dt
    p.vy[::7] = -0.0
    return p


@pytest.mark.parametrize("h, mesh_q, dt", CASES)
def test_on_axis_block_takes_the_one_corner_branch(h, mesh_q, dt):
    mesh = Mesh(cells=16, h=h, q=mesh_q)
    passes = _record(mesh, _on_axis_particles(4096, mesh, dt), dt)
    budget = ON_AXIS_UNIT if h == 1.0 else ON_AXIS_GENERAL
    # One corner per column: a sqrt and a divide each, not two.
    assert passes["sqrt"] == 2, sorted(passes.elements())
    assert sum(passes.values()) <= budget, sorted(passes.elements())


@pytest.mark.parametrize("h, mesh_q, dt", CASES)
def test_off_axis_block_stays_within_its_pass_budget(h, mesh_q, dt):
    mesh = Mesh(cells=16, h=h, q=mesh_q)
    # v_scale 3: some particles leave the domain, so the wrap's passes run.
    passes = _record(mesh, make_particles(4096, mesh, v_scale=3.0), dt)
    budget = OFF_AXIS_UNIT if h == 1.0 else OFF_AXIS_GENERAL
    assert passes["sqrt"] == 4, sorted(passes.elements())
    assert sum(passes.values()) <= budget, sorted(passes.elements())
