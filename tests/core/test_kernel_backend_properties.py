"""Property-based conformance of kernel backends against the reference.

Hypothesis drives randomized populations through the python fused kernel
and the compiled C kernel (wherever a C compiler is present), asserting
*bitwise* agreement with ``advance_reference`` — positions, velocities and
id checksums, never ``allclose``.

The generator deliberately lands particles on the numerically nasty
loci the uniform draws almost never hit:

* exactly on a vertical cell boundary (``x == k*h``: ``rx`` is the
  ``0.0``/``-0.0`` and charge-parity edge of the ``floor`` path);
* exactly on a horizontal cell boundary (``y == k*h``);
* on the mid-cell horizontal axis (``y == (k + 0.5)*h``, the §III-D
  cancellation locus);

and drives ``dt`` over five orders of magnitude up to 10.0, where a
single step flings most particles through the periodic-wrap path many
cells at a time.  A particle is given at most one special coordinate so
``r2 == 0`` (a particle exactly on a mesh node, undefined in the model)
cannot be constructed.

A second property draws PRK-like populations: every particle on its row's
axis, as the paper keeps them, so the python kernel's one-corner branch
runs, optionally with one stray particle that sends its block to the
four-corner path.  Those populations span more than one ``KERNEL_BLOCK``,
so one push runs both branches.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.core.backend_conformance import (
    BACKENDS,
    advance_arrays_backend,
    assert_bitwise_equal,
)
from repro.core import kernel
from repro.core.mesh import Mesh
from repro.core.particles import ParticleArray

_CELLS = 16


def _population(mesh: Mesh, n: int, seed: int, v_scale: float) -> ParticleArray:
    rng = np.random.default_rng(seed)
    p = ParticleArray.empty(n)
    hi = np.nextafter(mesh.L, 0.0)  # largest representable in-domain coord
    p.x[:] = rng.uniform(0.0, mesh.L, n).clip(0.0, hi)
    p.y[:] = rng.uniform(0.0, mesh.L, n).clip(0.0, hi)
    # One special coordinate per draw, never both (keeps r2 > 0).
    kind = rng.integers(0, 4, n)
    k = rng.integers(0, mesh.cells, n).astype(np.float64)
    p.x[kind == 0] = (k[kind == 0] * mesh.h).clip(0.0, hi)
    p.y[kind == 1] = (k[kind == 1] * mesh.h).clip(0.0, hi)
    p.y[kind == 2] = ((k[kind == 2] + 0.5) * mesh.h).clip(0.0, hi)
    # kind == 3: fully uniform
    p.vx[:] = rng.normal(size=n) * v_scale
    p.vy[:] = rng.normal(size=n) * v_scale
    p.q[:] = np.where(rng.integers(0, 2, n) == 0, 1.0, -1.0)
    p.pid[:] = np.arange(1, n + 1)
    return p


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=40, deadline=None)
@given(
    h=st.sampled_from([1.0, 0.73]),
    n=st.integers(min_value=1, max_value=400),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dt=st.floats(min_value=1e-4, max_value=10.0, allow_nan=False),
    v_scale=st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
)
def test_backend_matches_reference_bitwise(backend, h, n, seed, dt, v_scale):
    mesh = Mesh(cells=_CELLS, h=h)
    got = _population(mesh, n, seed, v_scale)
    ref = _population(mesh, n, seed, v_scale)
    for step in range(3):
        advance_arrays_backend(
            backend, mesh, got.x, got.y, got.vx, got.vy, got.q, dt
        )
        kernel.advance_reference(mesh, ref, dt)
        assert_bitwise_equal(
            got, ref,
            f"({backend}, h={h}, n={n}, seed={seed}, dt={dt}, step={step})",
        )
        assert np.all((got.x >= 0.0) & (got.x < mesh.L))
        assert np.all((got.y >= 0.0) & (got.y < mesh.L))
    assert got.id_checksum() == ref.id_checksum()


def _on_axis_population(
    mesh: Mesh, n: int, seed: int, dt: float, stray: int | None
) -> ParticleArray:
    rng = np.random.default_rng(seed)
    p = ParticleArray.empty(n)
    hi = np.nextafter(mesh.L, 0.0)
    p.x[:] = rng.uniform(0.0, mesh.L, n).clip(0.0, hi)
    p.y[:] = (rng.integers(0, mesh.cells, n) + 0.5) * mesh.h
    p.vx[:] = rng.normal(size=n)
    # Eq. 4's m*h/dt, or a signed zero (the branch's ``+ 0.0`` must turn a
    # -0.0 velocity into +0.0 exactly as the reference does).
    p.vy[:] = rng.integers(-2, 3, n) * mesh.h / dt
    zero = rng.integers(0, 4, n)
    p.vy[zero == 0] = 0.0
    p.vy[zero == 1] = -0.0
    p.q[:] = np.where(rng.integers(0, 2, n) == 0, 1.0, -1.0)
    p.pid[:] = np.arange(1, n + 1)
    if stray is not None:
        p.y[stray % n] = rng.uniform(0.0, mesh.L)
    return p


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=40, deadline=None)
@given(
    h=st.sampled_from([1.0, 0.75, 0.73]),
    mesh_q=st.sampled_from([1.0, 2.5]),
    n=st.integers(
        min_value=kernel.KERNEL_BLOCK + 1, max_value=2 * kernel.KERNEL_BLOCK + 100
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dt=st.one_of(st.just(1.0), st.floats(min_value=0.05, max_value=2.0)),
    stray=st.none() | st.integers(min_value=0, max_value=2**31),
)
def test_backend_matches_reference_bitwise_on_axis(
    backend, h, mesh_q, n, seed, dt, stray
):
    mesh = Mesh(cells=_CELLS, h=h, q=mesh_q)
    got = _on_axis_population(mesh, n, seed, dt, stray)
    ref = _on_axis_population(mesh, n, seed, dt, stray)
    for step in range(3):
        advance_arrays_backend(
            backend, mesh, got.x, got.y, got.vx, got.vy, got.q, dt
        )
        kernel.advance_reference(mesh, ref, dt)
        assert_bitwise_equal(
            got, ref,
            f"({backend}, h={h}, q={mesh_q}, n={n}, seed={seed}, dt={dt}, "
            f"stray={stray}, step={step})",
        )
