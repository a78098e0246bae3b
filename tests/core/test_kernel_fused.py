"""Bitwise identity of the fused kernel against the reference implementation.

``kernel.advance`` is the fused, workspace-backed, cache-blocked hot path;
``kernel.advance_reference`` is the seed's textbook implementation, kept as
the bitwise oracle.  The optimisation's whole claim is that they are
*bit-for-bit* interchangeable — the §III-D axis-of-symmetry verification
depends on exact IEEE-754 reproducibility, not approximate agreement — so
every comparison here is on ``tobytes()``, never ``allclose``.

Covered regimes:

* ``h == 1.0`` (the divide-free fast path) and ``h != 1.0``, crossed with
  ``dt == 1.0`` and mesh charge ``q == 1.0`` (the skipped identity
  multiplies) and their general-value counterparts;
* columns the fmod-free parity must get right: negative, ``-0.0`` and the
  ``x == L`` rounding edge where ``cell == cells``;
* populations below, at, straddling and spanning several ``KERNEL_BLOCK``
  chunks (the blocked loop must not perturb results at chunk seams);
* velocities large enough that particles cross the periodic boundary every
  step (the selective-wrap path) and small enough that none do;
* repeated workspace reuse across different population sizes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernel
from repro.core.mesh import Mesh
from repro.core.particles import ParticleArray

B = kernel.KERNEL_BLOCK


def make_particles(n, mesh, seed=11, v_scale=0.05):
    rng = np.random.default_rng(seed)
    p = ParticleArray.empty(n)
    p.x[:] = rng.uniform(0.0, mesh.L, n)
    p.y[:] = rng.uniform(0.0, mesh.L, n)
    p.vx[:] = rng.normal(size=n) * v_scale
    p.vy[:] = rng.normal(size=n) * v_scale
    p.q[:] = np.where(rng.integers(0, 2, n) == 0, 1.0, -1.0)
    return p


def assert_bitwise_equal(a: ParticleArray, b: ParticleArray, context=""):
    for name in ("x", "y", "vx", "vy"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), (
            f"{name} diverged {context}"
        )


@pytest.mark.parametrize("h", [1.0, 0.73])
@pytest.mark.parametrize("v_scale", [0.05, 4.0])
@pytest.mark.parametrize("n", [0, 1, 7, 1000, B, B + 1, 3 * B + 17])
def test_fused_matches_reference_bitwise(h, v_scale, n):
    mesh = Mesh(cells=32, h=h)
    fused = make_particles(n, mesh, v_scale=v_scale)
    ref = make_particles(n, mesh, v_scale=v_scale)
    for step in range(5):
        kernel.advance(mesh, fused, 0.05)
        kernel.advance_reference(mesh, ref, 0.05)
        assert_bitwise_equal(fused, ref, f"(h={h}, n={n}, step={step})")


@pytest.mark.parametrize("h", [1.0, 0.73])
@pytest.mark.parametrize("mesh_q", [1.0, 2.5])
@pytest.mark.parametrize("dt", [1.0, 0.05])
def test_identity_fast_paths_and_edge_columns_match_reference(dt, mesh_q, h):
    """Every combination of the skipped-identity branches, over a population
    that straddles a block seam and re-enters the edge columns each step."""
    mesh = Mesh(cells=32, h=h, q=mesh_q)
    fused = make_particles(B + 1, mesh, v_scale=1.0)
    ref = make_particles(B + 1, mesh, v_scale=1.0)
    # x == L is what the wrap's rounding can hand the next step (cell ==
    # cells); negative and -0.0 columns never reach the kernel from a driver
    # but the parity must agree with the reference's ``& 1`` there too.
    edge_x = np.array(
        [mesh.L, -0.0, 0.0, -0.5 * h, -1.5 * h, -2.0 * h, -3.25 * h, -33.0 * h]
    )
    k = len(edge_x)
    for step in range(4):
        for p in (fused, ref):
            p.x[:k] = edge_x
            p.y[:k] = 2.5 * h  # mid-cell: never on a mesh node (r2 > 0)
        kernel.advance(mesh, fused, dt)
        kernel.advance_reference(mesh, ref, dt)
        assert_bitwise_equal(
            fused, ref, f"(dt={dt}, q={mesh_q}, h={h}, step={step})"
        )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.integers(-(2**52), 2**52).map(float), st.just(-0.0)),
        min_size=1,
        max_size=64,
    )
)
def test_parity_matches_np_mod_bytewise(columns):
    cell = np.array(columns, dtype=np.float64)
    got = np.empty_like(cell)
    kernel._parity_into(cell, got)
    assert got.tobytes() == np.mod(cell, 2.0).tobytes()


def test_workspace_reuse_across_sizes():
    """One shared workspace serving shrinking/growing populations stays exact."""
    mesh = Mesh(cells=16)
    ws = kernel.KernelWorkspace()
    for n in (5000, 17, 40_000, 0, 1, 12_345):
        fused = make_particles(n, mesh, seed=n + 1, v_scale=2.0)
        ref = make_particles(n, mesh, seed=n + 1, v_scale=2.0)
        kernel.advance(mesh, fused, 0.1, workspace=ws)
        kernel.advance_reference(mesh, ref, 0.1)
        assert_bitwise_equal(fused, ref, f"(n={n})")


def test_workspace_rows_start_on_cache_lines():
    """malloc promises 16 bytes; the push was 10-20 % slower whenever the
    heap gave the block no more than that (docs/performance.md)."""
    ws = kernel.KernelWorkspace()
    for n in (1, 5, 100, 1001, kernel.KERNEL_BLOCK, 37):
        rows = ws.rows(n)
        assert len(rows) == ws.N_ROWS and all(len(r) == n for r in rows)
        assert {r.ctypes.data % 64 for r in rows} == {0}


def test_positions_stay_in_domain_through_wrap_path():
    mesh = Mesh(cells=8)
    p = make_particles(3000, mesh, v_scale=10.0)  # most escape every step
    for _ in range(10):
        kernel.advance(mesh, p, 0.1)
        assert np.all((p.x >= 0.0) & (p.x < mesh.L))
        assert np.all((p.y >= 0.0) & (p.y < mesh.L))


def test_fused_preserves_vertical_force_cancellation():
    """§III-D: at mid-cell height the two corner forces of each column are
    exact mirror images, so the pairwise accumulation cancels vertically
    bit-for-bit.  The fused path must preserve this — it is what keeps the
    PRK's analytic verification exact."""
    mesh = Mesh(cells=8)
    p = ParticleArray.empty(3)
    p.x[:] = [4.5, 0.25, 7.9]
    p.y[:] = [4.5, 0.5, 2.5]  # all at ry == 0.5
    p.q[:] = [1.0, -2.0, 3.0]
    p.vx[:] = 0.5
    for _ in range(20):
        kernel.advance(mesh, p, 0.05)
        assert np.array_equal(p.y, [4.5, 0.5, 2.5])  # exact, no tolerance
        assert np.array_equal(p.vy, [0.0, 0.0, 0.0])
