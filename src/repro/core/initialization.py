"""Initial particle distributions for the PIC PRK (paper §III-C/E).

Particles are always placed at cell centres ``((i + 1/2) h, (j + 1/2) h)``:
the relative abscissa ``x_pi = h/2`` makes the per-step displacement exact in
finite-precision arithmetic (§III-C), and the ordinate puts the particle on
the horizontal axis of symmetry of its cell, which zeroes the vertical force
component bitwise (see :mod:`repro.core.kernel`).

A distribution is described by a per-cell-column weight profile ``w(i)``;
:func:`integer_counts` converts weights into integer particle counts that sum
exactly to ``n`` (largest-remainder apportionment), and rows within a column
are drawn from a seeded generator so initialization is deterministic and
independent of the parallel decomposition.
"""

from __future__ import annotations

import numpy as np

from repro.core.mesh import Mesh
from repro.core.particles import ParticleArray, assign_charges
from repro.core.spec import Distribution, PICSpec, Region


def integer_counts(weights: np.ndarray, n: int) -> np.ndarray:
    """Apportion ``n`` items over bins proportionally to ``weights``.

    Uses the largest-remainder method so the result sums to exactly ``n``.
    Ties in the fractional parts are broken by bin index, which keeps the
    apportionment fully deterministic.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    total = weights.sum()
    if n == 0:
        return np.zeros(len(weights), dtype=np.int64)
    if total <= 0:
        raise ValueError("at least one weight must be positive")
    # Normalize before scaling: dividing by a subnormal total (or scaling a
    # huge n/total ratio) must not overflow to inf.
    ideal = (weights / total) * n
    base = np.floor(ideal).astype(np.int64)
    remainder = n - int(base.sum())
    if remainder > 0:
        frac = ideal - base
        # argsort is stable, so equal fractions go to lower indices first.
        order = np.argsort(-frac, kind="stable")
        base[order[:remainder]] += 1
    return base


# ----------------------------------------------------------------------
# Column weight profiles (§III-E)
# ----------------------------------------------------------------------
def geometric_weights(cells: int, r: float) -> np.ndarray:
    """``w(i) = r**i`` — the skewed distribution of §III-E1.

    Computed in log space to avoid under/overflow for extreme ``r`` and large
    meshes; only the *relative* weights matter for apportionment.
    """
    if r <= 0:
        raise ValueError("geometric ratio r must be positive")
    i = np.arange(cells, dtype=np.float64)
    logw = i * np.log(r)
    logw -= logw.max()
    return np.exp(logw)


def sinusoidal_weights(cells: int) -> np.ndarray:
    """``w(i) = 1 + cos(2 pi i / (c - 1))`` — §III-E2."""
    i = np.arange(cells, dtype=np.float64)
    return 1.0 + np.cos(2.0 * np.pi * i / (cells - 1))


def linear_weights(cells: int, alpha: float, beta: float) -> np.ndarray:
    """``w(i) = beta - alpha * i / (c - 1)`` — §III-E3."""
    i = np.arange(cells, dtype=np.float64)
    w = beta - alpha * i / (cells - 1)
    if np.any(w < 0):
        raise ValueError("linear weights must be non-negative (beta >= alpha)")
    return w


def column_weights(spec: PICSpec) -> np.ndarray:
    """Weight profile for the spec's distribution over cell columns."""
    c = spec.cells
    dist = spec.distribution
    if dist is Distribution.GEOMETRIC:
        return geometric_weights(c, spec.r)
    if dist is Distribution.SINUSOIDAL:
        return sinusoidal_weights(c)
    if dist is Distribution.LINEAR:
        return linear_weights(c, spec.alpha, spec.beta)
    if dist is Distribution.UNIFORM:
        return np.ones(c, dtype=np.float64)
    if dist is Distribution.PATCH:
        assert spec.patch is not None
        w = np.zeros(c, dtype=np.float64)
        w[spec.patch.x_lo : spec.patch.x_hi] = 1.0
        return w
    raise ValueError(f"unknown distribution {dist!r}")  # pragma: no cover


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------
def speed_choice(pids: np.ndarray, choices) -> np.ndarray:
    """Deterministic per-particle pick from ``choices`` keyed by id.

    ``choices[(pid - 1) % len(choices)]`` — independent of decomposition
    and of the order particles were created in, so parallel runs assign
    identical speeds.
    """
    choices = np.asarray(choices, dtype=np.int64)
    return choices[(np.asarray(pids, dtype=np.int64) - 1) % len(choices)]


def place_particles(
    mesh: Mesh,
    cell_col: np.ndarray,
    cell_row: np.ndarray,
    *,
    dt: float,
    k,
    m_vertical,
    start_id: int,
) -> ParticleArray:
    """Create fully-initialized particles in the given cells.

    ``cell_col``/``cell_row`` are integer arrays of equal length.  Ids are
    assigned consecutively starting at ``start_id``.  Charges follow Eq. 3
    with sign chosen by birth-column parity (all particles drift in +x);
    initial velocity is ``(0, m_vertical * h / dt)`` per Eq. 4.  ``k`` and
    ``m_vertical`` may be scalars or per-particle integer arrays (§III-E's
    charge/velocity variation facility).  All particles drift rightward
    at ``2k+1`` cells per step (see :func:`assign_charges`).
    """
    cell_col = np.asarray(cell_col, dtype=np.int64)
    cell_row = np.asarray(cell_row, dtype=np.int64)
    n = len(cell_col)
    p = ParticleArray.empty(n)
    h = mesh.h
    k = np.asarray(k, dtype=np.int64)
    m_vertical = np.asarray(m_vertical, dtype=np.int64)
    p.x[:] = (cell_col + 0.5) * h
    p.y[:] = (cell_row + 0.5) * h
    p.vx[:] = 0.0
    p.vy[:] = m_vertical * h / dt
    p.q[:] = assign_charges(mesh, dt, cell_col, k)
    p.pid[:] = np.arange(start_id, start_id + n, dtype=np.int64)
    return p


def per_particle_speeds(spec: PICSpec, pids: np.ndarray):
    """Resolve the (k, m) values for the given particle ids."""
    k = speed_choice(pids, spec.k_choices) if spec.k_choices else spec.k
    m = speed_choice(pids, spec.m_choices) if spec.m_choices else spec.m_vertical
    return k, m


def initialize(spec: PICSpec, mesh: Mesh | None = None) -> ParticleArray:
    """Create the initial particle population for ``spec``.

    Deterministic for a fixed ``spec.seed`` and independent of any parallel
    decomposition: parallel drivers call this (or an equivalent stream) and
    keep only the particles falling inside their subdomain.
    """
    if mesh is None:
        mesh = Mesh(spec.cells, spec.h, spec.q)
    weights = column_weights(spec)
    counts = integer_counts(weights, spec.n_particles)
    rng = np.random.default_rng(spec.seed)

    cols = np.repeat(np.arange(spec.cells, dtype=np.int64), counts)
    if spec.distribution is Distribution.PATCH:
        assert spec.patch is not None
        rows = rng.integers(spec.patch.y_lo, spec.patch.y_hi, size=len(cols), dtype=np.int64)
    else:
        rows = rng.integers(0, spec.cells, size=len(cols), dtype=np.int64)

    if spec.rotate90:
        # Apply the density profile along rows instead of columns: swap the
        # roles of the generated coordinates.  Charge signs still follow the
        # (new) column parity so the drift remains +x.
        cols, rows = rows, cols

    pids = np.arange(1, len(cols) + 1, dtype=np.int64)
    k, m = per_particle_speeds(spec, pids)
    return place_particles(
        mesh,
        cols,
        rows,
        dt=spec.dt,
        k=k,
        m_vertical=m,
        start_id=1,
    )
