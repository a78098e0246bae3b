"""Self-verification of the PIC PRK (paper §III-D).

Thanks to the constrained initialization (§III-C), every particle's final
position has a closed form:

    x_s = (x_0 + sign(a_x0) * (2k+1) * s * h)  mod L        (Eq. 5)
    y_s = (y_0 + m * h * s)                    mod L        (Eq. 6)

with ``s`` the number of time steps the particle participated in.  The charge
assignment of :func:`repro.core.particles.assign_charges` makes every
particle drift in the +x direction.  None of ``x_0, y_0, k, m`` or the birth
step changes during a run and all are functions of the particle id and the
spec, so particles do not carry them: :class:`ParticleOrigins` holds the
birth positions (indexed ``pid - 1``) and derives the rest from ``pid``.
The check stays O(1) per particle and trivially parallel, and a particle
whose id is outside ``[1, n_total]`` fails it.

A second, integer-exact test guards against lost or duplicated particles:
the checksum of the unique particle ids must equal the analytically known
total (``n (n+1) / 2`` when no injection/removal happened, otherwise adjusted
by the event bookkeeping).  A single particle mis-communicated in a single
step fails the position test; a particle dropped during an exchange or
migration fails the checksum test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import VERIFICATION_EPSILON
from repro.core.initialization import per_particle_speeds
from repro.core.mesh import Mesh
from repro.core.particles import ParticleArray
from repro.core.spec import InjectionEvent, PICSpec, RemovalEvent


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of the §III-D verification."""

    positions_ok: bool
    checksum_ok: bool
    max_abs_error: float
    n_particles: int
    id_checksum: int
    expected_checksum: int

    @property
    def ok(self) -> bool:
        return self.positions_ok and self.checksum_ok

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        status = "PASS" if self.ok else "FAIL"
        return (
            f"verification {status}: n={self.n_particles}, "
            f"max|err|={self.max_abs_error:.3e}, "
            f"checksum={self.id_checksum} (expected {self.expected_checksum})"
        )


class ParticleOrigins:
    """What Eqs. 5-6 need of each particle besides its state, by ``pid``.

    ``x0``/``y0`` are the birth positions, float64, indexed ``pid - 1``:
    the initial population (ids ``1..n``) followed by each injection's id
    block in event order (:func:`repro.core.events.injection_base_id`).
    The drift ``2k+1`` and vertical ``m`` come from
    :func:`~repro.core.initialization.per_particle_speeds`, the birth step
    from the id block a ``pid`` falls in.
    """

    def __init__(self, spec: PICSpec, x0: np.ndarray, y0: np.ndarray):
        starts, births = [1], [0]
        next_id = spec.n_particles + 1
        for event in spec.events:
            if isinstance(event, InjectionEvent):
                starts.append(next_id)
                births.append(event.step)
                next_id += event.count
        if len(x0) != next_id - 1 or len(y0) != next_id - 1:
            raise ValueError(
                f"origins cover {len(x0)}/{len(y0)} particles, "
                f"the spec creates {next_id - 1}"
            )
        self.spec = spec
        self.x0 = x0
        self.y0 = y0
        self._starts = np.array(starts, dtype=np.int64)
        self._births = np.array(births, dtype=np.int64)

    @classmethod
    def build(cls, spec: PICSpec, initial: ParticleArray, injections) -> "ParticleOrigins":
        """From the unpushed initial population and each injection's
        particles (in event order).  The positions are copied, so the table
        aliases no particle store."""
        parts = [initial, *injections]
        return cls(
            spec,
            np.concatenate([p.x for p in parts]),
            np.concatenate([p.y for p in parts]),
        )

    @property
    def n_total(self) -> int:
        """Particles the spec ever creates (ids ``1..n_total``)."""
        return len(self.x0)

    def birth(self, pid: np.ndarray) -> np.ndarray:
        """Birth step of each id in ``[1, n_total]``: 0 for the initial
        population, the event's step for an injected particle."""
        return self._births[self._starts.searchsorted(pid, "right") - 1]


def _closed_form(mesh, particles, total_steps, origins):
    """Eqs. 5-6 for every particle, and the mask of ids outside
    ``[1, n_total]`` (None when there are none); those rows are computed
    as if they were id 1, or are NaN when every row is unknown."""
    pid = particles.pid
    unknown = (pid < 1) | (pid > origins.n_total)
    if not unknown.any():
        unknown = None
    elif unknown.all():  # the table may be empty: nothing to look up
        return np.full(len(pid), np.nan), np.full(len(pid), np.nan), unknown
    else:
        pid = np.where(unknown, 1, pid)
    k, m = per_particle_speeds(origins.spec, pid)
    s = (total_steps - origins.birth(pid)).astype(np.float64)
    if np.any(s < 0):
        raise ValueError("particle birth step exceeds total_steps")
    idx = pid - 1
    xs = origins.x0[idx] + (2 * k + 1) * s * mesh.h
    ys = origins.y0[idx] + m * s * mesh.h
    # ``np.mod(v, L)`` is a scalar fmod loop and returns ``v`` bit for bit
    # whenever ``0 <= v < L``, so only the rows outside the domain pay for it
    # (``signbit`` rather than ``v < 0``: ``np.mod(-0.0, L)`` is ``+0.0``).
    for v in (xs, ys):
        outside = np.signbit(v) | (v >= mesh.L)
        if outside.any():
            v[outside] = np.mod(v[outside], mesh.L)
    return xs, ys, unknown


def expected_final_positions(
    mesh: Mesh, particles: ParticleArray, total_steps: int, origins: ParticleOrigins
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form final coordinates (Eqs. 5-6) for every particle.

    Each particle participated in ``total_steps - birth`` pushes.  A
    particle whose id is outside ``[1, n_total]`` has no closed form: its
    coordinates are NaN.
    """
    xs, ys, unknown = _closed_form(mesh, particles, total_steps, origins)
    if unknown is not None:
        xs[unknown] = ys[unknown] = np.nan
    return xs, ys


def position_errors(
    mesh: Mesh, particles: ParticleArray, total_steps: int, origins: ParticleOrigins
) -> np.ndarray:
    """Periodic-aware absolute error of each particle vs the closed form
    (infinite for an id outside ``[1, n_total]``)."""
    xs, ys, unknown = _closed_form(mesh, particles, total_steps, origins)
    ex = np.abs(particles.x - xs)
    ey = np.abs(particles.y - ys)
    # A particle sitting at coordinate ~0 may legitimately be reported at ~L.
    ex = np.minimum(ex, mesh.L - ex)
    ey = np.minimum(ey, mesh.L - ey)
    errors = np.maximum(ex, ey)
    if unknown is not None:
        errors[unknown] = np.inf
    return errors


def initial_checksum(n_particles: int) -> int:
    """Checksum of ids ``1..n``: ``n (n+1) / 2``."""
    return n_particles * (n_particles + 1) // 2


def expected_checksum(spec: PICSpec, removed_ids_sum: int = 0) -> int:
    """Analytic id checksum after all of the spec's injections.

    Injection ids are contiguous blocks (see :mod:`repro.core.events`), so
    their contribution is closed-form.  Removals depend on which particles
    happened to sit in the removal region, so callers must supply the summed
    ids of removed particles (each driver accumulates this while applying
    events; parallel drivers reduce it globally).
    """
    total = initial_checksum(spec.n_particles)
    next_id = spec.n_particles + 1
    for ev in spec.events:
        if isinstance(ev, InjectionEvent):
            first, last = next_id, next_id + ev.count - 1
            total += (first + last) * ev.count // 2
            next_id += ev.count
        else:
            assert isinstance(ev, RemovalEvent)
    return total - removed_ids_sum


def verify(
    mesh: Mesh,
    particles: ParticleArray,
    total_steps: int,
    expected_ids: int,
    origins: ParticleOrigins,
    epsilon: float = VERIFICATION_EPSILON,
) -> VerificationResult:
    """Run the full §III-D verification on a (gathered) particle set."""
    if len(particles) == 0:
        max_err = 0.0
        positions_ok = True
    else:
        errors = position_errors(mesh, particles, total_steps, origins)
        max_err = float(errors.max())
        positions_ok = bool(max_err <= epsilon)
    checksum = particles.id_checksum()
    return VerificationResult(
        positions_ok=positions_ok,
        checksum_ok=(checksum == expected_ids),
        max_abs_error=max_err,
        n_particles=len(particles),
        id_checksum=checksum,
        expected_checksum=expected_ids,
    )


def verify_distributed(
    mesh: Mesh,
    local_particles: ParticleArray,
    total_steps: int,
    expected_ids: int,
    *,
    global_max_error: float,
    global_count: int,
    global_id_sum: int,
    epsilon: float = VERIFICATION_EPSILON,
) -> VerificationResult:
    """Assemble a verification result from already-reduced global statistics.

    Parallel drivers compute the local maximum position error and local id
    sum, reduce them (MAX / SUM), and call this on every rank; the arguments
    besides ``local_particles`` are the *reduced* values.
    """
    del local_particles  # locals already folded into the reductions
    return VerificationResult(
        positions_ok=bool(global_max_error <= epsilon),
        checksum_ok=(global_id_sum == expected_ids),
        max_abs_error=float(global_max_error),
        n_particles=int(global_count),
        id_checksum=int(global_id_sum),
        expected_checksum=int(expected_ids),
    )
