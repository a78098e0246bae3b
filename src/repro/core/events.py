"""Particle injection and removal events (paper §III-E5).

Events perturb the workload abruptly at a chosen time step, stressing the
adaptiveness of a load-balancing strategy.  Both kinds are implemented so
that their effect is *deterministic and decomposition-independent*:

* Injections materialize the complete list of new particles from a seed
  derived from ``(spec.seed, event index)``; a parallel rank simply filters
  the list to its subdomain, so every decomposition creates identical
  particles with identical ids.
* Removals select victims by a hash of the particle id, so the set of
  removed particles does not depend on which rank happens to own them.

Injected particles follow the standard placement rules (cell centres, Eq. 3
charges), so they remain analytically verifiable; their birth step is the
injection step, looked up from the id block
(:class:`repro.core.verification.ParticleOrigins`), so Eqs. 5-6 are
evaluated with the correct participation count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mesh import Mesh
from repro.core.initialization import per_particle_speeds, place_particles
from repro.core.particles import ParticleArray
from repro.core.spec import InjectionEvent, PICSpec, RemovalEvent

#: Knuth's multiplicative hash constant; used to pick removal victims
#: pseudo-randomly but decomposition-independently.
_HASH_MULT = np.int64(2654435761)
_HASH_MOD = np.int64(2**31 - 1)


@dataclass(frozen=True)
class EventOutcome:
    """Bookkeeping from applying one event locally.

    ``added_ids_sum``/``removed_ids_sum`` feed the global id-checksum update;
    ``added``/``removed`` are the local particle-count deltas.
    """

    added: int = 0
    removed: int = 0
    added_ids_sum: int = 0
    removed_ids_sum: int = 0


def injection_base_id(spec: PICSpec, event_index: int) -> int:
    """First particle id used by injection event ``event_index``.

    Ids must be globally unique and decomposition-independent: the initial
    population uses ``1..n``; each injection event gets the next contiguous
    block, in event order.
    """
    next_id = spec.n_particles + 1
    for i, ev in enumerate(spec.events):
        if i == event_index:
            return next_id
        if isinstance(ev, InjectionEvent):
            next_id += ev.count
    raise IndexError(f"event index {event_index} out of range")


def materialize_injection(
    spec: PICSpec,
    mesh: Mesh,
    event: InjectionEvent,
    event_index: int,
) -> ParticleArray:
    """Create the full particle list for one injection event.

    The list is identical for every caller (serial driver or any rank of any
    decomposition); ranks filter it to their subdomain afterwards.
    """
    rng = np.random.default_rng((spec.seed, 7919, event_index))
    region = event.region
    cols = rng.integers(region.x_lo, region.x_hi, size=event.count, dtype=np.int64)
    rows = rng.integers(region.y_lo, region.y_hi, size=event.count, dtype=np.int64)
    start_id = injection_base_id(spec, event_index)
    pids = np.arange(start_id, start_id + event.count, dtype=np.int64)
    k, m = per_particle_speeds(spec, pids)
    return place_particles(
        mesh,
        cols,
        rows,
        dt=spec.dt,
        k=k,
        m_vertical=m,
        start_id=start_id,
    )


def materialize_injections(spec: PICSpec, mesh: Mesh) -> dict[int, ParticleArray]:
    """Every injection's particle list, keyed by event index (in order)."""
    return {
        idx: materialize_injection(spec, mesh, event, idx)
        for idx, event in enumerate(spec.events)
        if isinstance(event, InjectionEvent)
    }


def removal_mask(
    event: RemovalEvent,
    mesh: Mesh,
    particles: ParticleArray,
) -> np.ndarray:
    """Boolean mask of local particles removed by ``event``.

    Membership is evaluated on the particle's *current* cell.  When
    ``fraction < 1`` the victims are chosen by hashing the particle id, so the
    selection is identical regardless of decomposition.
    """
    cx = particles.cell_columns(mesh)
    cy = particles.cell_rows(mesh)
    mask = event.region.contains(cx, cy)
    if event.fraction < 1.0:
        hashed = (particles.pid * _HASH_MULT) % _HASH_MOD
        mask &= hashed.astype(np.float64) / float(_HASH_MOD) < event.fraction
    return mask


def apply_events_locally(
    spec: PICSpec,
    mesh: Mesh,
    particles: ParticleArray,
    step: int,
    *,
    in_subdomain=None,
) -> tuple[ParticleArray, EventOutcome]:
    """Apply all events scheduled at ``step`` to a local particle set.

    ``in_subdomain`` is an optional predicate ``(cell_col, cell_row) -> mask``
    restricting injected particles to the caller's subdomain (parallel
    drivers pass their partition test; the serial driver passes ``None`` to
    keep everything).

    Events fire *before* the particle push of the step they are scheduled on,
    so an event at step ``t'`` affects pushes ``t', t'+1, ...`` and an
    injected particle participates in ``T - t'`` pushes.
    """
    total = EventOutcome()
    added = 0
    removed = 0
    added_ids = 0
    removed_ids = 0
    for idx, ev in enumerate(spec.events):
        if ev.step != step:
            continue
        if isinstance(ev, InjectionEvent):
            newp = materialize_injection(spec, mesh, ev, idx)
            if in_subdomain is not None:
                keep = in_subdomain(newp.cell_columns(mesh), newp.cell_rows(mesh))
                newp = newp.select(keep)
            if len(newp):
                added += len(newp)
                added_ids += newp.id_checksum()
                particles = particles.append(newp)
        else:
            mask = removal_mask(ev, mesh, particles)
            n_gone = int(mask.sum())
            if n_gone:
                removed += n_gone
                removed_ids += int(np.sum(particles.pid[mask], dtype=np.int64))
                particles = particles.select(~mask)
    if added or removed:
        total = EventOutcome(
            added=added,
            removed=removed,
            added_ids_sum=added_ids,
            removed_ids_sum=removed_ids,
        )
    return particles, total


def has_events_at(spec: PICSpec, step: int) -> bool:
    """True when any event is scheduled at ``step``."""
    return any(ev.step == step for ev in spec.events)
