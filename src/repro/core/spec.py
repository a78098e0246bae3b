"""Problem specification for the PIC PRK (paper §III).

:class:`PICSpec` gathers every knob the paper-and-pencil specification
exposes: the mesh geometry, the number of particles and time steps, the
initial particle distribution and its parameters, the horizontal drift
multiplier ``k`` and vertical velocity multiplier ``m``, and any particle
injection/removal events.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from enum import Enum

from repro.constants import DEFAULT_DT, DEFAULT_H, DEFAULT_Q


class Distribution(str, Enum):
    """Initial particle distributions supported by the PRK (§III-E)."""

    #: Exponential/geometric column distribution ``p(i) = A * r**i`` (§III-E1).
    GEOMETRIC = "geometric"
    #: Sinusoidal column distribution (§III-E2).
    SINUSOIDAL = "sinusoidal"
    #: Linear column distribution with slope controls ``alpha, beta`` (§III-E3).
    LINEAR = "linear"
    #: Uniform distribution restricted to a rectangular subdomain (§III-E4).
    PATCH = "patch"
    #: Degenerate geometric distribution with ``r = 1``: uniform everywhere.
    UNIFORM = "uniform"


@dataclass(frozen=True)
class Region:
    """A rectangular, axis-aligned region of the simulation domain.

    Bounds are expressed in *cell* indices: the region covers cell columns
    ``[x_lo, x_hi)`` and cell rows ``[y_lo, y_hi)``.
    """

    x_lo: int
    x_hi: int
    y_lo: int
    y_hi: int

    def __post_init__(self) -> None:
        if self.x_lo < 0 or self.y_lo < 0:
            raise ValueError(f"region bounds must be non-negative, got {self}")
        if self.x_hi <= self.x_lo or self.y_hi <= self.y_lo:
            raise ValueError(f"region must be non-empty, got {self}")

    @property
    def n_cells(self) -> int:
        return (self.x_hi - self.x_lo) * (self.y_hi - self.y_lo)

    def contains(self, cx, cy):
        """Vectorized membership test for cell coordinates ``(cx, cy)``."""
        return (
            (cx >= self.x_lo)
            & (cx < self.x_hi)
            & (cy >= self.y_lo)
            & (cy < self.y_hi)
        )


@dataclass(frozen=True)
class InjectionEvent:
    """Inject ``count`` particles uniformly into ``region`` at step ``step``.

    Injected particles obey the same placement rules as initial particles
    (cell-centre ordinate offset ``h/2``, charge per Eq. 3) so the analytic
    verification still applies to them, with a participation count equal to
    the number of remaining steps (§III-E5).
    """

    step: int
    region: Region
    count: int

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError("injection step must be >= 0")
        if self.count <= 0:
            raise ValueError("injection count must be positive")


@dataclass(frozen=True)
class RemovalEvent:
    """Remove all particles inside ``region`` at step ``step`` (§III-E5).

    Setting ``fraction`` below 1.0 removes only that (deterministically
    chosen) fraction of the resident particles, which allows milder load
    shocks to be synthesized.
    """

    step: int
    region: Region
    fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError("removal step must be >= 0")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("removal fraction must be in (0, 1]")


@dataclass(frozen=True)
class PICSpec:
    """Full specification of one PIC PRK problem instance.

    Parameters mirror §III of the paper:

    ``cells``
        Number of mesh cells per side; the domain is ``L x L`` with
        ``L = cells * h``.  Must be even so that periodic wrap-around does not
        break the alternating column-charge pattern (§III-C).
    ``n_particles``
        Initial particle count ``n``.
    ``steps``
        Number of discrete time steps ``T``.
    ``k``
        Horizontal drift multiplier: particle charges are odd multiples
        ``(2k+1) * q_pi``, so each particle crosses ``2k+1`` cells per step.
    ``m_vertical``
        Vertical velocity multiplier ``m`` of Eq. 4: initial velocity
        ``v0 = m * h / dt`` in the y direction.
    ``distribution`` and distribution parameters
        Which initial distribution of §III-E to use and its shape knobs.
    ``events``
        Optional injection/removal events (§III-E5).
    """

    cells: int
    n_particles: int
    steps: int
    k: int = 0
    m_vertical: int = 0
    distribution: Distribution = Distribution.GEOMETRIC
    #: Geometric-distribution ratio ``r`` (§III-E1); ``r = 1`` is uniform.
    r: float = 0.999
    #: Linear-distribution coefficients (§III-E3).
    alpha: float = 1.0
    beta: float = 3.0
    #: Patch subdomain for :attr:`Distribution.PATCH`.
    patch: Region | None = None
    #: Optional per-particle speed mixes (§III-E: "facilities for varying
    #: the initial particle distributions/charges/velocities").  When set,
    #: particle ``pid`` uses ``k_choices[(pid - 1) % len]`` instead of ``k``
    #: (and likewise for ``m_choices``/``m_vertical``) — deterministic by
    #: id, hence decomposition-independent, and each particle still
    #: verifies against its own recorded displacement.
    k_choices: tuple[int, ...] | None = None
    m_choices: tuple[int, ...] | None = None
    #: Rotate the particle distribution by 90 degrees: the density profile is
    #: applied along cell *rows* instead of columns (§III-E1 notes this
    #: defeats a fixed 1D block-row decomposition).
    rotate90: bool = False
    h: float = DEFAULT_H
    dt: float = DEFAULT_DT
    q: float = DEFAULT_Q
    seed: int = 42
    events: tuple[InjectionEvent | RemovalEvent, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.cells <= 0 or self.cells % 2 != 0:
            raise ValueError(
                f"cells must be a positive even number (got {self.cells}); the "
                "paper requires L to be an even multiple of h"
            )
        if self.n_particles < 0:
            raise ValueError("n_particles must be non-negative")
        if self.steps <= 0:
            raise ValueError("steps must be positive")
        if self.k < 0:
            raise ValueError("k must be non-negative")
        if self.k_choices is not None and (
            len(self.k_choices) == 0 or any(k < 0 for k in self.k_choices)
        ):
            raise ValueError("k_choices must be a non-empty tuple of k >= 0")
        if self.m_choices is not None and len(self.m_choices) == 0:
            raise ValueError("m_choices must be non-empty when given")
        if self.h <= 0 or self.dt <= 0 or self.q <= 0:
            raise ValueError("h, dt and q must be positive")
        if self.distribution is Distribution.PATCH and self.patch is None:
            raise ValueError("PATCH distribution requires a patch region")
        if self.patch is not None and (
            self.patch.x_hi > self.cells or self.patch.y_hi > self.cells
        ):
            raise ValueError("patch region exceeds the mesh")
        if self.distribution is Distribution.GEOMETRIC and self.r <= 0:
            raise ValueError("geometric ratio r must be positive")
        if self.distribution is Distribution.LINEAR:
            # p(i) ~ beta - alpha * i / (c - 1) must stay non-negative.
            if self.beta < 0 or self.beta - self.alpha < 0:
                raise ValueError(
                    "linear distribution requires beta >= alpha >= 0 so that "
                    "the density is non-negative over all columns"
                )
        for ev in self.events:
            if ev.step >= self.steps:
                raise ValueError(
                    f"event at step {ev.step} is outside the simulation "
                    f"(steps={self.steps})"
                )
            if ev.region.x_hi > self.cells or ev.region.y_hi > self.cells:
                raise ValueError("event region exceeds the mesh")

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def L(self) -> float:
        """Physical domain edge length ``L = cells * h``."""
        return self.cells * self.h

    def scaled(self, particle_factor: float = 1.0, step_factor: float = 1.0) -> "PICSpec":
        """Return a down/up-scaled copy, used by the benchmark presets."""
        return replace(
            self,
            n_particles=max(1, int(round(self.n_particles * particle_factor))),
            steps=max(1, int(round(self.steps * step_factor))),
        )

    def describe(self) -> str:
        """One-line human-readable summary (used by the bench harness)."""
        bits = [
            f"{self.cells}x{self.cells} cells",
            f"{self.n_particles} particles",
            f"{self.steps} steps",
            f"dist={self.distribution.value}",
        ]
        if self.distribution is Distribution.GEOMETRIC:
            bits.append(f"r={self.r}")
        if self.k:
            bits.append(f"k={self.k}")
        if self.m_vertical:
            bits.append(f"m={self.m_vertical}")
        if self.events:
            bits.append(f"{len(self.events)} events")
        return ", ".join(bits)


# ----------------------------------------------------------------------
# Canonical (de)serialization — shared by checkpoint metadata
# (repro.resilience.checkpoint) and the RunSpec config layer
# (repro.config.runspec).
# ----------------------------------------------------------------------
_SPEC_FIELDS = tuple(f.name for f in dataclasses.fields(PICSpec))


def _region_to_dict(r: Region) -> dict:
    return {"x_lo": r.x_lo, "x_hi": r.x_hi, "y_lo": r.y_lo, "y_hi": r.y_hi}


def spec_to_dict(spec: PICSpec) -> dict:
    """JSON-safe dict with every field present (the canonical form).  Not
    ``asdict``: leaves are immutable and this sits under every ``spec_hash()``."""
    doc = {name: getattr(spec, name) for name in _SPEC_FIELDS}
    doc["distribution"] = spec.distribution.value
    if spec.patch is not None:
        doc["patch"] = _region_to_dict(spec.patch)
    events = []
    for ev in spec.events:
        d = {"step": ev.step, "region": _region_to_dict(ev.region)}
        if isinstance(ev, InjectionEvent):
            d.update(count=ev.count, kind="inject")
        else:
            d.update(fraction=ev.fraction, kind="remove")
        events.append(d)
    doc["events"] = events
    for key in ("k_choices", "m_choices"):
        if doc[key] is not None:
            doc[key] = list(doc[key])
    return doc


def spec_from_dict(doc: dict) -> PICSpec:
    """Inverse of :func:`spec_to_dict`; unknown fields raise ``ValueError``."""
    doc = dict(doc)
    unknown = sorted(set(doc).difference(_SPEC_FIELDS))
    if unknown:
        raise ValueError(
            f"unknown workload field(s) {unknown}; allowed: {sorted(_SPEC_FIELDS)}"
        )
    doc["distribution"] = Distribution(doc.get("distribution", "geometric"))
    if doc.get("patch") is not None:
        doc["patch"] = Region(**doc["patch"])
    events = []
    for d in doc.get("events", ()):
        d = dict(d)
        kind = d.pop("kind")
        if kind not in ("inject", "remove"):
            raise ValueError(f"unknown event kind {kind!r}")
        d["region"] = Region(**d["region"])
        events.append(InjectionEvent(**d) if kind == "inject" else RemovalEvent(**d))
    doc["events"] = tuple(events)
    for key in ("k_choices", "m_choices"):
        if doc.get(key) is not None:
            doc[key] = tuple(doc[key])
    return PICSpec(**doc)
