"""Serial reference implementation of the PIC PRK.

This is the "paper and pencil" kernel executed on one processor: initialize,
loop ``T`` time steps (events fire before the push of their step), verify.
It is the ground truth every parallel implementation is compared against in
the test suite, and the baseline for the paper's speedup numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import events as ev
from repro.core import kernel, verification
from repro.core.initialization import initialize
from repro.core.mesh import Mesh
from repro.core.particles import ParticleArray
from repro.core.spec import PICSpec


@dataclass
class SerialResult:
    """Outcome of a serial run."""

    particles: ParticleArray
    verification: verification.VerificationResult
    steps: int
    removed_ids_sum: int
    #: Number of particles pushed, summed over all steps (work measure).
    particle_pushes: int


@dataclass
class SerialSimulation:
    """Single-process PIC PRK driver.

    Example
    -------
    >>> from repro.core.spec import PICSpec, Distribution
    >>> spec = PICSpec(cells=64, n_particles=1000, steps=10,
    ...                distribution=Distribution.GEOMETRIC, r=0.99)
    >>> result = SerialSimulation(spec).run()
    >>> result.verification.ok
    True
    """

    spec: PICSpec
    mesh: Mesh = field(init=False)
    particles: ParticleArray = field(init=False)
    origins: verification.ParticleOrigins = field(init=False)

    def __post_init__(self) -> None:
        self.mesh = Mesh(self.spec.cells, self.spec.h, self.spec.q)
        self.particles = initialize(self.spec, self.mesh)
        self.origins = verification.ParticleOrigins.build(
            self.spec, self.particles,
            ev.materialize_injections(self.spec, self.mesh).values(),
        )

    # ------------------------------------------------------------------
    def step(self, t: int) -> int:
        """Apply events for step ``t`` and push all particles once.

        Returns the summed ids of particles removed at this step (0 when no
        removal fired), so the caller can maintain the expected checksum.
        """
        removed_ids = 0
        if ev.has_events_at(self.spec, t):
            self.particles, outcome = ev.apply_events_locally(
                self.spec, self.mesh, self.particles, t
            )
            removed_ids = outcome.removed_ids_sum
        kernel.advance(self.mesh, self.particles, self.spec.dt)
        return removed_ids

    def run(self) -> SerialResult:
        """Run all ``spec.steps`` time steps and verify."""
        removed_ids_sum = 0
        pushes = 0
        for t in range(self.spec.steps):
            removed_ids_sum += self.step(t)
            pushes += len(self.particles)
        expected = verification.expected_checksum(self.spec, removed_ids_sum)
        result = verification.verify(
            self.mesh, self.particles, self.spec.steps, expected, self.origins
        )
        return SerialResult(
            particles=self.particles,
            verification=result,
            steps=self.spec.steps,
            removed_ids_sum=removed_ids_sum,
            particle_pushes=pushes,
        )


def run_serial(spec: PICSpec) -> SerialResult:
    """Convenience wrapper: build and run a :class:`SerialSimulation`."""
    return SerialSimulation(spec).run()


def serial_work_profile(spec: PICSpec) -> np.ndarray:
    """Particles per cell column at initialization (load-imbalance preview).

    Useful for plotting the §III-E distributions and for tests asserting the
    geometric-ratio property of Eq. 8.
    """
    mesh = Mesh(spec.cells, spec.h, spec.q)
    particles = initialize(spec, mesh)
    cols = particles.cell_columns(mesh)
    return np.bincount(cols, minlength=spec.cells)
