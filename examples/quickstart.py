#!/usr/bin/env python3
"""Quickstart: specify, run and verify a PIC PRK instance (serial).

The PIC PRK is *self-verifying*: the constrained initialization (paper
§III-C) makes every particle's trajectory analytically known, so after any
number of steps the simulation can check itself exactly — which is what
makes the kernel usable as a correctness-preserving benchmark for load
balancers.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import Distribution, PICSpec, SerialSimulation
from repro.core.simulation import serial_work_profile


def ascii_histogram(profile, width=60, label="column"):
    top = profile.max() or 1
    step = max(1, len(profile) // 16)
    lines = []
    for i in range(0, len(profile), step):
        chunk = profile[i : i + step].mean()
        bar = "#" * int(round(chunk / top * width))
        lines.append(f"{label} {i:4d}  {bar} {chunk:.0f}")
    return "\n".join(lines)


def main():
    # A 128x128-cell periodic domain, 20,000 particles in the paper's skewed
    # geometric distribution, drifting one cell per step (k=0) and two cells
    # per step vertically (m=2).
    spec = PICSpec(
        cells=128,
        n_particles=20_000,
        steps=100,
        distribution=Distribution.GEOMETRIC,
        r=0.97,
        k=0,
        m_vertical=2,
    )
    print(f"spec: {spec.describe()}")

    print("\nInitial particles per cell column (the induced load imbalance):")
    print(ascii_histogram(serial_work_profile(spec)))

    sim = SerialSimulation(spec)
    result = sim.run()
    v = result.verification
    print(f"\nafter {result.steps} steps: {v}")
    print(f"total particle pushes: {result.particle_pushes:,}")
    assert v.ok, "verification must pass"

    # The closed form behind the verification (Eqs. 5-6): every particle
    # moved exactly (2k+1)*steps cells right and m*steps cells up, modulo L.
    # Particles carry only their state; the birth positions are looked up
    # by particle id.
    p = result.particles
    s = spec.steps
    x0 = sim.origins.x0[p.pid - 1]
    expected_x = np.mod(x0 + (2 * spec.k + 1) * s * spec.h, spec.L)
    print(
        "max |x - closed_form(x)| =",
        float(np.abs(np.minimum(np.abs(p.x - expected_x),
                                spec.L - np.abs(p.x - expected_x))).max()),
    )


if __name__ == "__main__":
    main()
