"""The ``mpi-2d`` baseline: static 2D decomposition, no load balancing (§IV-A).

Processors form a near-square ``Px x Py`` grid; each owns one rectangular
block of the mesh for the whole run and pushes the particles residing in it.
After every push, particles that left the block are sent to their new owner.
Simple and perfectly adequate for uniform particle distributions — and the
performance victim of every skewed one, which is exactly the role it plays
in the paper's experiments.
"""

from __future__ import annotations

from repro.parallel.base import ParallelPICBase


class Mpi2dPIC(ParallelPICBase):
    """Baseline parallel implementation without load balancing."""

    name = "mpi-2d"
