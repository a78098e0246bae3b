"""Core PIC PRK: specification, kernel, initialization, verification.

This subpackage is the paper's primary contribution — the paper-and-pencil
specification of §III turned into executable, vectorized Python.
"""

from repro.core.mesh import Mesh
from repro.core.particles import ParticleArray, assign_charges, charge_magnitude
from repro.core.kernel import advance, compute_acceleration
from repro.core.initialization import initialize, integer_counts, column_weights
from repro.core.simulation import SerialSimulation, SerialResult, run_serial
from repro.core.spec import (
    Distribution,
    InjectionEvent,
    PICSpec,
    Region,
    RemovalEvent,
)
from repro.core.verification import (
    ParticleOrigins,
    VerificationResult,
    expected_checksum,
    expected_final_positions,
    initial_checksum,
    verify,
)

__all__ = [
    "Mesh",
    "ParticleArray",
    "assign_charges",
    "charge_magnitude",
    "advance",
    "compute_acceleration",
    "initialize",
    "integer_counts",
    "column_weights",
    "SerialSimulation",
    "SerialResult",
    "run_serial",
    "Distribution",
    "InjectionEvent",
    "PICSpec",
    "Region",
    "RemovalEvent",
    "ParticleOrigins",
    "VerificationResult",
    "expected_checksum",
    "expected_final_positions",
    "initial_checksum",
    "verify",
]
