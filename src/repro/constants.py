"""Physical and specification constants for the PIC PRK.

The paper (§III-B) fixes the ratio ``ke / m`` (Coulomb constant over particle
mass) to unity, and the reference PRK chooses unit mesh spacing, unit time
step and unit mesh charge magnitude so that the analytic verification of
§III-D holds to round-off even in finite-precision arithmetic.
"""

from __future__ import annotations

#: Default mesh spacing ``h``.  The paper recommends ``h = 1`` so that the
#: relative particle abscissa ``x_pi = h/2`` is exactly representable and the
#: per-step displacement is exact (§III-C).
DEFAULT_H: float = 1.0

#: Default time-step length ``dt``.  With ``dt = 1`` the vertical advection
#: ``v_y * dt = m * h`` is exact in IEEE-754 arithmetic.
DEFAULT_DT: float = 1.0

#: Default magnitude ``q`` of the fixed charges placed at the mesh points.
DEFAULT_Q: float = 1.0

#: Verification tolerance on final particle coordinates.  The upstream PRK
#: reference implementation uses the same value; the closed-form trajectory is
#: exact up to accumulated round-off, which stays many orders of magnitude
#: below this threshold for any practical number of time steps.
VERIFICATION_EPSILON: float = 1.0e-5

#: Number of float64 slots used when particles are packed into a flat buffer
#: for communication (see :mod:`repro.core.particles`).
PARTICLE_RECORD_FIELDS: int = 11
