"""The paper's three parallel PIC PRK reference implementations (§IV).

* :class:`repro.parallel.mpi2d.Mpi2dPIC` — static 2D block decomposition,
  no load balancing (the baseline, §IV-A).
* :class:`repro.parallel.mpi2d_lb.Mpi2dLbPIC` — application-specific
  diffusion load balancing on the 2D decomposition (§IV-B).
* :class:`repro.parallel.ampi.AmpiPIC` — AMPI-style over-decomposition into
  virtual processors with runtime-orchestrated load balancing (§IV-C).

All three run on the simulated MPI runtime, push real particles, and finish
with the §III-D verification, so a communication bug in any of them fails
tests rather than just skewing timings.
"""

from repro.parallel.base import ParallelResult, RankReturn
from repro.parallel.mpi2d import Mpi2dPIC
from repro.parallel.mpi2d_lb import Mpi2dLbPIC
from repro.parallel.ampi import AmpiPIC

#: The drivers by ``impl.name``, in the order the CLI offers them.
DRIVERS = {cls.name: cls for cls in (Mpi2dPIC, Mpi2dLbPIC, AmpiPIC)}

__all__ = ["ParallelResult", "RankReturn", "Mpi2dPIC", "Mpi2dLbPIC", "AmpiPIC", "DRIVERS"]
