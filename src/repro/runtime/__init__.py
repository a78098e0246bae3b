"""Simulated MPI runtime.

A deterministic message-passing runtime in which SPMD rank programs are
Python *generators* that yield communication operations to a scheduler
(:mod:`repro.runtime.scheduler`).  The API (:mod:`repro.runtime.comm`)
mirrors the mpi4py/MPI surface the paper's reference implementations use:
point-to-point send/recv (with wildcards and non-overtaking order),
collectives (barrier, bcast, reduce, allreduce, gather(v), alltoall(v),
scan, split) and Cartesian topologies.

Each rank carries a virtual clock.  Compute phases charge time through a
cost model (:mod:`repro.runtime.costmodel`) and messages/collectives advance
clocks according to a hierarchical machine model
(:mod:`repro.runtime.machine`), so a completed run yields a *simulated*
execution time comparable across implementations — the substitute for the
paper's wall-clock measurements on Edison (see DESIGN.md §2).
"""

from repro.runtime.comm import ANY_SOURCE, ANY_TAG, Comm
from repro.runtime.cart import CartComm
from repro.runtime.errors import CollectiveMismatchError, DeadlockError, RuntimeConfigError
from repro.runtime.machine import MachineModel, Tier
from repro.runtime.costmodel import CostModel
from repro.runtime.reduce_ops import MAX, MIN, PROD, SUM
from repro.runtime.scheduler import Scheduler, SpmdResult, run_spmd
from repro.runtime.engine import (
    ENGINE_BLOCKED,
    ENGINE_FINISHED,
    ENGINE_RUNNING,
    SimEngine,
)

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Comm",
    "CartComm",
    "CollectiveMismatchError",
    "DeadlockError",
    "RuntimeConfigError",
    "MachineModel",
    "Tier",
    "CostModel",
    "SUM",
    "MAX",
    "MIN",
    "PROD",
    "Scheduler",
    "SpmdResult",
    "run_spmd",
    "SimEngine",
    "ENGINE_RUNNING",
    "ENGINE_BLOCKED",
    "ENGINE_FINISHED",
]
