"""Simulated MPI runtime.

A deterministic message-passing runtime in which SPMD rank programs are
Python *generators* that yield communication operations to a scheduler
(:mod:`repro.runtime.scheduler`).  The API (:mod:`repro.runtime.comm`)
offers the MPI operations the paper's reference implementations use:
blocking send/recv and sendrecv with an exact peer and tag (in
non-overtaking order), the collectives barrier, allreduce (SUM, MAX),
allgather, split and a user-defined collective, Cartesian topologies
(create_cart), and compute/step for compute time.

Each rank carries a virtual clock.  Compute phases charge time through a
cost model (:mod:`repro.runtime.costmodel`) and messages/collectives advance
clocks according to a hierarchical machine model
(:mod:`repro.runtime.machine`), so a completed run yields a *simulated*
execution time comparable across implementations — the substitute for the
paper's wall-clock measurements on Edison (see DESIGN.md §2).
"""

from repro.runtime.comm import Comm
from repro.runtime.cart import CartComm
from repro.runtime.errors import CollectiveMismatchError, DeadlockError, RuntimeConfigError
from repro.runtime.machine import MachineModel, Tier
from repro.runtime.costmodel import CostModel
from repro.runtime.reduce_ops import MAX, SUM
from repro.runtime.scheduler import Scheduler, SpmdResult, run_spmd
from repro.runtime.engine import (
    ENGINE_BLOCKED,
    ENGINE_FINISHED,
    ENGINE_RUNNING,
    SimEngine,
)

__all__ = [
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
    "Scheduler",
    "SpmdResult",
    "run_spmd",
    "SimEngine",
    "ENGINE_RUNNING",
    "ENGINE_BLOCKED",
    "ENGINE_FINISHED",
]
