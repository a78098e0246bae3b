"""Cost model: converts work and communication into simulated seconds.

The PIC PRK's performance behaviour (paper §V) is governed by a handful of
rates:

* particle push time — compute per step is linear in the local particle
  count (this is the property Eqs. 7-8 build the imbalance analysis on);
* per-particle pack/unpack time when particles are communicated;
* per-cell handling time when subgrids are migrated during load balancing;
* message latency/bandwidth per machine tier (see
  :mod:`repro.runtime.machine`);
* collective costs, modelled as log2(P) latency-bound stages at the widest
  tier the communicator spans.

The default ``particle_push_s`` is calibrated so that the paper's serial
baseline (600 k particles x 6,000 steps ≈ 500 s, backed out of the 179x
speedup at 384 cores in §V-B) is matched by the model at full scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.runtime.machine import MachineModel, Tier


def check_cost_rates(rates) -> None:
    """Range-check the rates of a :class:`CostModel` (or ``config.CostConfig``)."""
    for name in ("particle_push_s", "particle_pack_s", "cell_handling_s",
                 "message_overhead_s", "vp_scheduling_s"):
        if getattr(rates, name) < 0:
            raise ValueError(f"{name} must be non-negative")
    if rates.particle_byte_scale <= 0 or rates.cell_byte_scale <= 0:
        raise ValueError("byte scales must be positive")


@dataclass(frozen=True)
class CostModel:
    """Simulated-time cost model bound to a machine model."""

    machine: MachineModel = field(default_factory=MachineModel)
    #: Seconds to push one particle one step (force + integration).
    particle_push_s: float = 1.4e-7
    #: Seconds per particle to pack/unpack for communication.
    particle_pack_s: float = 1.5e-8
    #: Seconds per mesh cell to pack/apply when a subgrid changes owner.
    cell_handling_s: float = 4.0e-9
    #: Fixed software overhead per point-to-point message (send+recv sides
    #: combined): matching, progress engine, buffer management.  Paid per
    #: message regardless of size, so an over-decomposed run pays it ``d``
    #: times more often per core — one of AMPI's intrinsic costs.
    message_overhead_s: float = 2.0e-6
    #: Per-step scheduling overhead of one virtual processor (AMPI): user-level
    #: context switch plus message-queue handling.
    vp_scheduling_s: float = 3.0e-6
    #: Byte-volume multipliers for scaled-down workloads (see
    #: repro.bench.workloads): a particle buffer of n bytes is priced as
    #: ``n * particle_byte_scale`` on the wire, and a subgrid of c cells as
    #: ``c * cell_byte_scale`` cells.  Both default to 1 (true sizes).
    particle_byte_scale: float = 1.0
    cell_byte_scale: float = 1.0
    #: Effective serialize/deserialize rate of VP migration (bytes/s).  Far
    #: below raw link bandwidth: PUP packing, allocation, thread and
    #: communicator rebuild.  Backed out of the paper's Fig. 5, whose
    #: F-sweep implies an MPI_Migrate invocation cost of order 10^-1 s
    #: for ~MB-sized VPs (see EXPERIMENTS.md).
    pup_bandwidth: float = 2.0e8

    def __post_init__(self) -> None:
        check_cost_rates(self)

    # ------------------------------------------------------------------
    # Scaled byte volumes
    # ------------------------------------------------------------------
    def particle_wire_bytes(self, nbytes: int) -> int:
        """Wire bytes charged for a particle payload of true size nbytes."""
        return int(nbytes * self.particle_byte_scale)

    def subgrid_wire_bytes(self, n_cells: int, bytes_per_cell: int = 8) -> int:
        """Wire bytes charged for migrating ``n_cells`` of stored mesh."""
        return int(n_cells * self.cell_byte_scale) * bytes_per_cell

    # ------------------------------------------------------------------
    # Compute
    # ------------------------------------------------------------------
    def push_time(self, n_particles: int) -> float:
        """Compute time to push ``n_particles`` one step."""
        return n_particles * self.particle_push_s

    def pack_time(self, n_particles: int) -> float:
        """Marshalling time for ``n_particles`` entering/leaving a message."""
        return n_particles * self.particle_pack_s

    def subgrid_migration_time(self, n_cells: int) -> float:
        """Handling time for a migrated subgrid, in scaled (paper) cells."""
        return n_cells * self.cell_byte_scale * self.cell_handling_s

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def message_time(self, src_core: int, dst_core: int, nbytes: float) -> float:
        """Wire time of one message between two cores (``machine.link``)."""
        return self.machine.transfer_time(src_core, dst_core, nbytes)

    def send_overhead(self) -> float:
        """CPU time spent by the sender initiating a message."""
        return 0.5 * self.message_overhead_s

    def recv_overhead(self) -> float:
        """CPU time spent by the receiver completing a message."""
        return 0.5 * self.message_overhead_s

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def collective_time(self, kind: str, cores, nbytes: float) -> float:
        """Cost of one collective over the given participant cores.

        Modelled as ``ceil(log2 P)`` stages of the widest tier's latency plus
        a bandwidth term on the moved payload.  ``kind`` scales the payload
        factor: a barrier moves none, the all-collectives move it twice
        (reduce or gather, then distribute), everything else once.
        """
        cores = list(cores)
        p = len(cores)
        if p <= 1:
            return 0.0
        tier = self.machine.worst_tier(cores)
        costs = self.machine.costs(tier)
        stages = max(1, math.ceil(math.log2(p)))
        factor = {"barrier": 0.0, "allreduce": 2.0, "allgather": 2.0}.get(kind, 1.0)
        return stages * costs.latency + factor * nbytes / costs.bandwidth


#: Nominal push rates (particles/sec) per kernel backend.  Order-of-
#: magnitude priors, not measurements: python is the numpy fused kernel on
#: one core, compiled the C kernel (>= 3x the python one, with headroom).
#: Their one use is the campaign ordering prior: the fabric's
#: ``schedule_order`` prices a point's pushes at its backend's rate
#: (:func:`predicted_point_seconds`) to start the longest points first.
NOMINAL_BACKEND_RATES = {"python": 2.0e7, "compiled": 1.0e8}


#: Nominal wall seconds a rank costs per step *besides* its pushes (generator
#: resumes, message matching, exchange bookkeeping).  From the layered
#: benchmark's ``sweep_cold`` (2-vCPU sandbox, python kernel, 20 000
#: particles x 48 steps): a 4-rank mpi-2d point ran 0.07 s, a 64-rank ampi
#: point 0.45 s — ~130 us per rank-step on top of ~33 ns per push.
NOMINAL_RANK_STEP_S = 1.3e-4


def nominal_backend_rate(backend: str) -> float:
    """The nominal pushes/sec prior for a concrete kernel backend name."""
    try:
        return NOMINAL_BACKEND_RATES[backend]
    except KeyError:
        raise ValueError(
            f"no nominal rate for kernel backend {backend!r}; "
            f"known: {', '.join(sorted(NOMINAL_BACKEND_RATES))}"
        ) from None


def predicted_point_pushes(n_particles: int, steps: int) -> int:
    """Predicted kernel pushes one sweep point executes (particles x steps).

    The campaign fabric orders pending points by this prediction (scaled
    through :func:`predicted_point_seconds`) so the longest-expected points
    start first and the sweep tail does not serialize behind a straggler —
    the longest-processing-time-first heuristic, seeded from the model
    rather than from measurements the first run does not have yet.
    """
    if n_particles < 0 or steps < 0:
        raise ValueError("n_particles and steps must be non-negative")
    return int(n_particles) * int(steps)


def predicted_point_seconds(
    pushes: int, backend: str = "python", *, n_ranks: int = 0, steps: int = 0
) -> float:
    """Predicted wall seconds of a point: its pushes at ``backend``'s nominal
    rate plus :data:`NOMINAL_RANK_STEP_S` for each of ``n_ranks * steps``.

    An *ordering prior*, not a forecast: absolute values are wrong on any
    given host, but the ratios between points (the only thing a
    longest-first scheduler consumes) track particle, step and rank counts
    and the relative backend speeds of :data:`NOMINAL_BACKEND_RATES`.  The
    rank-step term tells the points of a strong-scaling sweep apart: they
    all push the same particles, and the 384-core one takes the longest.
    """
    if n_ranks < 0 or steps < 0:
        raise ValueError("n_ranks and steps must be non-negative")
    seconds = pushes / nominal_backend_rate(backend)
    return seconds + n_ranks * steps * NOMINAL_RANK_STEP_S


def payload_nbytes(value) -> int:
    """Best-effort byte size of a message payload.

    NumPy arrays report their buffer size; containers are summed
    element-wise; scalars count as 8 bytes.  This feeds the bandwidth term of
    the cost model — approximate sizes are fine, but systematically ignoring
    a large particle buffer would distort the figures, so arrays must be
    exact.
    """
    kind = type(value)
    if kind is int or kind is float:  # the common payload: a count or a load
        return 8
    if value is None:
        return 0
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (tuple, list)):
        return 8
    total = 0
    for v in value:
        total += payload_nbytes(v)
    return total
