"""``mpi-2d-LB``: application-specific diffusion load balancing (§IV-B).

Extends the baseline 2D decomposition with the paper's two-phase diffusion
scheme, restricted by default to the x direction — the configuration the
paper selected for its experiments, justified because the §III-E1 particle
cloud drifts along x.  The two-phase (x then y) variant is available via
``axes="xy"`` (and ``axes="y"`` for a rotated distribution).

Every ``lb_interval`` steps:

1. each column of processors sums its particle count (reduction over the
   column communicator);
2. the per-column totals are allgathered along each processor row, and every
   rank evaluates the same pure diffusion rule
   (:func:`repro.parallel.diffusion.diffuse_splits`) — so all ranks agree on
   the new split vector;
3. donated border cell-columns are "shipped" to the x-neighbors (the cost
   model charges the subgrid bytes; the mesh content itself is implicit) and
   the particles falling in them are re-routed with the standard exchange.

Tunables (``lb_interval``, ``threshold_fraction``, ``border_width``)
correspond to the paper's frequency / tau / border-width triple, which it
notes must be co-tuned.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.base import (
    TAG_SUBGRID,
    ParallelPICBase,
    exchange_particles,
)
from repro.parallel.diffusion import default_threshold, diffuse_splits
from repro.runtime.errors import RuntimeConfigError
from repro.runtime.reduce_ops import SUM


class Mpi2dLbPIC(ParallelPICBase):
    """Diffusion-balanced parallel implementation."""

    name = "mpi-2d-LB"

    PARAM_DEFAULTS = {
        "lb_interval": 50,
        "threshold_fraction": 0.1,
        "border_width": 1,
        "axes": "x",
        "min_width": 1,
    }

    @classmethod
    def resolve_params(cls, **given) -> dict:
        params = super().resolve_params(**given)
        if params["lb_interval"] < 1:
            raise RuntimeConfigError("lb_interval must be >= 1")
        if params["axes"] not in ("x", "y", "xy"):
            raise RuntimeConfigError("axes must be 'x', 'y' or 'xy'")
        if params["border_width"] < 1:
            raise RuntimeConfigError("border_width must be >= 1")
        if not 0 < params["threshold_fraction"]:
            raise RuntimeConfigError("threshold_fraction must be positive")
        return params

    def __init__(
        self,
        spec,
        n_cores,
        *,
        lb_interval: int | None = None,
        threshold_fraction: float | None = None,
        border_width: int | None = None,
        axes: str | None = None,
        min_width: int | None = None,
        **hooks,
    ):
        """None = :attr:`PARAM_DEFAULTS`; ``hooks`` go to the base constructor."""
        super().__init__(spec, n_cores, **hooks)
        # Sets lb_interval, threshold_fraction, border_width, axes, min_width.
        vars(self).update(self.resolve_params(
            lb_interval=lb_interval, threshold_fraction=threshold_fraction,
            border_width=border_width, axes=axes, min_width=min_width,
        ))

    # ------------------------------------------------------------------
    def setup_hook(self, comm, cart, state):
        # Column communicator: ranks sharing my processor-column index cx
        # (used for the per-column load reduction).  Row communicator: one
        # rank per column, ordered by cx (used to allgather column loads).
        state.extra["col_comm"] = yield cart.sub_y()
        state.extra["row_comm"] = yield cart.sub_x()

    def _impl_config(self):
        base = super()._impl_config()
        return base.with_params(
            lb_interval=self.lb_interval,
            threshold_fraction=self.threshold_fraction,
            border_width=self.border_width,
            axes=self.axes,
            min_width=self.min_width,
        )

    def lb_round_after(self, t):
        return (t + 1) % self.lb_interval == 0

    def lb_hook(self, comm, cart, state, t):
        # A straggler flag from the resilience watch forces an off-interval
        # diffusion round (see ParallelPICBase._lb_due).
        if not self._lb_due(state, t):
            return
        state.extra["lb_step"] = t
        if "x" in self.axes and cart.px > 1:
            yield from self._balance_axis(comm, cart, state, axis=0)
        if "y" in self.axes and cart.py > 1:
            yield from self._balance_axis(comm, cart, state, axis=1)

    # ------------------------------------------------------------------
    def _balance_axis(self, comm, cart, state, axis: int):
        """One diffusion step along ``axis`` (0 = x, 1 = y)."""
        cost = self.cost
        if axis == 0:
            along_comm = state.extra["col_comm"]   # sums over my column
            across_comm = state.extra["row_comm"]  # gathers across columns
            splits = state.partition.xsplits
            my_index = cart.coords[0]
            lo, hi = state.partition.y_range(cart.coords[1])
        else:
            along_comm = state.extra["row_comm"]
            across_comm = state.extra["col_comm"]
            splits = state.partition.ysplits
            my_index = cart.coords[1]
            lo, hi = state.partition.x_range(cart.coords[0])
        span = hi - lo  # my block extent perpendicular to the balanced axis

        # Default load: particle count.  With a warmed-up straggler watch,
        # use measured per-rank step seconds instead — a perturbed (slow)
        # rank then weighs more than its particle count says, so diffusion
        # converges to a time-balanced rather than count-balanced split.
        my_load = float(len(state.particles))
        watch = self._watch()
        if watch is not None and watch.ready():
            my_load = watch.load(comm.world_rank, my_load)
        block_load = yield along_comm.allreduce(my_load, op=SUM)
        loads = yield across_comm.allgather(block_load)
        loads = np.asarray(loads, dtype=np.float64)
        tau = default_threshold(float(loads.sum()), len(loads), self.threshold_fraction)
        new_splits = diffuse_splits(
            loads, splits, tau, self.border_width, self.min_width
        )
        if np.array_equal(new_splits, splits):
            return

        # Ship donated border subgrids to the axis neighbors.  The mesh
        # charges are implicit (column parity), but the paper's code moves
        # the stored grid, so we charge the equivalent bytes and handling.
        delta_lo = int(new_splits[my_index] - splits[my_index])
        delta_hi = int(new_splits[my_index + 1] - splits[my_index + 1])
        to_prev = max(0, delta_lo) * span
        from_prev = max(0, -delta_lo) * span
        to_next = max(0, -delta_hi) * span
        from_next = max(0, delta_hi) * span

        handled = to_prev + from_prev + to_next + from_next
        if handled:
            yield comm.compute(cost.subgrid_migration_time(handled))
        src_prev, dst_next = cart.shift(axis, 1)
        src_next, dst_prev = cart.shift(axis, -1)
        yield comm.sendrecv(
            None, dst=dst_prev, src=src_next,
            sendtag=TAG_SUBGRID + axis, recvtag=TAG_SUBGRID + axis,
            nbytes=cost.subgrid_wire_bytes(to_prev),
        )
        yield comm.sendrecv(
            None, dst=dst_next, src=src_prev,
            sendtag=TAG_SUBGRID + 2 + axis, recvtag=TAG_SUBGRID + 2 + axis,
            nbytes=cost.subgrid_wire_bytes(to_next),
        )

        if axis == 0:
            state.partition = state.partition.with_xsplits(new_splits)
        else:
            state.partition = state.partition.with_ysplits(new_splits)
        if cart.rank == 0:
            moved_cols = int(np.abs(new_splits - splits).sum())
            if self.tracer is not None:
                from repro.instrument import LbEvent

                self.tracer.record_event(
                    LbEvent(step=state.extra.get("lb_step", -1), kind="diffusion",
                            moved=moved_cols, detail=f"axis={axis}")
                )
            if self.metrics is not None:
                self.metrics.counter("lb.diffusion_rounds").inc()
                self.metrics.counter("lb.boundary_cols_moved").inc(moved_cols)
            if self.span_tracer is not None:
                self.span_tracer.instant(
                    "diffusion_lb", "lb", comm.world_rank, comm.core(),
                    comm.wtime(), axis=axis, moved_cols=moved_cols,
                )
        state.particles = yield from exchange_particles(
            comm, cart, state.partition, self.mesh, state.particles, cost
        )
