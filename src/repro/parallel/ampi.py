"""The ``ampi`` implementation: over-decomposed VPs + runtime LB (§IV-C).

Porting the baseline to AMPI is, as the paper notes, "conceptually trivial":
the algorithm of §IV-A runs unchanged, but over ``d`` times more ranks
(virtual processors), each initially pinned to a core in contiguous blocks.
Every ``lb_interval`` steps all VPs call ``migrate()`` and the runtime's
load balancer re-pins them — oblivious to the problem's spatial structure.

The two AMPI tunables of the paper's Fig. 5 are constructor arguments:
``overdecomposition`` (d) and ``lb_interval`` (F).
"""

from __future__ import annotations

from repro.ampi.loadbalancer import (
    GreedyTransferLB,
    LoadBalancer,
    MeteredLB,
    VpTopology,
)
from repro.ampi.pup import vp_state_bytes
from repro.ampi.runtime import DEFAULT_STATS_S_PER_VP, migrate
from repro.parallel.base import ParallelPICBase
from repro.runtime.errors import RuntimeConfigError


class AmpiPIC(ParallelPICBase):
    """AMPI-style implementation with runtime-orchestrated load balancing."""

    name = "ampi"

    PARAM_DEFAULTS = {
        "overdecomposition": 4,
        "lb_interval": 100,
        "strategy": GreedyTransferLB.__name__,
        "stats_s_per_vp": DEFAULT_STATS_S_PER_VP,
    }

    @classmethod
    def resolve_params(cls, **given) -> dict:
        params = super().resolve_params(**given)
        if params["overdecomposition"] < 1:
            raise RuntimeConfigError("overdecomposition degree must be >= 1")
        if params["lb_interval"] < 1:
            raise RuntimeConfigError("lb_interval must be >= 1")
        return params

    def __init__(
        self,
        spec,
        n_cores,
        *,
        overdecomposition: int | None = None,
        lb_interval: int | None = None,
        strategy: LoadBalancer | None = None,
        stats_s_per_vp: float | None = None,
        **hooks,
    ):
        """None = :attr:`PARAM_DEFAULTS`; ``hooks`` go to the base constructor."""
        super().__init__(spec, n_cores, **hooks)
        params = self.resolve_params(
            overdecomposition=overdecomposition, lb_interval=lb_interval,
            stats_s_per_vp=stats_s_per_vp,
        )
        self.overdecomposition = params["overdecomposition"]
        self.lb_interval = params["lb_interval"]
        self.strategy = strategy if strategy is not None else GreedyTransferLB()
        if self.metrics is not None:
            # Observe strategy invocations, per-round moves and locality.
            self.strategy = MeteredLB(self.strategy, self.metrics)
        self.stats_s_per_vp = params["stats_s_per_vp"]

    # ------------------------------------------------------------------
    @property
    def n_ranks(self) -> int:
        return self.n_cores * self.overdecomposition

    def initial_rank_to_core(self) -> list[int]:
        """Contiguous blocks of VPs per core.

        With row-major VP ranks, consecutive VPs own vertically adjacent
        subgrids, so the initial mapping keeps each core's subdomain compact
        — the favourable starting point the paper assumes before the
        locality-agnostic balancer erodes it.
        """
        d = self.overdecomposition
        return [vp // d for vp in range(self.n_ranks)]

    def per_step_overhead(self) -> float:
        """User-level scheduling cost of one VP for one step."""
        return self.cost.vp_scheduling_s

    def _impl_config(self):
        strategy = self.strategy
        if isinstance(strategy, MeteredLB):
            strategy = strategy.inner  # metrics wrapper, not part of identity
        return super()._impl_config().with_params(
            overdecomposition=self.overdecomposition,
            lb_interval=self.lb_interval,
            strategy=type(strategy).__name__,
            stats_s_per_vp=self.stats_s_per_vp,
        )

    def lb_hook(self, comm, cart, state, t):
        state.extra["load"] = state.extra.get("load", 0) + len(state.particles)
        # A straggler flag forces an off-interval migrate() round.
        if not self._lb_due(state, t, self.lb_interval):
            return
        subgrid_cells = self._my_subgrid_cells(cart, state)
        load = float(state.extra["load"])
        state.extra["load"] = 0
        # With a warmed-up straggler watch, report measured VP step seconds
        # instead of accumulated particle counts: a VP pinned to a slowed
        # core then looks heavy and the balancer moves work off that core.
        watch = self._watch()
        if watch is not None and watch.ready():
            load = watch.load(comm.world_rank, load)
        report = yield from migrate(
            comm,
            load,
            vp_state_bytes(
                state.particles,
                subgrid_cells,
                particle_byte_scale=self.cost.particle_byte_scale,
                cell_byte_scale=self.cost.cell_byte_scale,
            ),
            self.strategy,
            self.n_cores,
            stats_s_per_vp=self.stats_s_per_vp,
            topology=VpTopology(cart.dims),
        )
        state.extra["migrations"] = state.extra.get("migrations", 0) + report.migrated
        if comm.rank == 0 and report.migrated:
            if self.tracer is not None:
                from repro.instrument import LbEvent

                self.tracer.record_event(
                    LbEvent(step=t, kind="migrate", moved=report.migrated)
                )
            if self.metrics is not None:
                self.metrics.counter("lb.migrated_vps").inc(report.migrated)
                self.metrics.counter("lb.migrated_bytes").inc(report.moved_bytes)

    @staticmethod
    def _my_subgrid_cells(cart, state) -> int:
        cx, cy = cart.coords
        return state.partition.block_cells(cx, cy)
