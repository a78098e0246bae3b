"""The ``migrate()`` collective — the simulated ``MPI_Migrate`` of AMPI.

Calling :func:`migrate` from every VP's program triggers one load-balancing
round: VP loads and PUP state sizes are gathered, a strategy computes the
new VP->core mapping, VPs are re-pinned, and costs are charged —

* a centralized bookkeeping cost proportional to the VP count (the Charm++
  LB gathers statistics on one PE and broadcasts decisions), plus
* for each migrated VP, the transfer time of its PUP'd state between the
  old and new core at the machine's tier costs.

Everything after the collective simply runs with the new mapping: messages
between VPs are priced by their (possibly new) cores, so locality loss from
careless migration shows up as higher per-step communication time without
any further modelling.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ampi.loadbalancer import LoadBalancer
from repro.runtime.comm import Comm

#: Centralized LB bookkeeping seconds per VP per invocation (statistics
#: collection, strategy evaluation, decision broadcast).  An uncalibrated
#: prior: no figure was fitted to it, yet at fig7's 768-core point it is a
#: third of AMPI's simulated time and at 3 072 cores two thirds
#: (EXPERIMENTS.md deviation 5, DESIGN.md §2).
DEFAULT_STATS_S_PER_VP: float = 4.0e-6


@dataclass(frozen=True)
class MigrationReport:
    """Summary of one load-balancing round (same object on every VP)."""

    migrated: int
    moved_bytes: int


def migrate(
    comm: Comm,
    load: float,
    state_bytes: int,
    strategy: LoadBalancer,
    n_cores: int,
    stats_s_per_vp: float = DEFAULT_STATS_S_PER_VP,
    topology=None,
):
    """Collective load-balancing round; resumes with a MigrationReport.

    Must be yielded by every VP of ``comm``::

        report = yield from migrate(comm, my_load, my_bytes, GreedyLB(), P)

    ``load`` is this VP's measured work since the previous round (the
    runtime's heuristic that "the past can be used as a predictor for the
    future", §II); ``state_bytes`` is the PUP'd size of the VP.
    """

    def _rebalance(values, ctx):
        n = len(values)
        loads = [v[0] for v in values]
        sizes = [v[1] for v in values]
        mapping = [ctx.core_of(i) for i in range(n)]
        new_mapping = strategy.rebalance(loads, mapping, n_cores, topology=topology)

        stats_cost = stats_s_per_vp * n
        migrated = 0
        moved_bytes = 0
        for vp in range(n):
            old, new = mapping[vp], new_mapping[vp]
            ctx.add_time(vp, stats_cost)
            if old == new:
                continue
            migrated += 1
            moved_bytes += sizes[vp]
            # Wire transfer plus PUP on both endpoints (pack at the source,
            # unpack + thread/communicator rebuild at the destination) — the
            # PUP rate, not the link, dominates real AMPI migration.
            transfer = ctx.machine.transfer_time(old, new, sizes[vp])
            pup = 2.0 * sizes[vp] / ctx.cost.pup_bandwidth
            ctx.add_time(vp, transfer + pup)
            ctx.set_core(vp, new)
        report = MigrationReport(migrated=migrated, moved_bytes=moved_bytes)
        return [report] * n

    report = yield comm.user_collective((float(load), int(state_bytes)), _rebalance)
    return report
