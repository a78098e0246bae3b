"""Hierarchical machine model — the substitute for the paper's Edison testbed.

The paper ran on Edison, a Cray XC30 with two 12-core Intel Xeon E5-2695v2
sockets per node and a Dragonfly (Aries) interconnect.  What its experiments
actually exercise is the *cost hierarchy*: messages between cores of the same
socket are cheapest, cross-socket messages cost more, and inter-node messages
are "orders of magnitude more expensive" than shared memory (§V-B).

:class:`MachineModel` captures exactly that hierarchy: a rank is pinned to a
core (block mapping: consecutive ranks fill a socket, then the next socket,
then the next node), and every pair of cores falls into a :class:`Tier` with
its own latency and bandwidth.  The default parameters are of the order
measured on XC30-class systems; the figures reproduced in ``benchmarks/``
only depend on their relative magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

from repro.runtime.errors import RuntimeConfigError


class Tier(IntEnum):
    """Communication distance classes, cheapest first."""

    SELF = 0      # same core (e.g. two VPs co-located by AMPI)
    SOCKET = 1    # same socket, different core
    NODE = 2      # same node, different socket
    NETWORK = 3   # different nodes


@dataclass(frozen=True)
class TierCosts:
    """Latency (seconds) and bandwidth (bytes/second) of one tier."""

    latency: float
    bandwidth: float

    def __post_init__(self) -> None:
        if self.latency < 0 or self.bandwidth <= 0:
            raise RuntimeConfigError(
                f"invalid tier costs: latency={self.latency}, "
                f"bandwidth={self.bandwidth}"
            )

    def transfer_time(self, nbytes: float) -> float:
        return self.latency + nbytes / self.bandwidth


@dataclass(frozen=True)
class MachineModel:
    """A cluster of identical nodes with a two-level intra-node hierarchy."""

    cores_per_socket: int = 12
    sockets_per_node: int = 2
    tier_costs: dict[Tier, TierCosts] = field(
        default_factory=lambda: {
            # Same-core delivery (co-scheduled VPs): a cache-resident copy.
            Tier.SELF: TierCosts(latency=5e-8, bandwidth=20e9),
            # Shared L3 / memory bus within one socket.
            Tier.SOCKET: TierCosts(latency=3e-7, bandwidth=8e9),
            # QPI hop between sockets of one node.
            Tier.NODE: TierCosts(latency=8e-7, bandwidth=5e9),
            # Aries network between nodes.
            Tier.NETWORK: TierCosts(latency=2.5e-6, bandwidth=2.5e9),
        }
    )
    name: str = "edison-like"

    def __post_init__(self) -> None:
        if self.cores_per_socket <= 0 or self.sockets_per_node <= 0:
            raise RuntimeConfigError("machine geometry must be positive")
        missing = [t for t in Tier if t not in self.tier_costs]
        if missing:
            raise RuntimeConfigError(f"missing tier costs for {missing}")

    # ------------------------------------------------------------------
    @property
    def cores_per_node(self) -> int:
        return self.cores_per_socket * self.sockets_per_node

    def socket_of(self, core: int) -> int:
        """Global socket index of a core (block mapping)."""
        return core // self.cores_per_socket

    def node_of(self, core: int) -> int:
        return core // self.cores_per_node

    def nodes_for_cores(self, n_cores: int) -> int:
        """Number of nodes a job of ``n_cores`` occupies (block allocation)."""
        return -(-n_cores // self.cores_per_node)

    def tier_between(self, core_a: int, core_b: int) -> Tier:
        """Communication tier between two cores."""
        if core_a == core_b:
            return Tier.SELF
        if self.socket_of(core_a) == self.socket_of(core_b):
            return Tier.SOCKET
        if self.node_of(core_a) == self.node_of(core_b):
            return Tier.NODE
        return Tier.NETWORK

    def costs(self, tier: Tier) -> TierCosts:
        return self.tier_costs[tier]

    def link(self, core_a: int, core_b: int) -> TierCosts:
        """Costs of the link joining two cores: the one definition of a
        point-to-point message's price (the scheduler caches it per core
        pair; :meth:`transfer_time` reads it afresh)."""
        return self.tier_costs[self.tier_between(core_a, core_b)]

    def transfer_time(self, core_a: int, core_b: int, nbytes: float) -> float:
        """Point-to-point message time between two cores."""
        return self.link(core_a, core_b).transfer_time(nbytes)

    def worst_tier(self, cores) -> Tier:
        """The widest tier spanned by a group of cores (collective pricing)."""
        cores = list(cores)
        if len(cores) <= 1:
            return Tier.SELF
        first = cores[0]
        worst = Tier.SELF
        for c in cores[1:]:
            t = self.tier_between(first, c)
            if t > worst:
                worst = t
                if worst is Tier.NETWORK:
                    break
        return worst


def laptop_model() -> MachineModel:
    """A small shared-memory machine (useful in examples and tests)."""
    return MachineModel(cores_per_socket=4, sockets_per_node=2, name="laptop")


def edison_model() -> MachineModel:
    """The default Edison-like model (2 x 12 cores per node)."""
    return MachineModel()
