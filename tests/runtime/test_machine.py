"""Tests for the hierarchical machine model (Edison substitute)."""

import pytest

from repro.runtime.errors import RuntimeConfigError
from repro.runtime.machine import (
    MachineModel,
    Tier,
    TierCosts,
)


class TestTierCosts:
    def test_transfer_time(self):
        tc = TierCosts(latency=1e-6, bandwidth=1e9)
        assert tc.transfer_time(0) == 1e-6
        assert tc.transfer_time(1e9) == pytest.approx(1.0 + 1e-6)

    def test_invalid_costs_rejected(self):
        with pytest.raises(RuntimeConfigError):
            TierCosts(latency=-1.0, bandwidth=1e9)
        with pytest.raises(RuntimeConfigError):
            TierCosts(latency=1e-6, bandwidth=0.0)


class TestTopology:
    def test_edison_geometry(self):
        m = MachineModel()
        assert m.cores_per_node == 24

    def test_socket_and_node_mapping(self):
        m = MachineModel(cores_per_socket=2, sockets_per_node=2)
        assert [m.socket_of(c) for c in range(6)] == [0, 0, 1, 1, 2, 2]
        assert [m.node_of(c) for c in range(6)] == [0, 0, 0, 0, 1, 1]

    def test_tier_between(self):
        m = MachineModel(cores_per_socket=2, sockets_per_node=2)
        assert m.tier_between(0, 0) is Tier.SELF
        assert m.tier_between(0, 1) is Tier.SOCKET
        assert m.tier_between(0, 2) is Tier.NODE
        assert m.tier_between(0, 4) is Tier.NETWORK

    def test_tier_symmetry(self):
        m = MachineModel()
        for a, b in [(0, 5), (0, 13), (3, 40)]:
            assert m.tier_between(a, b) is m.tier_between(b, a)

    def test_tier_ordering_costs_increase(self):
        """The cost hierarchy must be monotone: SELF < SOCKET < NODE < NETWORK."""
        m = MachineModel()
        lat = [m.costs(t).latency for t in Tier]
        assert lat == sorted(lat)
        bw = [m.costs(t).bandwidth for t in Tier]
        assert bw == sorted(bw, reverse=True)

    def test_worst_tier(self):
        m = MachineModel(cores_per_socket=2, sockets_per_node=2)
        assert m.worst_tier([0]) is Tier.SELF
        assert m.worst_tier([0, 1]) is Tier.SOCKET
        assert m.worst_tier([0, 1, 2]) is Tier.NODE
        assert m.worst_tier([0, 1, 2, 5]) is Tier.NETWORK

    def test_transfer_time_cheaper_within_socket(self):
        m = MachineModel()
        n = 8192
        assert m.transfer_time(0, 1, n) < m.transfer_time(0, 13, n) < m.transfer_time(0, 25, n)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(RuntimeConfigError):
            MachineModel(cores_per_socket=0)

    def test_missing_tier_rejected(self):
        with pytest.raises(RuntimeConfigError):
            MachineModel(tier_costs={Tier.SELF: TierCosts(1e-9, 1e9)})
