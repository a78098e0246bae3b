"""Tests for the simulated-time cost model."""

import numpy as np
import pytest

from repro.runtime.costmodel import (
    CostModel,
    nominal_backend_rate,
    payload_nbytes,
    predicted_point_pushes,
    predicted_point_seconds,
)
from repro.runtime.machine import MachineModel, Tier


class TestComputeCosts:
    def test_push_time_linear(self):
        cm = CostModel()
        assert cm.push_time(2000) == pytest.approx(2 * cm.push_time(1000))

    def test_pack_and_subgrid_linear(self):
        cm = CostModel()
        assert cm.pack_time(100) == pytest.approx(100 * cm.particle_pack_s)
        assert cm.subgrid_migration_time(100) == pytest.approx(
            100 * cm.cell_byte_scale * cm.cell_handling_s)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            CostModel(particle_push_s=-1.0)

    def test_calibration_magnitude(self):
        """Default push rate reproduces the paper's serial scale:
        600k particles x 6000 steps should be O(hundreds of seconds)."""
        cm = CostModel()
        serial = cm.push_time(600_000) * 6000
        assert 100 < serial < 2000


class TestMessageCosts:
    def test_message_time_uses_tiers(self):
        m = MachineModel(cores_per_socket=2, sockets_per_node=2)
        cm = CostModel(machine=m)
        n = 65536
        assert cm.message_time(0, 1, n) < cm.message_time(0, 2, n) < cm.message_time(0, 4, n)

    def test_overheads_split(self):
        cm = CostModel()
        assert cm.send_overhead() + cm.recv_overhead() == pytest.approx(
            cm.message_overhead_s
        )


class TestCollectiveCosts:
    def test_single_rank_is_free(self):
        cm = CostModel()
        assert cm.collective_time("allreduce", [3], 8) == 0.0

    def test_log_scaling(self):
        cm = CostModel()
        # Both groups span the NETWORK tier (one core per node) so only the
        # log2(P) stage count differs.
        cores4 = [24 * i for i in range(4)]
        cores16 = [24 * i for i in range(16)]
        t4 = cm.collective_time("barrier", cores4, 0)
        t16 = cm.collective_time("barrier", cores16, 0)
        assert t16 == pytest.approx(2 * t4)  # log2(16)=4 vs log2(4)=2

    def test_wider_tier_costs_more(self):
        m = MachineModel(cores_per_socket=4, sockets_per_node=2)
        cm = CostModel(machine=m)
        same_socket = cm.collective_time("allreduce", [0, 1, 2, 3], 64)
        cross_node = cm.collective_time("allreduce", [0, 1, 8, 9], 64)
        assert cross_node > same_socket


class TestPayloadBytes:
    def test_numpy_exact(self):
        assert payload_nbytes(np.zeros(100)) == 800

    def test_none_is_zero(self):
        assert payload_nbytes(None) == 0

    def test_bytes(self):
        assert payload_nbytes(b"abcd") == 4

    def test_containers_recursive(self):
        assert payload_nbytes([np.zeros(10), np.zeros(10)]) == 160
        assert payload_nbytes({"a": np.zeros(2), "b": None}) == 16

    def test_scalar_default(self):
        assert payload_nbytes(3.14) == 8
        assert payload_nbytes(42) == 8

    @pytest.mark.parametrize("value, nbytes", [
        (None, 0),
        (True, 8),
        (False, 8),
        (0, 8),
        (-7, 8),
        (2.5, 8),
        (np.float64(1.0), 8),
        (np.int64(3), 8),
        (np.int32(3), 8),
        (np.bool_(True), 8),
        (np.zeros(3, dtype=np.int32), 12),
        (np.zeros((2, 6)), 96),
        (np.zeros(0), 0),
        (b"abc", 3),
        (bytearray(5), 5),
        (memoryview(b"abcd"), 4),
        ("a long string", 8),
        ((), 0),
        ({}, 0),
        ((1, 2.0), 16),
        ([None, b"xy"], 2),
        ({"k": 1, "v": np.zeros(4)}, 40),
        ((1, [2, (3, {"a": None, "b": [np.zeros(1), b"z"]})], {}), 33),
    ])
    def test_every_kind_keeps_its_size(self, value, nbytes):
        assert payload_nbytes(value) == nbytes


class TestPointPrediction:
    """The sweep-scheduling prior the campaign fabric orders points by."""

    def test_pushes_are_particles_times_steps(self):
        assert predicted_point_pushes(400, 8) == 3200
        assert predicted_point_pushes(0, 100) == 0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            predicted_point_pushes(-1, 4)
        with pytest.raises(ValueError):
            predicted_point_pushes(4, -1)

    def test_seconds_scale_with_backend_rate(self):
        pushes = predicted_point_pushes(1000, 10)
        py = predicted_point_seconds(pushes, "python")
        comp = predicted_point_seconds(pushes, "compiled")
        assert py == pytest.approx(pushes / nominal_backend_rate("python"))
        # Ratios are the contract: a faster backend predicts less time.
        assert comp < py

    def test_ordering_tracks_work(self):
        light = predicted_point_seconds(predicted_point_pushes(100, 2))
        heavy = predicted_point_seconds(predicted_point_pushes(4000, 2))
        assert heavy > light

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="no nominal rate"):
            predicted_point_seconds(100, "fortran")

    def test_nominal_rate_unknown_backend_rejected(self):
        for name in ("fortran", "compiled-parallel"):
            with pytest.raises(ValueError, match=name):
                nominal_backend_rate(name)

    def test_rank_step_term_separates_equal_pushes(self):
        from repro.runtime.costmodel import NOMINAL_RANK_STEP_S

        pushes = predicted_point_pushes(20_000, 48)
        few = predicted_point_seconds(pushes, n_ranks=4, steps=48)
        many = predicted_point_seconds(pushes, n_ranks=64, steps=48)
        assert many - few == pytest.approx(60 * 48 * NOMINAL_RANK_STEP_S)
        assert predicted_point_seconds(pushes) == pytest.approx(
            few - 4 * 48 * NOMINAL_RANK_STEP_S
        )

    def test_negative_ranks_or_steps_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            predicted_point_seconds(100, n_ranks=-1, steps=4)
        with pytest.raises(ValueError, match="non-negative"):
            predicted_point_seconds(100, n_ranks=4, steps=-1)
