"""Tests for benchmark record persistence."""

import json

from repro.ampi.loadbalancer import GreedyLB
from repro.bench.persist import SCHEMA_VERSION, save_records
from repro.bench.runner import RunRecord


def rec(impl="mpi-2d", cores=4, sim_time=1.0, **params):
    return RunRecord(
        figure="f", implementation=impl, cores=cores, sim_time=sim_time,
        wall_time=0.1, verified=True, max_particles_per_core=10,
        ideal_particles_per_core=5.0, messages_sent=3, bytes_sent=100,
        params=params,
    )


class TestRoundtrip:
    def test_save_and_load(self, tmp_path):
        records = [rec(), rec(impl="ampi", cores=8, sim_time=0.5, F=25)]
        path = save_records(records, tmp_path / "out.json")
        doc = json.loads(path.read_text())
        assert doc["schema"] == SCHEMA_VERSION
        loaded = doc["records"]
        assert len(loaded) == 2
        assert loaded[1]["implementation"] == "ampi"
        assert loaded[1]["params"] == {"F": 25}
        assert loaded[0]["sim_time"] == 1.0

    def test_strategy_objects_serialized_by_name(self, tmp_path):
        records = [rec(strategy=GreedyLB())]
        path = save_records(records, tmp_path / "s.json")
        loaded = json.loads(path.read_text())["records"]
        assert loaded[0]["params"]["strategy"] == "GreedyLB"

    def test_creates_parent_dirs(self, tmp_path):
        path = save_records([rec()], tmp_path / "a" / "b" / "c.json")
        assert path.exists()

