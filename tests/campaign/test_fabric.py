"""Tests for the work-stealing campaign fabric.

Covers the PR-8 behaviours on top of tests/campaign/test_campaign.py
(which pins expansion, caching, and fabric-vs-serial determinism):

* longest-expected-first scheduling order from the cost model;
* the single-scan cache index;
* spec_hash dedupe before dispatch;
* crash + requeue: a worker killed mid-sweep costs one re-execution,
  the fault lands in the manifest in the resilience vocabulary, and the
  re-run completes 100% from cache;
* the streamed (partial) manifest is valid and resumable;
* per-worker warm-executor accounting (startup paid once per worker,
  not once per point).
"""

import json
import os
import signal

import pytest

from repro.campaign import (
    CacheIndex,
    CampaignSpec,
    FabricConfig,
    WorkerLostError,
    artifact_path,
    run_campaign,
)
from repro.campaign.fabric import CRASH_ENV, schedule_order
from repro.campaign.runner import CampaignResult, PointOutcome, _write_manifest
from repro.config.runspec import RunSpec


def sweep_doc(values, campaign="fabric-unit", executor=None):
    base = {
        "workload": {"cells": 32, "n_particles": 200, "steps": 2},
        "impl": {"name": "mpi-2d", "cores": 2},
    }
    if executor is not None:
        base["executor"] = executor
    return {
        "schema": 1,
        "campaign": campaign,
        "base": base,
        "axes": [
            {"axis": "n", "path": "workload.n_particles", "values": list(values)}
        ],
    }


def load_manifest(cache, name):
    with open(os.path.join(cache, f"{name}.manifest.json")) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Scheduling order
# ----------------------------------------------------------------------
class TestScheduleOrder:
    def _specs(self, ns):
        points = CampaignSpec.from_dict(sweep_doc(ns)).expand()
        return [(p.index, p.spec) for p in points]

    def test_longest_expected_first(self):
        # Predicted work is n_particles * steps; the heavy point goes
        # first no matter where expansion put it.
        order = schedule_order(self._specs([100, 4000, 50, 900]))
        assert order == [1, 3, 0, 2]

    def test_ties_break_by_expansion_index(self):
        order = schedule_order(self._specs([300, 300, 300]))
        assert order == [0, 1, 2]

    def test_empty(self):
        assert schedule_order([]) == []

    def test_strong_scaling_orders_by_ranks_at_equal_pushes(self):
        # Same particles and steps everywhere: pushes tie, and the
        # rank-step term decides (ampi counts cores * d virtual ranks).
        doc = sweep_doc([300])
        doc["axes"] = [
            {"axis": "cores", "path": "impl.cores", "values": [2, 8, 4]},
            {"axis": "impl", "values": [
                {"label": "mpi-2d", "set": {"impl.name": "mpi-2d"}},
                {"label": "ampi", "set": {"impl.name": "ampi",
                                          "impl.overdecomposition": 4}},
            ]},
        ]
        points = CampaignSpec.from_dict(doc).expand()
        order = schedule_order([(p.index, p.spec) for p in points])
        ranks = [points[i].spec.impl.cores
                 * (points[i].spec.impl.overdecomposition or 1) for i in order]
        assert ranks == [32, 16, 8, 8, 4, 2]
        assert order == [3, 5, 1, 2, 4, 0]  # the 8-rank tie: expansion index

    def test_fig6r_starts_with_its_last_declared_point(self):
        from repro.config.build import canonical_runspec

        here = os.path.dirname(__file__)
        points = CampaignSpec.load(os.path.join(
            here, "..", "..", "benchmarks", "campaigns", "fig6r.json")).expand()
        order = schedule_order(
            [(p.index, canonical_runspec(p.spec)) for p in points])
        first = points[order[0]]
        assert first.labels == {"cores": 384, "impl": "ampi"}
        assert first.index == len(points) - 1

    def test_fabric_orders_sparse_ampi_by_its_resolved_ranks(
        self, tmp_path, monkeypatch
    ):
        # overdecomposition left to the driver default (4): the fabric
        # schedules canonical specs, so the ampi point still goes first.
        from repro.campaign import fabric

        doc = sweep_doc([300])
        doc["axes"] = [{"axis": "impl", "values": [
            {"label": "mpi-2d", "set": {"impl.name": "mpi-2d"}},
            {"label": "ampi", "set": {"impl.name": "ampi"}},
        ]}]
        orders = []
        monkeypatch.setattr(
            fabric, "schedule_order",
            lambda tasks: orders.append(schedule_order(tasks)) or orders[-1],
        )
        run_campaign(CampaignSpec.from_dict(doc),
                     cache_dir=str(tmp_path / "c"), jobs=2)
        assert orders == [[1, 0]]


# ----------------------------------------------------------------------
# Cache index
# ----------------------------------------------------------------------
class TestCacheIndex:
    def test_missing_directory_is_empty(self, tmp_path):
        idx = CacheIndex(str(tmp_path / "nope"))
        assert len(idx) == 0
        assert "deadbeef" not in idx
        assert idx.lookup("deadbeef") is None

    def test_single_scan_excludes_manifests(self, tmp_path):
        (tmp_path / "aaaa.json").write_text("{}")
        (tmp_path / "bbbb.json").write_text("{}")
        (tmp_path / "sweep.manifest.json").write_text("{}")
        (tmp_path / "junk.txt").write_text("")
        idx = CacheIndex(str(tmp_path))
        assert len(idx) == 2
        assert "aaaa" in idx and "bbbb" in idx
        assert "sweep.manifest" not in idx
        assert "sweep" not in idx

    def test_miss_answered_from_memory(self, tmp_path, monkeypatch):
        idx = CacheIndex(str(tmp_path))

        def boom(*a, **k):  # a miss must not open anything
            raise AssertionError("index miss hit the filesystem")

        monkeypatch.setattr("repro.campaign.runner._read_artifact", boom)
        assert idx.lookup("deadbeef") is None

    def test_add_keeps_index_current(self, tmp_path):
        idx = CacheIndex(str(tmp_path))
        assert "cafe" not in idx
        idx.add("cafe")
        assert "cafe" in idx

    def test_lookup_round_trips_real_artifact(self, tmp_path):
        doc = sweep_doc([123], campaign="idx")
        run_campaign(
            CampaignSpec.from_dict(doc), cache_dir=str(tmp_path), jobs=1
        )
        manifest = load_manifest(str(tmp_path), "idx")
        h = manifest["points"][0]["spec_hash"]
        idx = CacheIndex(str(tmp_path))
        assert h in idx
        assert idx.lookup(h) is not None


# ----------------------------------------------------------------------
# Dedupe before dispatch
# ----------------------------------------------------------------------
class TestDedupe:
    def test_duplicate_points_execute_once(self, tmp_path):
        doc = sweep_doc([200, 300, 200, 300, 400], campaign="dupes")
        res = run_campaign(
            CampaignSpec.from_dict(doc), cache_dir=str(tmp_path), jobs=1
        )
        assert res.executed == 3
        assert res.deduped == 2
        by_index = {o.index: o for o in res.outcomes}
        assert by_index[2].duplicate_of == 0
        assert by_index[3].duplicate_of == 1
        assert by_index[2].cached and by_index[3].cached
        # Duplicates share the representative's artifact byte for byte.
        assert by_index[2].spec_hash == by_index[0].spec_hash
        assert by_index[2].result == by_index[0].result

    def test_manifest_records_duplicates(self, tmp_path):
        doc = sweep_doc([200, 200], campaign="dupes2")
        run_campaign(
            CampaignSpec.from_dict(doc), cache_dir=str(tmp_path), jobs=2
        )
        manifest = load_manifest(str(tmp_path), "dupes2")
        assert manifest["deduped"] == 1
        assert manifest["executed"] == 1
        points = {p["index"]: p for p in manifest["points"]}
        assert "duplicate_of" not in points[0]
        assert points[1]["duplicate_of"] == 0


# ----------------------------------------------------------------------
# Crash, requeue, resume
# ----------------------------------------------------------------------
class TestCrashRequeue:
    def test_killed_worker_requeues_and_sweep_completes(
        self, tmp_path, monkeypatch
    ):
        # Worker 1 exits hard on receiving its first task — after the
        # parent dispatched it, before any result.  The fabric must
        # requeue that point, respawn a replacement, and finish.
        monkeypatch.setenv(CRASH_ENV, "1:0")
        doc = sweep_doc([200, 300, 400, 500, 600], campaign="crashy")
        spec = CampaignSpec.from_dict(doc)
        res = run_campaign(spec, cache_dir=str(tmp_path), jobs=2)
        assert res.executed == 5 and res.cached == 0

        manifest = load_manifest(str(tmp_path), "crashy")
        assert manifest["complete"] is True
        fabric = manifest["fabric"]
        assert fabric["requeues"] >= 1
        assert any(f["fault"] == "crash" for f in fabric["faults"])
        lost = [w for w in fabric["workers"] if w["lost"]]
        assert len(lost) >= 1
        # A replacement worker was spawned beyond the original fleet.
        assert len(fabric["workers"]) > 2

        # Every artifact must exist despite the crash.
        for p in manifest["points"]:
            assert os.path.exists(artifact_path(str(tmp_path), p["spec_hash"]))

        # The re-run (no chaos) completes 100% from cache.
        monkeypatch.delenv(CRASH_ENV)
        res2 = run_campaign(spec, cache_dir=str(tmp_path), jobs=2)
        assert res2.executed == 0
        assert res2.cached == 5

    def test_poison_point_raises_worker_lost(self, tmp_path, monkeypatch):
        # With max_retries=0 a single worker death is already fatal and
        # names the point, instead of looping on a poison point forever.
        monkeypatch.setenv(CRASH_ENV, "0:0")
        doc = sweep_doc([200, 300], campaign="poison")
        cfg = FabricConfig(jobs=2, max_retries=0)
        with pytest.raises(WorkerLostError) as err:
            run_campaign(
                CampaignSpec.from_dict(doc), cache_dir=str(tmp_path),
                jobs=2, fabric=cfg,
            )
        assert err.value.attempts == 1
        assert "code 17" in err.value.cause and "code 17" in str(err.value)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork start")
    def test_killed_worker_names_the_signal(self, tmp_path, monkeypatch):
        # A kill from outside (the OOM killer's SIGKILL) reaches the error
        # as the signal's name, not as "exitcode -9".
        from repro.config import build

        monkeypatch.setattr(
            build, "execute_runspec",
            lambda rs, executor=None: os.kill(os.getpid(), signal.SIGKILL),
        )
        cfg = FabricConfig(jobs=2, max_retries=0, mp_context="fork")
        with pytest.raises(WorkerLostError, match="SIGKILL") as err:
            run_campaign(
                CampaignSpec.from_dict(sweep_doc([200, 300], campaign="oom")),
                cache_dir=str(tmp_path), jobs=2, fabric=cfg,
            )
        assert err.value.cause.endswith("(SIGKILL)")


# ----------------------------------------------------------------------
# Streamed manifest
# ----------------------------------------------------------------------
class TestStreamedManifest:
    def test_partial_manifest_is_valid_and_marked_incomplete(self, tmp_path):
        spec = CampaignSpec.from_dict(sweep_doc([200, 300, 400], "part"))
        partial = CampaignResult(
            name="part",
            outcomes=[
                PointOutcome(
                    index=0, labels={"n": 200}, spec_hash="abc123",
                    result={"sim_time_s": 1.0}, cached=False, wall_s=0.5,
                )
            ],
        )
        path = _write_manifest(spec, partial, str(tmp_path), complete=False)
        doc = json.loads(open(path).read())
        assert doc["complete"] is False
        assert [p["index"] for p in doc["points"]] == [0]
        assert doc["executed"] == 1

    def test_fabric_run_streams_then_finalizes(self, tmp_path):
        # io_batch=1 flushes the manifest after every point; the final
        # manifest must still be the complete, expansion-ordered one.
        doc = sweep_doc([200, 300, 400], campaign="stream")
        cfg = FabricConfig(jobs=2, io_batch=1)
        run_campaign(
            CampaignSpec.from_dict(doc), cache_dir=str(tmp_path),
            jobs=2, fabric=cfg,
        )
        manifest = load_manifest(str(tmp_path), "stream")
        assert manifest["complete"] is True
        assert [p["index"] for p in manifest["points"]] == [0, 1, 2]


# ----------------------------------------------------------------------
# Warm-worker accounting
# ----------------------------------------------------------------------
class TestWarmWorkers:
    def test_startup_paid_once_per_worker_not_per_point(self, tmp_path):
        # Four process-executor points over two workers: each worker
        # builds its warm executor once and reuses it, so pool_startup_s
        # has exactly one entry per worker even with points > workers.
        doc = sweep_doc(
            [200, 300, 400, 500], campaign="warm",
            executor={"kind": "process", "workers": 1},
        )
        res = run_campaign(
            CampaignSpec.from_dict(doc), cache_dir=str(tmp_path), jobs=2
        )
        assert res.executed == 4
        workers = res.fabric["workers"]
        served = [w for w in workers if w["points"]]
        assert sum(w["points"] for w in workers) == 4
        for w in served:
            assert len(w["pool_startup_s"]) == 1
            assert w["jit_warmup_s"] >= 0.0
        # and the same accounting is persisted in the manifest
        manifest = load_manifest(str(tmp_path), "warm")
        assert manifest["fabric"]["workers"] == workers

    def test_unknown_runner_rejected(self, tmp_path):
        spec = CampaignSpec.from_dict(sweep_doc([200]))
        for runner in ("threads", "pool"):
            with pytest.raises(ValueError, match="unknown campaign runner"):
                run_campaign(spec, cache_dir=str(tmp_path), runner=runner)
