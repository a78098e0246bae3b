"""Tests for the campaign engine: expansion, caching, determinism."""

import json
import os

import pytest

from repro.campaign import CampaignSpec, artifact_path, run_campaign
from repro.config import ConfigError


def smoke_doc() -> dict:
    return {
        "schema": 1,
        "campaign": "unit",
        "base": {
            "workload": {"cells": 32, "n_particles": 300, "steps": 4},
            "impl": {"name": "mpi-2d", "cores": 2},
        },
        "axes": [
            {"axis": "cores", "path": "impl.cores", "values": [2, 4]},
            {
                "axis": "impl",
                "values": [
                    {"label": "mpi-2d", "set": {"impl.name": "mpi-2d"}},
                    {
                        "label": "mpi-2d-LB",
                        "set": {"impl.name": "mpi-2d-LB", "impl.lb_interval": 2},
                    },
                ],
            },
        ],
    }


class TestExpansion:
    def test_cartesian_product_first_axis_outermost(self):
        points = CampaignSpec.from_dict(smoke_doc()).expand()
        assert [(p.labels["cores"], p.labels["impl"]) for p in points] == [
            (2, "mpi-2d"), (2, "mpi-2d-LB"), (4, "mpi-2d"), (4, "mpi-2d-LB"),
        ]
        assert [p.spec.impl.cores for p in points] == [2, 2, 4, 4]

    def test_explicit_points(self):
        doc = smoke_doc()
        del doc["axes"]
        doc["points"] = [
            {"labels": {"n": 100}, "set": {"workload.n_particles": 100}},
            {"labels": {"n": 200}, "set": {"workload.n_particles": 200}},
        ]
        points = CampaignSpec.from_dict(doc).expand()
        assert [p.spec.workload.n_particles for p in points] == [100, 200]

    def test_axes_and_points_mutually_exclusive(self):
        doc = smoke_doc()
        doc["points"] = [{"labels": {}, "set": {}}]
        with pytest.raises(ConfigError, match="not both"):
            CampaignSpec.from_dict(doc)

    def test_typoed_override_path_fails_expansion_with_context(self):
        doc = smoke_doc()
        doc["axes"][0]["path"] = "impl.coress"
        with pytest.raises(ConfigError, match=r"point 0.*coress"):
            CampaignSpec.from_dict(doc).expand()

    def test_unknown_campaign_field_rejected(self):
        doc = smoke_doc()
        doc["extras"] = []
        with pytest.raises(ConfigError, match="extras"):
            CampaignSpec.from_dict(doc)

    def test_json_round_trip(self, tmp_path):
        camp = CampaignSpec.from_dict(smoke_doc())
        path = str(tmp_path / "c.json")
        camp.save(path)
        assert CampaignSpec.load(path) == camp


class TestCaching:
    def _read_artifacts(self, cache_dir):
        return {
            name: open(os.path.join(cache_dir, name), "rb").read()
            for name in sorted(os.listdir(cache_dir))
            if not name.endswith("manifest.json")
        }

    def test_second_run_is_all_cache_hits_and_byte_identical(self, tmp_path):
        camp = CampaignSpec.from_dict(smoke_doc())
        cache = str(tmp_path / "cache")

        first = run_campaign(camp, cache_dir=cache)
        assert first.executed == 4 and first.cached == 0
        blobs = self._read_artifacts(cache)
        assert len(blobs) == 4

        second = run_campaign(camp, cache_dir=cache)
        assert second.executed == 0 and second.cached == 4
        assert self._read_artifacts(cache) == blobs
        assert [o.result for o in second.outcomes] == [
            o.result for o in first.outcomes
        ]

    def test_force_reexecutes_but_reproduces_bytes(self, tmp_path):
        camp = CampaignSpec.from_dict(smoke_doc())
        cache = str(tmp_path / "cache")
        run_campaign(camp, cache_dir=cache)
        blobs = self._read_artifacts(cache)
        forced = run_campaign(camp, cache_dir=cache, force=True)
        assert forced.executed == 4
        assert self._read_artifacts(cache) == blobs

    def test_parallel_jobs_match_serial(self, tmp_path):
        camp = CampaignSpec.from_dict(smoke_doc())
        serial_cache = str(tmp_path / "serial")
        jobs_cache = str(tmp_path / "jobs")
        a = run_campaign(camp, cache_dir=serial_cache)
        b = run_campaign(camp, cache_dir=jobs_cache, jobs=2)
        assert [o.result for o in a.outcomes] == [o.result for o in b.outcomes]
        assert self._read_artifacts(serial_cache) == self._read_artifacts(jobs_cache)

    def test_corrupt_artifact_is_a_miss_not_an_error(self, tmp_path):
        camp = CampaignSpec.from_dict(smoke_doc())
        cache = str(tmp_path / "cache")
        first = run_campaign(camp, cache_dir=cache)
        victim = artifact_path(cache, first.outcomes[0].spec_hash)
        with open(victim, "w") as fh:
            fh.write("{not json")
        second = run_campaign(camp, cache_dir=cache)
        assert second.executed == 1 and second.cached == 3
        # and the re-execution healed the artifact
        assert json.load(open(victim))["spec_hash"] == first.outcomes[0].spec_hash

    def test_select_filters_by_labels(self, tmp_path):
        camp = CampaignSpec.from_dict(smoke_doc())
        res = run_campaign(
            camp, cache_dir=str(tmp_path / "c"),
            select=lambda labels: labels["cores"] == 2,
        )
        assert len(res.outcomes) == 2
        assert all(o.labels["cores"] == 2 for o in res.outcomes)

    def test_cache_hits_across_spec_sparseness(self, tmp_path):
        """A fully-resolved declaration reuses the sparse run's cache."""
        from repro.config.build import canonical_runspec

        camp = CampaignSpec.from_dict(smoke_doc())
        cache = str(tmp_path / "cache")
        run_campaign(camp, cache_dir=cache)

        resolved_points = [
            {"labels": dict(p.labels),
             "set": {}}
            for p in camp.expand()
        ]
        doc = {
            "schema": 1,
            "campaign": "unit-resolved",
            "base": {"workload": {"cells": 32, "n_particles": 300, "steps": 4},
                     "impl": {"name": "mpi-2d"}},
            "points": [],
        }
        # Re-declare every point fully resolved through the driver.
        points = []
        for p in camp.expand():
            full = canonical_runspec(p.spec).to_dict()
            points.append({"labels": dict(p.labels),
                           "set": {"impl." + k: v for k, v in full["impl"].items()
                                   if v is not None and k != "dims"}})
        doc["points"] = points
        resolved = CampaignSpec.from_dict(doc)
        res = run_campaign(resolved, cache_dir=cache)
        assert res.executed == 0 and res.cached == 4

    def test_manifest_records_the_run(self, tmp_path):
        camp = CampaignSpec.from_dict(smoke_doc())
        cache = str(tmp_path / "cache")
        res = run_campaign(camp, cache_dir=cache)
        doc = json.load(open(res.manifest_path))
        assert doc["campaign"] == "unit"
        assert doc["executed"] == 4 and doc["cached"] == 0
        assert len(doc["points"]) == 4
        for point, outcome in zip(doc["points"], res.outcomes):
            assert point["spec_hash"] == outcome.spec_hash
            assert os.path.exists(os.path.join(cache, point["artifact"]))


class TestArtifacts:
    def test_artifact_contains_no_wall_clock(self, tmp_path):
        camp = CampaignSpec.from_dict(smoke_doc())
        cache = str(tmp_path / "cache")
        res = run_campaign(camp, cache_dir=cache)
        doc = json.load(open(artifact_path(cache, res.outcomes[0].spec_hash)))
        assert set(doc) == {"schema", "spec_hash", "spec", "result"}
        assert "wall" not in json.dumps(doc)

    def test_artifact_spec_matches_identity(self, tmp_path):
        from repro.config.build import canonical_runspec

        camp = CampaignSpec.from_dict(smoke_doc())
        cache = str(tmp_path / "cache")
        res = run_campaign(camp, cache_dir=cache)
        point = camp.expand()[0]
        doc = json.load(open(artifact_path(cache, res.outcomes[0].spec_hash)))
        assert doc["spec"] == canonical_runspec(point.spec).identity_dict()


class TestEnginesRunner:
    """``runner="engines"`` is gone: ``"fabric"`` is the one value left."""

    def test_unknown_runner_rejected(self, tmp_path):
        camp = CampaignSpec.from_dict(smoke_doc())
        for runner in ("threads", "pool", "engines"):
            with pytest.raises(ValueError, match="unknown campaign runner"):
                run_campaign(camp, cache_dir=str(tmp_path / "c"), runner=runner)
