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

    # Expansion validates the base once and a point's touched sections
    # only; the messages are those of validating every point whole.
    WORKLOAD_FIELDS = (
        "['alpha', 'beta', 'cells', 'distribution', 'dt', 'events', 'h', 'k', "
        "'k_choices', 'm_choices', 'm_vertical', 'n_particles', 'patch', 'q', "
        "'r', 'rotate90', 'seed', 'steps']"
    )
    IMPL_FIELDS = (
        "['axes', 'border_width', 'cores', 'dims', 'lb_interval', 'min_width', "
        "'name', 'overdecomposition', 'stats_s_per_vp', 'strategy', "
        "'threshold_fraction']"
    )

    def _expand_error(self, doc) -> str:
        with pytest.raises(ConfigError) as exc:
            CampaignSpec.from_dict(doc).expand()
        return str(exc.value)

    def test_typo_in_base_message(self):
        doc = smoke_doc()
        doc["base"]["workload"]["n_particlez"] = 5
        assert self._expand_error(doc) == (
            "campaign 'unit' point 0 ({'cores': 2, 'impl': 'mpi-2d'}): "
            "bad workload section: unknown workload field(s) ['n_particlez']; "
            f"allowed: {self.WORKLOAD_FIELDS}"
        )

    def test_typo_in_axis_set_message(self):
        doc = smoke_doc()
        doc["axes"][1]["values"][1]["set"]["impl.lb_intervall"] = 3
        assert self._expand_error(doc) == (
            "campaign 'unit' point 1 ({'cores': 2, 'impl': 'mpi-2d-LB'}): "
            f"unknown field(s) ['lb_intervall'] in impl; allowed: {self.IMPL_FIELDS}"
        )

    def test_typo_in_explicit_point_message(self):
        doc = smoke_doc()
        del doc["axes"]
        doc["points"] = [
            {"labels": {"n": 1}, "set": {"workload.n_particles": 100}},
            {"labels": {"n": 2}, "set": {"cost.particle_push": 1.0}},
        ]
        assert self._expand_error(doc) == (
            "campaign 'unit' point 1 ({'n': 2}): unknown field(s) "
            "['particle_push'] in cost; allowed: ['cell_byte_scale', "
            "'cell_handling_s', 'message_overhead_s', 'particle_byte_scale', "
            "'particle_pack_s', 'particle_push_s', 'pup_bandwidth', "
            "'vp_scheduling_s']"
        )

    def test_typo_in_section_name_message(self):
        doc = smoke_doc()
        doc["axes"][0]["path"] = "impll.cores"
        assert self._expand_error(doc) == (
            "campaign 'unit' point 0 ({'cores': 2, 'impl': 'mpi-2d'}): "
            "unknown field(s) ['impll'] in runspec; allowed: ['cost', "
            "'executor', 'impl', 'machine', 'resilience', 'schema', 'tracing', "
            "'workload']"
        )

    def test_first_bad_section_reported_in_schema_order(self):
        doc = smoke_doc()
        doc["axes"][0] = {"axis": "x", "values": [
            {"label": "both", "set": {"tracing.bogus": 1, "machine.bogus": 2}}]}
        assert " in machine;" in self._expand_error(doc)

    def test_cross_field_rule_sees_the_merged_section(self):
        doc = smoke_doc()
        doc["axes"][0] = {"axis": "d", "path": "impl.overdecomposition",
                          "values": [2]}
        assert self._expand_error(doc).endswith(
            "impl.overdecomposition does not apply to impl.name='mpi-2d'"
        )

    def test_base_incomplete_without_an_axis_still_expands(self):
        # impl.name comes from the axis: the base alone is not a RunSpec,
        # so every point is validated whole, as before.
        doc = smoke_doc()
        del doc["base"]["impl"]["name"]
        points = CampaignSpec.from_dict(doc).expand()
        assert [p.spec.impl.name for p in points] == [
            "mpi-2d", "mpi-2d-LB", "mpi-2d", "mpi-2d-LB",
        ]
        doc["axes"][0]["path"] = "impl.coress"
        assert "['coress'] in impl" in self._expand_error(doc)

    def test_points_equal_whole_document_validation(self):
        from repro.config import RunSpec, apply_overrides

        doc = smoke_doc()
        doc["base"]["resilience"] = {"faults": {"seed": 1, "faults": []}}
        doc["axes"].append({"axis": "r", "values": [
            {"label": "deep", "set": {"resilience.faults.seed": 9,
                                      "resilience.watch": {"alpha": 0.25},
                                      "machine.name": "m"}}]})
        camp = CampaignSpec.from_dict(doc)
        before = json.dumps(camp.base, sort_keys=True)
        for p in camp.expand():
            sets = {"impl.cores": p.labels["cores"], "machine.name": "m",
                    "resilience.faults.seed": 9,
                    "resilience.watch": {"alpha": 0.25},
                    **doc["axes"][1]["values"][p.index % 2]["set"]}
            assert p.spec == RunSpec.from_dict(apply_overrides(camp.base, sets))
            assert p.spec.resilience.faults["seed"] == 9
        assert json.dumps(camp.base, sort_keys=True) == before  # not mutated

    def test_removed_compiled_parallel_backend_keeps_every_point_hash(self):
        """An old declaration whose base names the removed backend still
        expands, and each point hashes as its compiled and python twins
        do — so a cache written under that declaration still hits."""
        from repro.config.build import canonical_hash

        hashes = {}
        for backend in ("compiled-parallel", "compiled", "python"):
            doc = smoke_doc()
            doc["base"]["executor"] = {"kernel_backend": backend}
            points = CampaignSpec.from_dict(doc).expand()
            assert len(points) == 4
            read_as = "compiled" if backend == "compiled-parallel" else backend
            assert all(p.spec.executor.kernel_backend == read_as for p in points)
            hashes[backend] = [canonical_hash(p.spec) for p in points]
        assert hashes["compiled-parallel"] == hashes["compiled"] == hashes["python"]

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
        # The fabric's cache is coherent: a second pass executes nothing.
        again = run_campaign(camp, cache_dir=jobs_cache, jobs=2)
        assert again.executed == 0 and again.cached == 4

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


class TestCachedPointBuildsNothing:
    def test_fully_cached_run_never_builds_a_driver(self, tmp_path, monkeypatch):
        from repro.config import build
        from repro.parallel.base import ParallelPICBase

        camp = CampaignSpec.from_dict(smoke_doc())
        cache = str(tmp_path / "cache")
        first = run_campaign(camp, cache_dir=cache)

        def boom(*args, **kwargs):
            raise AssertionError("a cached point must not build a driver")

        monkeypatch.setattr(build, "build_impl", boom)
        monkeypatch.setattr(ParallelPICBase, "__init__", boom)
        again = run_campaign(camp, cache_dir=cache)
        assert (again.executed, again.cached) == (0, 4)
        assert [o.spec_hash for o in again.outcomes] == [
            o.spec_hash for o in first.outcomes
        ]


class TestManifestBytes:
    """The manifest is assembled by hand; ``json.dump`` is its oracle."""

    def _oracle(self, name, outcomes, *, complete, fabric=None) -> str:
        doc = {
            "schema": 1, "campaign": name, "complete": complete,
            "points": [
                {"index": o.index, "labels": o.labels, "spec_hash": o.spec_hash,
                 "cached": o.cached, "wall_s": round(o.wall_s, 6),
                 "artifact": f"{o.spec_hash}.json",
                 **({"duplicate_of": o.duplicate_of}
                    if o.duplicate_of is not None else {})}
                for o in outcomes
            ],
            "executed": sum(not o.cached for o in outcomes),
            "cached": sum(o.cached for o in outcomes),
            "deduped": sum(o.duplicate_of is not None for o in outcomes),
        }
        if fabric is not None:
            doc["fabric"] = fabric
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("complete", [True, False])
    def test_bytes_equal_json_dump(self, tmp_path, complete):
        from repro.campaign.runner import (
            CampaignResult, PointOutcome, _write_manifest,
        )

        camp = CampaignSpec.from_dict({**smoke_doc(), "campaign": 'na"më'})
        labels = [
            {"cores": 2, "impl": "mpi-2d"},
            {"z": None, "a": True, "f": 0.1, "big": 1e300, "neg": -3,
             "text": 'quo"te \\ \u00e9 \n'},
            {},
            {"nested": {"b": [1, 2, {"c": None}], "a": {}}, "list": []},
            {"inf": float("inf"), "nan": float("nan")},
        ]
        outcomes = [
            PointOutcome(index=i, labels=lab, spec_hash=f"{i:064x}", result={},
                         cached=bool(i % 2), wall_s=i * 0.1234567891,
                         duplicate_of=0 if i == 3 else None)
            for i, lab in enumerate(labels)
        ]
        fabric = {"workers": [{"worker": 0, "busy_s": 0.5, "points": [1, 2]}],
                  "requeues": 0, "events": []}
        for rows, fab in ((outcomes, fabric), (outcomes, None), ([], None)):
            res = CampaignResult(name=camp.name, outcomes=rows, fabric=fab)
            path = _write_manifest(camp, res, str(tmp_path), complete=complete)
            with open(path, encoding="utf-8") as fh:
                assert fh.read() == self._oracle(
                    camp.name, rows, complete=complete, fabric=fab)


class TestArtifacts:
    def test_non_utf8_artifact_is_a_miss_not_an_error(self, tmp_path):
        camp = CampaignSpec.from_dict(smoke_doc())
        cache = str(tmp_path / "cache")
        first = run_campaign(camp, cache_dir=cache)
        with open(artifact_path(cache, first.outcomes[0].spec_hash), "wb") as fh:
            fh.write(b"\xff\xfe{}")
        second = run_campaign(camp, cache_dir=cache)
        assert second.executed == 1 and second.cached == 3

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
