"""Unit tests for the wall-clock perf harness (:mod:`repro.bench.perf`)."""

from __future__ import annotations

import json

import pytest

from repro.bench import perf
from repro.core import kernel


def _doc(entries):
    return dict(
        schema=perf.SCHEMA_VERSION, preset="smoke",
        machine=perf.machine_fingerprint(), entries=entries,
    )


def _entry(name, speedup, gate=None, **extra):
    e = dict(
        name=name, kind="kernel", params={}, baseline_s=speedup,
        optimized_s=1.0, speedup=speedup, pushes_per_sec=1e6,
        gate_min_speedup=gate,
    )
    e.update(extra)
    return e


class TestGates:
    def test_pass(self):
        doc = _doc([_entry("a", 3.5, gate=3.0), _entry("b", 1.2)])
        assert perf.check_gates(doc) == []

    def test_absolute_gate_failure(self):
        doc = _doc([_entry("a", 2.4, gate=3.0)])
        (msg,) = perf.check_gates(doc)
        assert "a" in msg and "2.40" in msg and "3.0" in msg

    def test_sim_time_divergence_is_a_failure(self):
        doc = _doc([_entry("a", 9.0, sim_time_match=False)])
        assert any("diverged" in m for m in perf.check_gates(doc))


class TestRegression:
    def test_within_tolerance(self):
        base = _doc([_entry("a", 2.0)])
        new = _doc([_entry("a", 1.6)])  # -20% < 25% tolerance
        assert perf.check_regression(new, base) == []

    def test_regression_detected(self):
        base = _doc([_entry("a", 2.0)])
        new = _doc([_entry("a", 1.4)])  # -30%
        (msg,) = perf.check_regression(new, base)
        assert "a" in msg and "regressed" in msg

    def test_missing_entry_detected(self):
        base = _doc([_entry("a", 2.0)])
        new = _doc([])
        (msg,) = perf.check_regression(new, base)
        assert "not in this run" in msg

    def test_custom_tolerance(self):
        base = _doc([_entry("a", 2.0)])
        new = _doc([_entry("a", 1.6)])
        assert perf.check_regression(new, base, tolerance=0.1) != []


class TestPersist:
    def test_round_trip(self, tmp_path):
        doc = _doc([_entry("a", 2.0)])
        path = str(tmp_path / "bench.json")
        perf.save_bench(doc, path)
        assert perf.load_bench(path) == doc

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 999, "entries": []}))
        with pytest.raises(ValueError, match="schema"):
            perf.load_bench(str(path))


class TestDrivers:
    def test_bench_kernel_entry_shape(self):
        entry = perf.bench_kernel(2_000, steps=2, cells=16)
        assert entry["kind"] == "kernel"
        assert entry["optimized_s"] > 0 and entry["baseline_s"] > 0
        assert entry["speedup"] == entry["baseline_s"] / entry["optimized_s"]
        assert entry["pushes_per_sec"] > 0

    def test_bench_end_to_end_verifies_and_matches_sim_time(self):
        entry = perf.bench_end_to_end(1_000, steps=3, cores=2)
        assert entry["sim_time_match"] is True
        assert entry["sim_time_s"] > 0

    def test_bench_exchange_verifies_and_matches_sim_time(self):
        entry = perf.bench_exchange(1_000, steps=3, cores=2)
        assert entry["sim_time_match"] is True

    def test_legacy_kernel_patch_restores(self):
        import repro.runtime.executor as executor_mod

        orig = kernel.advance
        orig_arrays = executor_mod.advance_arrays  # the fused-chunk entry
        with perf.use_legacy_kernel():
            assert kernel.advance is not orig
            assert executor_mod.advance_arrays is not orig_arrays
        assert kernel.advance is orig
        assert executor_mod.advance_arrays is orig_arrays

    def test_legacy_exchange_patch_restores(self):
        import repro.parallel.base as base_mod

        orig = base_mod.exchange_particles
        with perf.use_legacy_exchange():
            assert base_mod.exchange_particles is not orig
        assert base_mod.exchange_particles is orig

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            perf.run_suite("huge")

    def test_bench_worker_sweep_entry_shape(self):
        entry = perf.bench_worker_sweep(
            2_000, steps=2, cores=2, workers=(1, 2), reps=1
        )
        assert entry["kind"] == "workers"
        assert entry["sim_time_match"] is True
        assert [r["workers"] for r in entry["rows"]] == [1, 2]
        for row in entry["rows"]:
            assert row["wall_s"] > 0
            assert row["pool_startup_s"] > 0  # reported, never in wall_s
        assert entry["speedup"] == entry["baseline_s"] / entry["optimized_s"]

    def test_entries_carry_environment_stamp(self):
        """Every entry records cpu_count / python / resolved backend, so a
        gate_skipped in a checked-in BENCH file is auditable."""
        import platform

        from repro.core.kernel_compiled import resolve_backend

        entry = perf.bench_kernel(1_000, steps=2, cells=16)
        env = entry["env"]
        assert env["cpu_count"] >= 1
        assert env["python"] == platform.python_version()
        assert env["kernel_backend"] == resolve_backend("auto")

    def test_bench_worker_sweep_gate_skipped_without_enough_cpus(self, monkeypatch):
        """On a host with fewer cpus than the top worker count the speedup
        gate is recorded as skipped, not failed."""
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        entry = perf.bench_worker_sweep(
            1_000, steps=2, cores=2, workers=(1, 2), reps=1
        )
        assert entry["gate_min_speedup"] is None
        assert "2 workers" in entry["gate_skipped"]


def test_cli_profile_flag(capsys):
    """`run --profile` completes and prints the cProfile table."""
    from repro.cli import main

    rc = main([
        "run", "--impl", "mpi-2d", "--cores", "2", "--cells", "16",
        "--particles", "40", "--steps", "2", "--profile",
        # Pin the executor: profiling rejects the process backend, and the
        # CI matrix leg sets REPRO_EXECUTOR=process as the default.
        "--executor", "serial",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cProfile: top 20" in out
    assert "cumulative" in out


class TestCampaignBench:
    def test_entry_shape_and_audits(self):
        # Small live run: 4 points over 2 fabric jobs, serial-ish inner
        # executors.  The ratio is host-dependent; the audits are not.
        entry = perf.bench_campaign_throughput(
            points=4, jobs=2, inner_workers=1, gate=1.0
        )
        assert entry["kind"] == "campaign"
        assert entry["params"]["points"] == 4
        assert entry["bitwise_match"] is True
        assert entry["cache_coherent"] is True
        assert entry["startup_once_per_worker"] is True
        assert entry["speedup"] > 0
        assert len(entry["rows"]) >= 2
        for row in entry["rows"]:
            assert len(row["pool_startup_s"]) == 1

    def test_cache_incoherence_is_a_failure(self):
        doc = _doc([_entry("c", 5.0, kind="campaign", cache_coherent=False)])
        assert any("re-executed" in m for m in perf.check_gates(doc))

    def test_per_point_startup_is_a_failure(self):
        doc = _doc(
            [_entry("c", 5.0, kind="campaign", startup_once_per_worker=False)]
        )
        assert any("once per worker" in m for m in perf.check_gates(doc))

    def test_run_suite_only_filters_by_kind(self):
        with pytest.raises(ValueError, match="entries of kind"):
            perf.run_suite("smoke", only="nonexistent")


class TestMultiplexBench:
    def test_entry_shape_and_audit(self):
        # Small live run: 4 engines interleaved vs sequential.  The ratio
        # is host-dependent; the simulated-time audit is not.
        entry = perf.bench_multiplex(engines=4, cores=2, gate=0.1)
        assert entry["kind"] == "multiplex"
        assert entry["params"]["engines"] == 4
        assert entry["sim_time_match"] is True
        assert entry["speedup"] > 0
        assert entry["engines_per_sec_sequential"] > 0
        assert entry["engines_per_sec_interleaved"] > 0
        assert entry["slices"] >= 4

    def test_sim_time_divergence_fails_the_gate_audit(self):
        doc = _doc([_entry("m", 5.0, kind="multiplex", sim_time_match=False)])
        assert any("simulated time" in m for m in perf.check_gates(doc))
