"""Unit tests for the wall-clock perf harness (:mod:`repro.bench.perf`)."""

from __future__ import annotations

import json
import os

import pytest

from repro.bench import perf

#: Everything a skipped entry may carry: no timing, ratio or audit field.
_SKIPPED_KEYS = {"name", "kind", "env", "params", "gate_skipped"}


def _doc(entries):
    return dict(
        schema=perf.SCHEMA_VERSION,
        machine=perf.machine_fingerprint(), entries=entries,
    )


def _entry(name, speedup, gate=None, **extra):
    e = dict(
        name=name, kind="workers", params={}, baseline_s=speedup,
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

    def test_skipped_entry_is_neither_checked_nor_formatted(self, monkeypatch):
        """A skipped entry has no number to compare or print: check_gates
        passes over it and the progress line reads 'skipped: <reason>'."""
        skipped = dict(
            name="s", kind="workers", env={}, params={}, gate_skipped="no cores"
        )
        assert perf.check_gates(_doc([skipped])) == []
        monkeypatch.setitem(perf.DRIVERS, "workers", lambda: skipped)
        lines = []
        doc = perf.run_suite(progress=lines.append, only="workers")
        assert doc["entries"] == [skipped]
        assert lines == ["  s: skipped: no cores"]


class TestPersist:
    def test_round_trip(self, tmp_path):
        doc = _doc([_entry("a", 2.0)])
        path = tmp_path / "bench.json"
        perf.save_bench(doc, str(path))
        assert json.loads(path.read_text()) == doc


class TestDrivers:
    def test_bench_worker_sweep_entry_shape(self, monkeypatch):
        # The audits, not the host, are under test: pin enough cpus for a
        # live entry at 2 workers.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
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
        assert entry["gate_min_speedup"] == 1.5 and "gate_skipped" not in entry

    def test_entries_carry_environment_stamp(self):
        """Every entry, live or skipped, records cpu_count / python /
        resolved backend, so a gate_skipped in a recorded BENCH file is
        auditable."""
        import platform

        from repro.core.kernel_compiled import resolve_backend

        entry = perf.bench_kernel_backend(1_000, steps=2, cells=16)
        env = entry["env"]
        assert env["cpu_count"] >= 1
        assert env["python"] == platform.python_version()
        assert env["kernel_backend"] == resolve_backend("auto")

    def test_bench_worker_sweep_gate_skipped_without_enough_cpus(self, monkeypatch):
        """On a host with fewer cpus than the top worker count the entry
        is skipped, not failed — and carries no number at all."""
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        entry = perf.bench_worker_sweep(
            1_000, steps=2, cores=2, workers=(1, 2), reps=1
        )
        assert set(entry) == _SKIPPED_KEYS
        assert "2 workers" in entry["gate_skipped"]
        assert entry["params"]["workers"] == [1, 2]

    def test_kernel_backend_gates_skipped_without_numba(self, monkeypatch):
        """No numba: no placeholder 1.0x ``speedup``, no all-zeros row."""
        from repro.core import kernel_compiled

        monkeypatch.setattr(kernel_compiled, "HAVE_NUMBA", False)
        for driver in (
            perf.bench_kernel_backend, perf.bench_kernel_backend_parallel
        ):
            entry = driver(1_000, steps=2, cells=16)
            assert set(entry) == _SKIPPED_KEYS
            assert "numba" in entry["gate_skipped"]
            assert perf.check_gates(_doc([entry])) == []


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
    def test_entry_shape_and_audits(self, monkeypatch):
        # Small live run: 4 points over 2 fabric jobs, serial-ish inner
        # executors.  The ratio is host-dependent; the audits are not.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
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
            perf.run_suite(only="nonexistent")

