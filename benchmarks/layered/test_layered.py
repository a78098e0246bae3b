"""Checks of the layered benchmark itself: ``python -m pytest benchmarks/layered``.

One ``--scale smoke`` full report (every workload, untraced and traced)
is produced once per session; the tests then assert on its shape, on the
design intent of the workloads, and on the small pure parts (span
arithmetic, verdicts, the contract's limits on BENCHMARK.json).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import metrics as metric_defs  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = metric_defs.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]
SINGLE_RUN = ("push_heavy", "pump_heavy", "exchange_lb", "pool_dispatch")

#: Per-layer metrics that must be live (non-zero) on the workloads that
#: claim them in README.md's prediction table.
CLAIMS = {
    "push_heavy": ["kernel.busy_s", "kernel.calls", "kernel.pushes", "kernel.pushes_per_s",
                   "kernel.micro_pushes_per_s", "kernel.e2e_rate_ratio", "init.busy_s",
                   "verify.busy_s"],
    "pump_heavy": ["exchange.busy_s", "exchange.calls", "exchange.messages", "exchange.bytes",
                   "exchange.us_per_call", "scheduler.pump_s", "scheduler.ticks",
                   "scheduler.messages", "scheduler.collectives", "scheduler.us_per_message",
                   "kernel.busy_s", "instrument.on_wall_ratio"],
    "exchange_lb": ["exchange.busy_s", "exchange.ns_per_resident_particle",
                    "particles.compact_s", "particles.pack_s", "particles.extend_s",
                    "particles.reserve_growths", "lb.rounds", "lb.boundary_moves",
                    "lb.busy_s", "lb.final_imbalance", "kernel.busy_s"],
    "churn_ckpt": ["checkpoint.write_s", "checkpoint.load_s", "checkpoint.bytes",
                   "checkpoint.files", "checkpoint.write_mb_per_s",
                   "checkpoint.resume_bytes_match", "pup.pack_s", "pup.unpack_s",
                   "lb.migrations", "events.busy_s"],
    "pool_dispatch": ["executor.dispatch_s", "executor.wait_s", "executor.batches",
                      "executor.tasks", "executor.tasks_per_batch",
                      "executor.dispatch_cpu_us_per_task", "executor.worker_busy_s",
                      "executor.worker_utilisation", "executor.pool_startup_s",
                      "executor.speedup_vs_serial", "init.busy_s"],
    "sweep_cold": ["campaign.busy_s", "campaign.expand_s", "campaign.points",
                   "campaign.executed", "campaign.points_per_s", "campaign.worker_busy_frac",
                   "campaign.artifact_bytes"],
    "sweep_cached": ["campaign.expand_s", "campaign.points", "campaign.cached",
                     "campaign.points_per_s", "campaign.cache_us_per_lookup",
                     "config.busy_s", "config.canonical_hash_us"],
    "multiplex_32": ["multiplex.busy_s", "multiplex.slices", "multiplex.engines_per_s",
                     "multiplex.seq_ratio", "executor.tasks_per_batch", "scheduler.pump_s"],
}


def _run(*args, cwd=REPO) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(Path(cwd) / "benchmarks/layered/run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="session")
def report(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("layered") / "smoke.json"
    proc = _run("--scale", "smoke", "--seed", "42", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["_text"] = proc.stdout
    return doc


# ----------------------------------------------------------------------
# The smoke report
# ----------------------------------------------------------------------
def test_every_workload_and_end_to_end_metric_is_reported(report):
    assert list(report["workloads"]) == NAMES and len(NAMES) == 8
    expected = {"wall_s", "pushes_per_s", "setup_s", "teardown_s", "peak_rss_mb",
                "sim_time_s", "failed_fraction"}
    for name, entry in report["workloads"].items():
        assert set(entry["end_to_end"]) == expected, name
        assert entry["end_to_end"]["failed_fraction"]["median"] == 0.0, entry["problems"]
        assert entry["problems"] == []
        for metric in expected:
            assert f"  {metric} " in report["_text"]


def test_every_per_layer_metric_is_reported_with_its_unit(report):
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, entry in report["workloads"].items():
        assert {k: v["unit"] for k, v in entry["per_layer"].items()} == declared, name


@pytest.mark.parametrize("workload", NAMES)
def test_claimed_layer_metrics_are_live(report, workload):
    layers = report["workloads"][workload]["per_layer"]
    dead = [m for m in CLAIMS[workload] if not layers[m]["value"]]
    assert dead == []


def test_time_is_attributed_on_the_single_run_workloads(report):
    for name in SINGLE_RUN:
        layers = report["workloads"][name]["per_layer"]
        assert layers["bench.unattributed_frac"]["value"] <= 0.15, name
        assert "bench.trace_overhead_frac" in layers


def test_simulated_time_is_the_same_traced_and_untraced(report):
    for name, entry in report["workloads"].items():
        untraced = entry["end_to_end"]["sim_time_s"]
        assert untraced["min"] == untraced["max"] > 0
        assert entry["per_layer"]["sim.time_s"]["value"] == untraced["median"], name


def test_workloads_keep_their_design_intent(report):
    layers = {n: {k: v["value"] for k, v in e["per_layer"].items()}
              for n, e in report["workloads"].items()}
    for name, m in layers.items():
        ckpt = m["checkpoint.write_s"] + m["checkpoint.load_s"]
        assert (ckpt > 0) == (name == "churn_ckpt"), name
    assert layers["sweep_cold"]["campaign.cached"] == 0
    assert layers["sweep_cold"]["campaign.executed"] == layers["sweep_cold"]["campaign.points"]
    assert layers["sweep_cached"]["campaign.executed"] == 0
    assert layers["churn_ckpt"]["checkpoint.resume_bytes_match"] == 1
    push, pump = layers["push_heavy"], layers["pump_heavy"]
    assert push["kernel.busy_s"] > push["exchange.busy_s"] + push["scheduler.pump_s"]
    assert pump["kernel.busy_s"] < pump["exchange.busy_s"] + pump["scheduler.pump_s"]


def test_seed_changes_the_inputs_but_not_the_names():
    for workload in WORKLOADS.values():
        assert workload.docs(1, 20) != workload.docs(2, 20), workload.name
        assert workload.docs(1, 20) == workload.docs(1, 20)
    names, inputs = {}, {}
    for seed in ("1", "2"):
        for trace in ("0", "1"):
            proc = _run("--workload", "pump_heavy", "--scale", "smoke",
                        "--seed", seed, "--trace", trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
            names[seed, trace] = sorted(result["metrics"])
            inputs[seed] = json.loads(lines[-2].removeprefix("DETAIL "))["inputs_sha256"]
    assert names["1", "0"] == names["2", "0"] == sorted(m["name"] for m in SPEC["end_to_end"])
    assert names["1", "1"] == names["2", "1"] == sorted(m["name"] for m in SPEC["per_layer"])
    assert inputs["1"] != inputs["2"]


@pytest.mark.parametrize("workload", ["pool_dispatch", "sweep_cold"])
def test_no_process_outlives_a_run(workload):
    """Not even the pools' resource tracker, which exits just after its parent."""
    def pids():
        out = set()
        for entry in filter(str.isdigit, os.listdir("/proc")):
            try:
                with open(f"/proc/{entry}/comm", encoding="ascii", errors="replace") as fh:
                    if "python" in fh.read():  # other tenants of the host are not ours
                        out.add(int(entry))
            except OSError:
                pass
        return out

    before = pids()
    proc = _run("--workload", workload, "--scale", "smoke", "--seed", "3", "--trace", "0")
    left = pids() - before  # zombies included: nobody may be left to reap them
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"]
    assert left == set()


def test_fails_without_the_program(tmp_path):
    """In a directory with only BENCHMARK.json and the benchmark: no result."""
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks/layered",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "push_heavy", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ----------------------------------------------------------------------
# BENCHMARK.json against the contract's limits
# ----------------------------------------------------------------------
def test_benchmark_json_is_within_the_contract():
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["benchmarks/layered"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        assert w["why"] == WORKLOADS[w["name"]].why
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert unit_re.match(m["unit"]) and m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert all(name_re.match(n) for n in names) and len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


# ----------------------------------------------------------------------
# Pure parts
# ----------------------------------------------------------------------
def test_self_time_is_span_minus_children_and_particles_inherit_the_layer():
    spans = [
        ["scheduler", "scheduler.tick", 0.0, 10.0, -1],
        ["exchange", "exchange", 1.0, 5.0, 0],
        [None, "particles.compact", 2.0, 3.0, 1],
        [None, "particles.extend", 6.0, 7.0, 0],     # called by the rank program itself
        ["kernel", "kernel.advance", 8.0, 9.5, 0],
    ]
    s = tracing.Summary(spans, {})
    assert s.busy == {"scheduler": 10.0 - 4.0 - 1.0 - 1.5, "exchange": 4.0,
                      "events": 1.0, "kernel": 1.5}
    assert s.by_name["particles.compact"] == 1.0 and s.self_by_name["exchange"] == 3.0
    assert sum(s.busy.values()) == 10.0


def test_generator_wrapper_times_each_send_and_keeps_the_protocol():
    rec = tracing.Recorder()

    def gen(a):
        got = yield a
        got = yield got + 1
        return got * 2

    def driver():
        return (yield from tracing._timed_generator(rec, "exchange", "exchange", gen)(1))

    d = driver()
    assert d.send(None) == 1
    assert d.send(10) == 11
    with pytest.raises(StopIteration) as stop:
        d.send(7)
    assert stop.value.value == 14
    assert rec.take().calls["exchange"] == 3


def _e2e(values):
    import statistics
    return {"median": statistics.median(values), "values": values}


@pytest.mark.parametrize("base, change, expected", [
    ([3.0, 3.01, 3.02], [3.1, 3.11, 3.12], "unchanged"),
    ([3.0, 3.01, 3.02], [3.5, 3.51, 3.52], "REGRESSION"),
    ([3.0, 3.01, 3.02], [2.5, 2.51, 2.52], "improved"),
    ([3.0, 3.5, 4.0], [3.1, 3.6, 4.1], "unresolved"),
    ([3.0, 3.5, 4.0], [2.0, 2.4, 2.9], "improved"),   # every run better than every base run
])
def test_verdicts(base, change, expected):
    wall = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.10}
    assert compare.verdict(wall, _e2e(base), _e2e(change))[0] == expected


def test_exact_and_floored_bounds():
    sim = {"name": "sim_time_s", "unit": "sim_s", "better": "lower", "bound": 0.0}
    assert compare.verdict(sim, _e2e([1.0, 1.0]), _e2e([1.0, 1.0]))[0] == "unchanged"
    assert compare.verdict(sim, _e2e([1.0, 1.0]), _e2e([1.0000001] * 2))[0] == "REGRESSION"
    setup = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
    # 5 ms -> 9 ms is +80 % but far inside the 50 ms absolute floor.
    assert compare.verdict(setup, _e2e([0.005, 0.005]), _e2e([0.009, 0.009]))[0] == "unchanged"
