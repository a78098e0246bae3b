"""Layered wall-clock benchmark: eight named workloads, end-to-end and per-layer.

Two ways to run it (both from the repository root)::

    python3 benchmarks/layered/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/layered/run.py [--seed 42] [--reps 5] [--scale full|smoke] [--out FILE]

The first form is one *run*: it repeats the workload's set-up -> timed
region -> checks -> tear-down cycle until ``--seconds`` have been measured
(at least three cycles), checks every output, and prints one JSON object
as its last line — the end-to-end metrics with ``--trace 0`` (nothing
patched, tracing off), the per-layer metrics with ``--trace 1`` (one
untraced reference cycle, then cycles with the benchmark's own wrappers
installed around each layer's public entry points).  The measuring happens
in a child interpreter (``--inner``); the process started by the command
line only supervises it, and returns when every process of the run has
ended and has been waited for.

The second form is the full report: every ``(workload, rep)`` as a fresh
subprocess of the first form in rep-major order (w1..w8, w1..w8, ...) so
host drift spreads over all workloads, then one traced run per workload;
it prints every metric by name with its unit and can save the whole
document for ``compare.py``.

See README.md for the metric glossary and the layer -> end-to-end
prediction table.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
for _p in (str(HERE), str(REPO / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import metrics as metric_defs  # noqa: E402
from workloads import SCALES, WORKERS, WORKLOADS  # noqa: E402

#: Environment knobs that outrank the spec (``repro.config.env``) or
#: inject faults; the measured program must not see them.
SCRUBBED_ENV = (
    "REPRO_EXECUTOR", "REPRO_WORKERS", "REPRO_KERNEL_BACKEND",
    "REPRO_DISPATCH", "REPRO_RING_SLOTS", "REPRO_FABRIC_CRASH",
)

#: Cycles per run below which a median is not worth reporting.
MIN_CYCLES = {"full": 3, "smoke": 1}

#: A run has few cycles, so few samples of set-up, and most set-ups are
#: milliseconds: after the cycles, set-up alone is repeated up to this many
#: samples, for at most SETUP_EXTRA_S seconds.
SETUP_SAMPLES = {"full": 9, "smoke": 1}
SETUP_EXTRA_S = 1.5

#: Every checkpoint, cache and manifest lives under this one root, inside
#: the checkout, and is deleted when the run ends.
TMP_PARENT = REPO / ".bench_tmp"


def _digest(doc) -> str:
    from repro.config.runspec import canonical_json

    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# ----------------------------------------------------------------------
# Leak checks (feed the failed count)
# ----------------------------------------------------------------------
def shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def _unlink_shm(names) -> None:
    for name in names:
        try:
            os.unlink(os.path.join("/dev/shm", name))
        except OSError:
            pass


def live_children(skip_tracker: bool = True) -> list[int]:
    """Pids of this process's children that are still running.

    multiprocessing's resource tracker is not a leak of the program's: it
    serves the whole interpreter and exits just after it (the supervising
    process of the run, :func:`_child`, waits for it).
    """
    import multiprocessing

    multiprocessing.active_children()  # reaps the ones that already ended
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) != me or fields[0] == "Z":
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                if skip_tracker and b"multiprocessing.resource_tracker" in fh.read():
                    continue
        except OSError:
            continue
        out.append(int(entry))
    return out


# ----------------------------------------------------------------------
# One cycle, one run
# ----------------------------------------------------------------------
def cycle(workload, docs, root, *, rec=None, hooks=None, probe=False, timed=True):
    """set-up -> timed region -> checks -> tear-down, each timed apart."""
    hooks = hooks or {}
    tmp = tempfile.mkdtemp(dir=root)
    if rec is not None:
        rec.take()
    # An engine is a reference cycle: whether the previous cycle's state is
    # still there when this one allocates its own is up to the collector,
    # and peak RSS would read one state or two (push_heavy: 235 or 325 MiB,
    # 577 after set-up-only cycles, which allocate too little to trigger it).
    gc.collect()
    t0 = time.perf_counter()
    state = workload.setup(docs, tmp, hooks)
    t1 = time.perf_counter()
    if not timed:
        # Tear-down with no run in between is not a cycle's tear-down:
        # only the set-up is a sample.
        workload.teardown(state)
        shutil.rmtree(tmp)
        return {"setup_s": t1 - t0}
    setup_log = rec.take() if rec is not None else None
    raw = workload.timed(state)
    t2 = time.perf_counter()
    timed_log = rec.take() if rec is not None else None
    outcome = workload.outcome(state, raw)
    extras = workload.probe(state, docs, tmp, t2 - t1) if probe else {}
    t3 = time.perf_counter()
    workload.teardown(state)
    shutil.rmtree(tmp)
    t4 = time.perf_counter()
    return {
        "setup_s": t1 - t0, "wall_s": t2 - t1, "teardown_s": t4 - t3,
        "outcome": outcome, "extras": extras, "hooks": hooks,
        "setup_log": setup_log, "timed_log": timed_log,
    }


def _import_program() -> float:
    """Import every layer up front so no cycle pays a lazy import."""
    t0 = time.perf_counter()
    import repro.campaign  # noqa: F401
    import repro.config.build  # noqa: F401
    import repro.instrument  # noqa: F401
    import repro.parallel  # noqa: F401
    import repro.resilience.checkpoint  # noqa: F401
    import repro.runtime.multiplex  # noqa: F401
    return time.perf_counter() - t0


def layer_metrics(c: dict) -> dict[str, float]:
    """Per-layer metrics of one traced cycle (see README.md for meanings)."""
    from repro.bench.reporting import dispatch_breakdown

    t, s, out, wall = c["timed_log"], c["setup_log"], c["outcome"], c["wall_s"]
    busy, name_s, own_s, calls, n = t.busy, t.by_name, t.self_by_name, t.calls, t.counts
    counts, facts = out.counts, out.facts
    m: dict[str, float] = {}

    m["kernel.busy_s"] = busy["kernel"]
    m["kernel.calls"] = calls["kernel.advance"]
    m["kernel.pushes"] = n.get("kernel.pushes", 0)
    m["kernel.pushes_per_s"] = _ratio(m["kernel.pushes"], busy["kernel"])

    m["exchange.busy_s"] = busy["exchange"]
    m["exchange.calls"] = n.get("exchange.calls", 0)
    m["exchange.messages"] = counts.get("messages", 0)
    m["exchange.bytes"] = counts.get("bytes", 0)
    m["exchange.us_per_call"] = 1e6 * _ratio(busy["exchange"], m["exchange.calls"])
    m["exchange.ns_per_resident_particle"] = 1e9 * _ratio(
        busy["exchange"], n.get("exchange.resident", 0))
    m["particles.compact_s"] = name_s["particles.compact"]
    m["particles.pack_s"] = name_s["particles.pack"]
    m["particles.extend_s"] = name_s["particles.extend"]
    m["particles.reserve_growths"] = n.get("particles.reserve_growths", 0)

    m["scheduler.pump_s"] = busy["scheduler"]
    m["scheduler.ticks"] = counts.get("ticks", 0)
    m["scheduler.messages"] = counts.get("messages", 0)
    m["scheduler.collectives"] = counts.get("collectives", 0)
    m["scheduler.us_per_message"] = 1e6 * _ratio(busy["scheduler"], counts.get("messages", 0))

    stats = facts.get("executor", {})
    exec_tracer = c["hooks"].get("exec_tracer")
    totals = dispatch_breakdown(exec_tracer.spans)["totals"] if exec_tracer else {}
    m["executor.dispatch_s"] = own_s["executor.dispatch"]
    m["executor.wait_s"] = own_s["executor.wait"]
    m["executor.batches"] = n.get("executor.batches", 0)
    m["executor.tasks"] = n.get("executor.tasks", 0)
    m["executor.tasks_per_batch"] = _ratio(m["executor.tasks"], m["executor.batches"])
    m["executor.dispatch_cpu_us_per_task"] = 1e6 * totals.get(
        "steady_dispatch_cpu_s_per_task", 0.0)
    m["executor.plan_hits"] = stats.get("plan_hits", 0)
    m["executor.plan_misses"] = stats.get("plan_misses", 0)
    m["executor.worker_busy_s"] = totals.get("kernel_s", 0.0)
    m["executor.worker_utilisation"] = _ratio(m["executor.worker_busy_s"], WORKERS * wall)
    m["executor.pool_startup_s"] = stats.get("pool_startup_s", 0.0)

    m["checkpoint.write_s"] = own_s["checkpoint.write"]
    m["checkpoint.load_s"] = own_s["checkpoint.load"]
    m["checkpoint.bytes"] = counts.get("checkpoint_bytes", 0)
    m["checkpoint.files"] = counts.get("checkpoint_files", 0)
    m["checkpoint.write_mb_per_s"] = _ratio(m["checkpoint.bytes"] / 1e6, m["checkpoint.write_s"])
    m["checkpoint.resume_bytes_match"] = counts.get("resume_bytes_match", 0)
    m["pup.pack_s"] = own_s["pup.pack"]
    m["pup.unpack_s"] = own_s["pup.unpack"]

    lb = c["hooks"].get("tracer")
    m["lb.rounds"] = len(lb.events) if lb else 0
    m["lb.migrations"] = lb.migrations_total() if lb else 0
    m["lb.boundary_moves"] = lb.boundary_moves_total() if lb else 0
    m["lb.busy_s"] = busy["lb"]
    m["lb.final_imbalance"] = facts.get("final_imbalance", 0.0)
    m["events.busy_s"] = busy["events"]
    m["init.busy_s"] = s.busy["init"] + busy["init"]
    m["verify.busy_s"] = busy["verify"]

    m["campaign.busy_s"] = busy["campaign"]
    m["campaign.expand_s"] = name_s["campaign.expand"]
    m["campaign.points"] = counts.get("points", 0)
    m["campaign.executed"] = counts.get("executed", 0)
    m["campaign.cached"] = counts.get("cached", 0)
    m["campaign.points_per_s"] = _ratio(
        counts.get("points", 0) * counts.get("passes", 0), wall)
    m["campaign.worker_busy_frac"] = _ratio(
        facts.get("fabric_busy_s", 0.0), facts.get("jobs", 0) * wall)
    m["campaign.artifact_bytes"] = counts.get("artifact_bytes", 0)
    m["campaign.requeues"] = counts.get("requeues", 0)
    m["config.busy_s"] = busy["config"]

    m["multiplex.busy_s"] = busy["multiplex"]
    m["multiplex.slices"] = counts.get("slices", 0)
    m["multiplex.engines_per_s"] = _ratio(counts.get("engines", 0), wall)

    m["sim.time_s"] = out.sim_time_s
    m["bench.traced_wall_s"] = wall
    m["bench.unattributed_frac"] = 1.0 - _ratio(sum(busy.values()), wall)
    m["bench.teardown_s"] = c["teardown_s"]
    return m


def run_one(name: str, seed: int, seconds: float, trace: bool, scale: str,
            spans_path: str | None = None) -> tuple[dict, dict]:
    """One run of one workload: the contract result and a detail record."""
    for var in SCRUBBED_ENV:
        os.environ.pop(var, None)
    spec = metric_defs.load_spec()
    workload = WORKLOADS[name]
    docs = workload.docs(seed, SCALES[scale])
    shm_before = shm_segments()
    import_s = _import_program()

    TMP_PARENT.mkdir(exist_ok=True)
    root = tempfile.mkdtemp(prefix=f"{name}-", dir=TMP_PARENT)
    cycles: list[dict] = []
    rec = None
    try:
        # One discarded set-up/tear-down: lazy initialisation and the first
        # touch of fresh memory are paid once per process, not per cycle.
        # A traced run discards a whole cycle, because its single untraced
        # reference cycle is the base of ratios and must not be the cold one.
        cycle(workload, docs, root, timed=trace)
        start = time.perf_counter()
        if trace:
            from repro.instrument import ExecutorTrace, TraceCollector

            import tracing

            reference = cycle(workload, docs, root, probe=True)
            rec = tracing.Recorder()
            tracing.install(rec)
        # The reference cycle and its probes count towards a traced run's time.
        min_cycles = 1 if trace else MIN_CYCLES[scale]
        while len(cycles) < min_cycles or time.perf_counter() - start < seconds:
            hooks = ({"tracer": TraceCollector(), "exec_tracer": ExecutorTrace()}
                     if trace else None)
            cycles.append(cycle(workload, docs, root, rec=rec, hooks=hooks))
        setups = [c["setup_s"] for c in cycles]
        extra_start = time.perf_counter()
        while (not trace and len(setups) < SETUP_SAMPLES[scale]
               and time.perf_counter() - extra_start < SETUP_EXTRA_S):
            setups.append(cycle(workload, docs, root, timed=False)["setup_s"])
    finally:
        shutil.rmtree(root, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass  # another run of the benchmark is using it

    # -- output checks -------------------------------------------------
    everything = ([reference] if trace else []) + cycles
    outcomes = [c["outcome"] for c in everything]
    first = outcomes[0]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = []
    for i, o in enumerate(outcomes[1:], 1):
        # Same seed, same documents: results, simulated time and every
        # count must repeat exactly — across cycles and across the
        # untraced/traced passes (the no-perturbation invariant).
        if (o.docs, o.sim_time_s, o.pushes, o.counts) != (
                first.docs, first.sim_time_s, first.pushes, first.counts):
            problems.append(f"cycle {i} differs from cycle 0")
            failed += o.attempted
    leaked = sorted(shm_segments() - shm_before)
    children = live_children()
    if leaked:
        problems.append(f"leaked /dev/shm segments: {leaked}")
    if children:
        problems.append(f"surviving child processes: {children}")
    failed = min(attempted, failed + len(leaked) + len(children))

    # -- metrics -------------------------------------------------------
    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    walls = [c["wall_s"] for c in cycles]
    teardown_s = statistics.median(c["teardown_s"] for c in cycles)
    values = {
        "wall_s": statistics.median(walls),
        "pushes_per_s": statistics.median(first.pushes / w for w in walls),
        # Everything a cycle spends outside the timed region.
        "setup_s": statistics.median(setups) + teardown_s,
        "peak_rss_mb": usage / 1024.0,
        "teardown_s": teardown_s,
        "sim_time_s": first.sim_time_s,
        "failed_fraction": failed / attempted,
    }
    if trace:
        per_cycle = [layer_metrics(c) for c in cycles]
        layers = {k: statistics.median(m[k] for m in per_cycle) for k in per_cycle[0]}
        layers.update(reference["extras"])
        ref_rate = first.pushes / reference["wall_s"]
        layers["kernel.e2e_rate_ratio"] = _ratio(
            ref_rate, layers.get("kernel.micro_pushes_per_s", 0.0))
        layers["bench.trace_overhead_frac"] = values["wall_s"] / reference["wall_s"] - 1.0
        layers["bench.import_s"] = import_s
        reported = {m["name"]: {"value": float(layers.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in spec["per_layer"]}
        unknown = sorted(set(layers) - set(reported))
        if unknown:
            raise RuntimeError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
        if spans_path:
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump([c["timed_log"].spans for c in cycles], fh)
    else:
        reported = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec["end_to_end"]}

    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": reported}
    detail = {
        "workload": name, "seed": seed, "scale": scale, "trace": int(trace),
        "cycles": len(cycles), "values": values, "problems": problems,
        "pushes": first.pushes, "counts": first.counts,
        "inputs_sha256": _digest(docs), "results_sha256": _digest(first.docs),
        "samples": {"wall_s": walls, "setup_s": setups},
    }
    return result, detail


# ----------------------------------------------------------------------
# The full report
# ----------------------------------------------------------------------
def environment(seed: int, reps: int, scale: str) -> dict:
    import numpy

    from repro.core.kernel_compiled import resolve_backend

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "kernel_backend": resolve_backend("python"),
        "commit": commit, "seed": seed, "reps": reps, "scale": scale,
    }


def _adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux).

    A run's interpreter leaves multiprocessing's resource tracker behind for
    an instant when it exits; as sub-reaper this process inherits it (and
    anything else the run orphans) and can wait for it, instead of leaving
    that to init.
    """
    try:
        import ctypes

        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass  # the process-group poll in _reap still covers the run's session


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _kill_run(pgid: int) -> None:
    for kill, target in [(os.killpg, pgid),
                         *((os.kill, pid) for pid in live_children(skip_tracker=False))]:
        try:
            kill(target, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


def _reap(pgid: int, grace: float) -> bool:
    """Wait until every process of the run has ended.

    Returns False if some were still running after ``grace`` seconds and
    had to be killed.  Ends only when this process has no child left and
    the run's process group is empty.
    """
    clean = True
    deadline = time.monotonic() + grace
    while True:
        try:
            if os.waitpid(-1, os.WNOHANG)[0]:
                continue  # reaped one; look for the next
        except ChildProcessError:
            if not _group_alive(pgid):
                return clean
        if time.monotonic() > deadline:
            clean = False
            _kill_run(pgid)
            deadline = time.monotonic() + grace
        time.sleep(0.005)


def _child(name, seed, seconds, trace, scale, spans=None) -> tuple[dict, dict]:
    """One run in a fresh interpreter, in its own session, leak-checked.

    Does not return (or raise) before every process the run started has
    ended and has been waited for.
    """
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    shm_before = shm_segments()
    _adopt_orphans()
    cmd = [sys.executable, str(HERE / "run.py"), "--inner", "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
           "--scale", scale, *(["--spans", spans] if spans else [])]
    proc = subprocess.Popen(cmd, cwd=REPO, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate()
    except BaseException:
        # Interrupted: let the run delete its temp root (SIGTERM unwinds
        # it), kill what is left, and free the segments nobody closed.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        proc.terminate()
        try:
            proc.wait(timeout=3.0)
        except subprocess.TimeoutExpired:
            _kill_run(proc.pid)
            proc.wait()
        _reap(proc.pid, grace=1.0)
        _unlink_shm(shm_segments() - shm_before)
        raise
    # The resource tracker exits just after its parent; anything else still
    # alive five seconds later is a leak, and is killed.
    clean = _reap(proc.pid, grace=5.0)
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: run exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2].removeprefix("DETAIL "))
    if not clean:
        detail["problems"].append("processes outlived the run and were killed")
    leaked = sorted(shm_segments() - shm_before)
    if leaked:
        detail["problems"].append(f"leaked /dev/shm segments: {leaked}")
        _unlink_shm(leaked)
    if detail["problems"] and result["correct"]:
        result["correct"] = False
        result["failed"] = min(result["attempted"], result["failed"] + 1)
    return result, detail


def full_report(seed: int, reps: int, scale: str, seconds: float, out_path) -> int:
    spec = metric_defs.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    e2e = metric_defs.end_to_end_metrics(spec)
    report = {"env": environment(seed, reps, scale), "workloads": {}}
    untraced: dict[str, list] = {n: [] for n in names}
    for rep in range(reps):
        for name in names:
            print(f"[rep {rep + 1}/{reps}] {name}", file=sys.stderr, flush=True)
            untraced[name].append(_child(name, seed, seconds, False, scale))
    ok = True
    for name in names:
        print(f"[traced] {name}", file=sys.stderr, flush=True)
        t_result, t_detail = _child(name, seed, seconds, True, scale)
        runs = untraced[name] + [(t_result, t_detail)]
        details = [d for _, d in runs]
        mismatches = set()
        for d in details[1:]:
            # Across reps and across the traced/untraced passes.
            for key in ("results_sha256", "pushes", "counts"):
                if d[key] != details[0][key]:
                    mismatches.add(f"{key} differs between runs")
            if d["values"]["sim_time_s"] != details[0]["values"]["sim_time_s"]:
                mismatches.add("sim_time_s differs between runs")
        entry = {"end_to_end": {}, "per_layer": t_result["metrics"],
                 "counts": details[0]["counts"], "pushes": details[0]["pushes"],
                 "problems": sorted(mismatches | {p for d in details for p in d["problems"]})}
        for m in e2e:
            vals = [d["values"][m["name"]] for d in details[:-1]]
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "median": statistics.median(vals),
                "min": min(vals), "max": max(vals), "n": len(vals), "values": vals}
        # Failures are pooled over every run, traced one included, so that a
        # failure in a minority of runs cannot hide behind a median of 0; a
        # mismatch between runs fails one more operation.
        failed = sum(r["failed"] for r, _ in runs) + len(mismatches)
        attempted = sum(r["attempted"] for r, _ in runs)
        entry["end_to_end"]["failed_fraction"]["median"] = min(1.0, failed / attempted)
        ok = ok and failed == 0
        report["workloads"][name] = entry
    print(render(report))
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


def render(report: dict) -> str:
    env = report["env"]
    lines = ["layered benchmark  " + "  ".join(f"{k}={v}" for k, v in env.items())]
    for name, entry in report["workloads"].items():
        lines.append(f"\n== {name} ==  pushes={entry['pushes']}  "
                     + "  ".join(f"{k}={v}" for k, v in sorted(entry["counts"].items())))
        for metric, e in entry["end_to_end"].items():
            lines.append(f"  {metric:<34} {e['median']:>16.6g} {e['unit']:<6} "
                         f"(min {e['min']:.6g}, max {e['max']:.6g}, n={e['n']})")
        for metric, e in entry["per_layer"].items():
            lines.append(f"  {metric:<34} {e['value']:>16.6g} {e['unit']}")
        for problem in entry["problems"]:
            lines.append(f"  PROBLEM: {problem}")
    return "\n".join(lines)


def main(argv=None) -> int:
    spec = metric_defs.load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                    help="run this one workload and print the contract JSON line")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per run (default: BENCHMARK.json run_seconds; "
                         "0 with --scale smoke)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full")
    ap.add_argument("--reps", type=int, default=None,
                    help="full report: runs per workload (default 5; 1 with --scale smoke)")
    ap.add_argument("--out", help="full report: write the JSON document here")
    ap.add_argument("--spans", help="with --workload --trace 1: dump the span log here")
    ap.add_argument("--inner", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    smoke = args.scale == "smoke"
    seconds = args.seconds if args.seconds is not None else (
        0.0 if smoke else float(spec["run_seconds"]))
    if args.workload is None:
        reps = args.reps if args.reps is not None else (1 if smoke else 5)
        return full_report(args.seed, reps, args.scale, seconds, args.out)
    if args.inner:
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind, don't drop dead
        result, detail = run_one(args.workload, args.seed, seconds, bool(args.trace),
                                 args.scale, args.spans)
    else:
        # The run itself happens in a child (--inner) so that this process
        # can outlive it and wait for everything it started, on every way out.
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
        result, detail = _child(args.workload, args.seed, seconds, bool(args.trace),
                                args.scale, args.spans)
    for problem in detail["problems"]:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    print("DETAIL " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
