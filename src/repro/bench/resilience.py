"""Straggler-recovery benchmark for the resilience subsystem.

Measures, in *simulated* time, how much of a straggler-induced slowdown
each implementation recovers.  The scenario deliberately uses a uniform
particle distribution: a static block decomposition is then perfectly
count-balanced, so every second of excess runtime is attributable to the
injected fault rather than to the workload's own imbalance.

One core is slowed by ``SLOWDOWN_FACTOR`` from ``FAULT_START`` to the end
of the run (a 4x CPU straggler, the shape of the paper's Fig. 6 imbalance
but induced by the machine instead of the particle cloud).  Each
implementation runs twice — without and with the fault plan — and the
figure of merit is the *recovered fraction* of the slowdown the static
``mpi-2d`` baseline suffers::

    recovery_X = 1 - (T_X_fault - T_X_clean) / (T_mpi2d_fault - T_mpi2d_clean)

``mpi-2d`` has no load-balancing response, so its recovery is 0 by
construction.  ``mpi-2d-LB`` (diffusion on measured step seconds) and
``ampi`` (VP migration on measured VP seconds) are gated at
``>= 0.5`` in the ``full`` preset: the dynamic implementations must win
back at least half of what the static one loses.  The straggler watch's
measured loads are what make this possible — particle counts stay
balanced under a CPU fault, so a count-based balancer would see nothing.

Faulted runs also exercise checkpointing (every ``CHECKPOINT_EVERY``
steps, into a temporary directory) so the bench doubles as an integration
run of the full resilience stack; all verifications must pass.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
from typing import Callable

import numpy as np

from repro.config import RunSpec
from repro.config.build import build_impl
from repro.resilience import FaultPlan, SlowdownFault

SCHEMA_VERSION = 1

SLOWDOWN_FACTOR = 4.0
SLOW_CORE = 0
FAULT_START = 10
CHECKPOINT_EVERY = 25


def _plan() -> FaultPlan:
    return FaultPlan(
        seed=1,
        faults=(
            SlowdownFault(
                factor=SLOWDOWN_FACTOR, core=SLOW_CORE, start=FAULT_START
            ),
        ),
    )


def _impls(cores: int) -> dict:
    """The three contenders, with LB knobs tuned to react within the run."""
    return {
        "mpi-2d": {"name": "mpi-2d", "cores": cores, "dims": [cores, 1]},
        "mpi-2d-LB": {
            "name": "mpi-2d-LB", "cores": cores, "dims": [cores, 1],
            "lb_interval": 2, "border_width": 2, "threshold_fraction": 0.02,
            "axes": "x",
        },
        "ampi": {"name": "ampi", "cores": cores, "overdecomposition": 8,
                 "lb_interval": 5},
    }


def _run_pair(name: str, workload: dict, impl: dict, ckpt_dir: str) -> dict:
    def run(resilience: dict):
        doc = {"workload": workload, "impl": impl, "resilience": resilience}
        return build_impl(RunSpec.from_dict(doc)).run()

    clean = run({})
    # A fault plan arms the straggler watch and the default recovery policy.
    faulted = run({
        "faults": _plan().to_dict(), "checkpoint_every": CHECKPOINT_EVERY,
        "checkpoint_dir": os.path.join(ckpt_dir, name),
    })
    return {
        "impl": name,
        "clean_time_s": clean.total_time,
        "fault_time_s": faulted.total_time,
        "slowdown_s": faulted.total_time - clean.total_time,
        "verification_ok": bool(clean.verification.ok and faulted.verification.ok),
        "checkpoints_written": sorted(
            os.listdir(os.path.join(ckpt_dir, name))
        ),
    }


def run_scenario(
    cells: int,
    particles: int,
    steps: int,
    cores: int,
    *,
    gate_min_recovery: float | None,
    progress: Callable[[str], None] = print,
) -> tuple[dict, list[dict]]:
    workload = {"cells": cells, "n_particles": particles, "steps": steps,
                "distribution": "uniform"}
    scenario = {
        "cells": cells,
        "particles": particles,
        "steps": steps,
        "cores": cores,
        "slowdown_factor": SLOWDOWN_FACTOR,
        "slow_core": SLOW_CORE,
        "fault_start": FAULT_START,
        "checkpoint_every": CHECKPOINT_EVERY,
    }
    entries = []
    with tempfile.TemporaryDirectory(prefix="resilience-bench-") as ckpt_dir:
        for name, impl in _impls(cores).items():
            entries.append(_run_pair(name, workload, impl, ckpt_dir))

    baseline = next(e for e in entries if e["impl"] == "mpi-2d")
    base_slow = baseline["slowdown_s"]
    for e in entries:
        if e["impl"] == "mpi-2d" or base_slow <= 0:
            e["recovery_fraction"] = None
            e["gate_min_recovery"] = None
        else:
            e["recovery_fraction"] = 1.0 - e["slowdown_s"] / base_slow
            e["gate_min_recovery"] = gate_min_recovery
        rec = e["recovery_fraction"]
        progress(
            f"  {e['impl']}: clean {e['clean_time_s'] * 1e3:.2f} ms, "
            f"faulted {e['fault_time_s'] * 1e3:.2f} ms"
            + (f", recovered {rec:.0%} of the static slowdown" if rec is not None else "")
        )
    return scenario, entries


def run_suite(preset: str = "full", progress: Callable[[str], None] = print) -> dict:
    """Run one preset and return the BENCH_resilience document (a dict)."""
    if preset == "full":
        scenario, entries = run_scenario(
            cells=64, particles=32_000, steps=80, cores=8,
            gate_min_recovery=0.5, progress=progress,
        )
    elif preset == "smoke":
        scenario, entries = run_scenario(
            cells=32, particles=4_000, steps=40, cores=4,
            gate_min_recovery=0.2, progress=progress,
        )
    else:
        raise ValueError(f"unknown preset: {preset!r}")
    return dict(
        schema=SCHEMA_VERSION,
        preset=preset,
        machine=machine_fingerprint(),
        scenario=scenario,
        entries=entries,
    )


def machine_fingerprint() -> dict:
    return dict(
        platform=platform.platform(),
        python=platform.python_version(),
        numpy=np.__version__,
        cpu_count=os.cpu_count(),
    )


# ----------------------------------------------------------------------
# Persistence and gating
# ----------------------------------------------------------------------
def save_bench(doc: dict, path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_bench(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    errors = check_schema(doc)
    if errors:
        raise ValueError(f"{path}: {'; '.join(errors)}")
    return doc


_ENTRY_KEYS = (
    "impl",
    "clean_time_s",
    "fault_time_s",
    "slowdown_s",
    "recovery_fraction",
    "gate_min_recovery",
    "verification_ok",
    "checkpoints_written",
)


def check_schema(doc: dict) -> list[str]:
    """Structural validation of a BENCH_resilience document."""
    errors = []
    if doc.get("schema") != SCHEMA_VERSION:
        errors.append(f"schema {doc.get('schema')!r} != {SCHEMA_VERSION}")
        return errors
    for key in ("preset", "machine", "scenario", "entries"):
        if key not in doc:
            errors.append(f"missing top-level key {key!r}")
    impls = set()
    for e in doc.get("entries", ()):
        for key in _ENTRY_KEYS:
            if key not in e:
                errors.append(f"entry {e.get('impl')!r} missing key {key!r}")
        impls.add(e.get("impl"))
    for required in ("mpi-2d", "mpi-2d-LB", "ampi"):
        if required not in impls:
            errors.append(f"no entry for implementation {required!r}")
    return errors


def check_gates(doc: dict) -> list[str]:
    """Acceptance floors: recovery fraction and verification of every run."""
    failures = check_schema(doc)
    for e in doc.get("entries", ()):
        if not e.get("verification_ok", False):
            failures.append(f"{e.get('impl')}: verification failed")
        gate = e.get("gate_min_recovery")
        rec = e.get("recovery_fraction")
        if gate is not None and (rec is None or rec < gate):
            failures.append(
                f"{e.get('impl')}: recovered "
                f"{'n/a' if rec is None else f'{rec:.0%}'} of the static "
                f"slowdown, below the {gate:.0%} gate"
            )
        if not e.get("checkpoints_written"):
            failures.append(f"{e.get('impl')}: faulted run wrote no checkpoints")
    return failures
