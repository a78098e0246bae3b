"""The CLI surface cannot move: what each flag means and what each
subcommand accepts.

``cli_golden.json`` holds, for a fixed set of invocations, the document and
the hash ``--dry-run`` prints, and for every subcommand the option strings,
defaults, ``choices`` and ``required`` of each argument.  It was written
before the flag -> RunSpec mapping was rewritten as one table; a
difference here means a flag now builds a different run (or the option
surface changed) — never regenerate the file to make this pass.

The environment is pinned (no ``REPRO_EXECUTOR`` / ``REPRO_WORKERS``,
``REPRO_KERNEL_BACKEND=python``), so the printed executor section is the
same on every host and in every CI matrix leg.
"""

import argparse
import contextlib
import io
import json
import os

import pytest

from repro.cli import build_parser, main

HERE = os.path.dirname(__file__)
GOLDEN_PATH = os.path.join(HERE, "cli_golden.json")

#: A spec file the ``--spec`` cases start from.
SPEC_FILE = {
    "workload": {"cells": 64, "n_particles": 5000, "steps": 30,
                 "distribution": "linear", "alpha": 1.0, "beta": 2.0, "k": 1},
    "impl": {"name": "mpi-2d-LB", "cores": 12, "lb_interval": 4, "axes": "y"},
    "cost": {"particle_push_s": 2e-7},
    "resilience": {"checkpoint_every": 5},
    "executor": {"kind": "batched"},
}

_EVERY_FLAG = [
    "--cores", "6", "--cells", "48", "--particles", "900", "--steps", "12",
    "--dist", "patch", "--patch", "4", "20", "8", "40", "--r", "0.9",
    "--alpha", "2", "--beta", "5", "--k", "1", "--m", "2", "--rotate90",
    "--seed", "7", "--push-ns", "1200", "--lb-interval", "3",
    "--border-width", "2", "--threshold", "0.05", "--axes", "xy",
    "-d", "4", "--ampi-interval", "5", "--faults", "{faults}",
    "--checkpoint-every", "4", "--checkpoint-dir", "ckpt-golden",
]

#: name -> argv; ``{spec}`` / ``{faults}`` are replaced by file paths.
CASES = {
    "serial-default": ["serial"],
    "run-default": ["run"],
    "run-default-mpi-2d-LB": ["run", "--impl", "mpi-2d-LB"],
    "run-default-ampi": ["run", "--impl", "ampi"],
    "trace-default": ["trace"],
    "run-every-flag-mpi-2d-LB": ["run", "--impl", "mpi-2d-LB", *_EVERY_FLAG],
    "run-every-flag-ampi": ["run", "--impl", "ampi", *_EVERY_FLAG],
    "spec-typed-override": [
        "run", "--spec", "{spec}", "--cores", "8", "--steps", "20",
        "--threshold", "0.1", "--push-ns", "900", "--ampi-interval", "9",
    ],
    "spec-same-impl-typed": [
        "run", "--spec", "{spec}", "--impl", "mpi-2d-LB", "--lb-interval", "7",
    ],
    "spec-impl-switch": ["run", "--spec", "{spec}", "--impl", "ampi"],
    "spec-impl-switch-cores": [
        "run", "--spec", "{spec}", "--impl", "mpi-2d", "--cores", "16",
    ],
    "serial-spec": ["serial", "--spec", "{spec}", "--cells", "32"],
}


def _dry_run(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main([*argv, "--dry-run"])
    assert rc == 0, argv
    text = out.getvalue()
    cut = text.rindex("spec hash:")
    return {"doc": json.loads(text[:cut]), "hash": text[cut:].split()[-1]}


def _surface() -> dict:
    """subcommand -> [[option strings, default, choices, required], ...]."""
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return {
        name: [
            [list(a.option_strings) or [a.dest], a.default,
             None if a.choices is None else list(a.choices), a.required]
            for a in parser._actions if a.dest != "help"
        ]
        for name, parser in sorted(sub.choices.items())
    }


def write_inputs(tmp_dir: str) -> dict:
    """The spec and fault-plan files the cases name, written into tmp_dir."""
    from repro.resilience import FaultPlan, SlowdownFault

    paths = {"spec": os.path.join(tmp_dir, "spec.json"),
             "faults": os.path.join(tmp_dir, "plan.json")}
    with open(paths["spec"], "w", encoding="utf-8") as fh:
        json.dump(SPEC_FILE, fh)
    FaultPlan(seed=2, faults=(SlowdownFault(factor=3.0, core=0, start=2),)
              ).save(paths["faults"])
    return paths


def dry_run_case(name: str, paths: dict) -> dict:
    return _dry_run([arg.format(**paths) for arg in CASES[name]])


@pytest.fixture
def pinned_env(monkeypatch):
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "python")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_dry_run_document_and_hash_unchanged(name, golden, pinned_env, tmp_path):
    got = dry_run_case(name, write_inputs(str(tmp_path)))
    assert got["doc"] == golden["cases"][name]["doc"]
    assert got["hash"] == golden["cases"][name]["hash"]


def test_option_surface_unchanged(golden):
    assert _surface() == golden["surface"]

