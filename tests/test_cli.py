"""Tests for the pic-prk command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serial_defaults(self):
        args = build_parser().parse_args(["serial"])
        assert args.cells == 128
        assert args.dist == "geometric"

    def test_run_impl_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--impl", "bogus"])


class TestCommands:
    def test_serial_runs_and_verifies(self, capsys):
        rc = main(["serial", "--cells", "32", "--particles", "200", "--steps", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    def test_serial_all_distributions(self, capsys):
        for dist in ("uniform", "sinusoidal", "linear"):
            rc = main([
                "serial", "--cells", "32", "--particles", "100",
                "--steps", "3", "--dist", dist,
            ])
            assert rc == 0

    def test_serial_patch_distribution(self, capsys):
        rc = main([
            "serial", "--cells", "32", "--particles", "100", "--steps", "3",
            "--dist", "patch", "--patch", "4", "12", "4", "12",
        ])
        assert rc == 0

    @pytest.mark.parametrize("impl", ["mpi-2d", "mpi-2d-LB", "ampi"])
    def test_run_each_implementation(self, impl, capsys):
        rc = main([
            "run", "--impl", impl, "--cores", "4",
            "--cells", "32", "--particles", "400", "--steps", "8",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert impl in out
        assert "PASS" in out

    def test_trace_renders_timeline(self, capsys):
        rc = main([
            "trace", "--impl", "mpi-2d", "--cores", "4",
            "--cells", "32", "--particles", "400", "--steps", "8",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "imbalance" in out

    def test_trace_help_mentions_out(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--out" in out
        assert "trace.json" in out

    @pytest.mark.parametrize("impl", ["mpi-2d", "mpi-2d-LB", "ampi"])
    def test_trace_out_writes_artifacts(self, impl, tmp_path, capsys):
        outdir = tmp_path / "obs"
        rc = main([
            "trace", "--impl", impl, "--cores", "4",
            "--cells", "32", "--particles", "300", "--steps", "6",
            "--out", str(outdir),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("trace.json", "timeline.txt", "metrics.json"):
            path = outdir / name
            assert path.exists(), f"{name} not written"
            assert path.stat().st_size > 0
            assert name in out
        doc = json.loads((outdir / "trace.json").read_text())
        assert doc["traceEvents"]
        metrics = json.loads((outdir / "metrics.json").read_text())
        assert metrics["transport.messages_sent"]["value"] > 0
        assert "rank 0:" in (outdir / "timeline.txt").read_text()

    def test_trace_without_out_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main([
            "trace", "--impl", "mpi-2d", "--cores", "4",
            "--cells", "32", "--particles", "300", "--steps", "6",
        ])
        assert rc == 0
        assert list(tmp_path.iterdir()) == []

    def test_run_with_knobs(self, capsys):
        rc = main([
            "run", "--impl", "mpi-2d-LB", "--cores", "6",
            "--cells", "48", "--particles", "600", "--steps", "12",
            "--lb-interval", "3", "--border-width", "2", "--axes", "xy",
            "--k", "1", "--m", "1",
        ])
        assert rc == 0

    def test_rotate90_flag(self, capsys):
        rc = main([
            "serial", "--cells", "32", "--particles", "100", "--steps", "3",
            "--rotate90",
        ])
        assert rc == 0


class TestExecutorFlags:
    def test_executor_choices(self):
        args = build_parser().parse_args(["run", "--executor", "batched"])
        assert args.executor == "batched"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--executor", "gpu"])

    @pytest.mark.parametrize("executor", ["serial", "batched", "process"])
    def test_run_each_executor(self, executor, capsys):
        argv = [
            "run", "--impl", "mpi-2d", "--cores", "4",
            "--cells", "32", "--particles", "400", "--steps", "4",
            "--executor", executor,
        ]
        if executor == "process":
            argv += ["--workers", "2"]
        rc = main(argv)
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    def test_profile_with_process_executor_is_rejected(self, capsys):
        rc = main([
            "run", "--impl", "mpi-2d", "--cores", "4",
            "--cells", "32", "--particles", "200", "--steps", "2",
            "--profile", "--executor", "process",
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert "--profile" in err
        assert "worker processes" in err
        assert "docs/performance.md" in err

    def test_profile_with_serial_executor_still_works(self, capsys):
        rc = main([
            "run", "--impl", "mpi-2d", "--cores", "2",
            "--cells", "16", "--particles", "40", "--steps", "2",
            "--profile", "--executor", "serial",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cProfile" in out

    def test_trace_out_with_process_executor_writes_executor_trace(
        self, tmp_path, capsys
    ):
        outdir = tmp_path / "obs"
        rc = main([
            "trace", "--impl", "mpi-2d", "--cores", "4",
            "--cells", "32", "--particles", "300", "--steps", "4",
            "--executor", "process", "--workers", "2",
            "--out", str(outdir),
        ])
        assert rc == 0
        doc = json.loads((outdir / "executor_trace.json").read_text())
        names = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"}
        assert {"dispatch", "execute", "merge"} <= names


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


class TestResilienceCLI:
    def _plan_file(self, tmp_path):
        from repro.resilience import FaultPlan, SlowdownFault

        path = str(tmp_path / "plan.json")
        FaultPlan(
            seed=2, faults=(SlowdownFault(factor=3.0, core=0, start=2),)
        ).save(path)
        return path

    def _run_with_checkpoints(self, tmp_path, capsys):
        ckpt_dir = str(tmp_path / "ckpts")
        rc = main([
            "run", "--impl", "mpi-2d-LB", "--cores", "4",
            "--cells", "32", "--particles", "400", "--steps", "8",
            "--faults", self._plan_file(tmp_path),
            "--checkpoint-every", "4", "--checkpoint-dir", ckpt_dir,
        ])
        out = capsys.readouterr().out
        assert rc == 0
        return ckpt_dir, out

    def test_run_with_faults_and_checkpoints(self, tmp_path, capsys):
        import os

        ckpt_dir, out = self._run_with_checkpoints(tmp_path, capsys)
        assert "PASS" in out
        assert "latest checkpoint" in out
        assert sorted(os.listdir(ckpt_dir)) == [
            "ckpt_step000004.ckpt", "ckpt_step000008.ckpt",
        ]

    def test_resume_subcommand(self, tmp_path, capsys):
        import os

        ckpt_dir, _ = self._run_with_checkpoints(tmp_path, capsys)
        rc = main([
            "resume", "--from", os.path.join(ckpt_dir, "ckpt_step000004.ckpt"),
            "--checkpoint-dir", str(tmp_path / "resumed"),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "resuming mpi-2d-LB at step 4/8" in out
        assert "PASS" in out

    @pytest.mark.parametrize("impl", ["mpi-2d", "mpi-2d-LB", "ampi"])
    def test_resume_rewrites_the_final_checkpoint_byte_identically(
        self, impl, tmp_path, capsys
    ):
        whole, again = tmp_path / "whole", tmp_path / "again"
        assert main([
            "run", "--impl", impl, "--cores", "4", "-d", "2",
            "--lb-interval", "3", "--ampi-interval", "3",
            "--cells", "32", "--particles", "400", "--steps", "8",
            "--checkpoint-every", "4", "--checkpoint-dir", str(whole),
        ]) == 0
        assert main([
            "resume", "--from", str(whole / "ckpt_step000004.ckpt"),
            "--checkpoint-dir", str(again),
        ]) == 0
        capsys.readouterr()
        final = "ckpt_step000008.ckpt"
        assert (again / final).read_bytes() == (whole / final).read_bytes()

    def test_checkpoint_without_runspec_is_refused_by_both_entry_points(
        self, tmp_path, capsys
    ):
        import struct
        import zlib

        from repro.resilience import resume_engine
        from repro.resilience.checkpoint import CKPT_MAGIC, CKPT_VERSION, Snapshot
        from repro.runtime.errors import CheckpointCorruptError

        ckpt_dir, _ = self._run_with_checkpoints(tmp_path, capsys)
        path = os.path.join(ckpt_dir, "ckpt_step000004.ckpt")
        # The pre-RunSpec layout: loose keys only, with a valid CRC.
        snap = Snapshot.load(path)
        header = dict(snap.header, meta={"impl": "mpi-2d-LB", "n_cores": 4})
        hjson = json.dumps(header).encode("utf-8")
        payload = struct.pack("<I", len(hjson)) + hjson + b"".join(snap.blobs)
        with open(path, "wb") as fh:
            fh.write(CKPT_MAGIC + struct.pack("<IQ", CKPT_VERSION, len(payload)))
            fh.write(payload + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(CheckpointCorruptError, match="no runspec") as cli:
            main(["resume", "--from", path])
        with pytest.raises(CheckpointCorruptError) as api:
            resume_engine(path)
        assert str(cli.value) == str(api.value)

    def test_resume_rejects_corrupt_checkpoint(self, tmp_path, capsys):
        import os

        ckpt_dir, _ = self._run_with_checkpoints(tmp_path, capsys)
        path = os.path.join(ckpt_dir, "ckpt_step000004.ckpt")
        raw = bytearray(open(path, "rb").read())
        raw[-10] ^= 0xFF
        open(path, "wb").write(bytes(raw))
        from repro.runtime.errors import CheckpointCorruptError

        with pytest.raises(CheckpointCorruptError):
            main(["resume", "--from", path])

    def test_resume_validates_matching_spec(self, tmp_path, capsys):
        import os

        ckpt_dir, _ = self._run_with_checkpoints(tmp_path, capsys)
        # Capture the run's resolved spec via --dry-run, then resume
        # against it: same identity -> accepted.
        rc = main([
            "run", "--impl", "mpi-2d-LB", "--cores", "4",
            "--cells", "32", "--particles", "400", "--steps", "8",
            "--faults", self._plan_file(tmp_path),
            "--checkpoint-every", "4", "--checkpoint-dir", ckpt_dir,
            "--dry-run",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        spec_path = tmp_path / "match.json"
        spec_path.write_text(out[: out.rindex("spec hash:")])
        rc = main([
            "resume", "--from", os.path.join(ckpt_dir, "ckpt_step000004.ckpt"),
            "--checkpoint-dir", str(tmp_path / "resumed"),
            "--spec", str(spec_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "resuming mpi-2d-LB at step 4/8" in out

    def test_resume_rejects_mismatched_spec_naming_fields(
        self, tmp_path, capsys
    ):
        import json
        import os

        ckpt_dir, _ = self._run_with_checkpoints(tmp_path, capsys)
        rc = main([
            "run", "--impl", "mpi-2d-LB", "--cores", "4",
            "--cells", "32", "--particles", "400", "--steps", "8",
            "--faults", self._plan_file(tmp_path),
            "--checkpoint-every", "4", "--checkpoint-dir", ckpt_dir,
            "--dry-run",
        ])
        out = capsys.readouterr().out
        doc = json.loads(out[: out.rindex("spec hash:")])
        doc["impl"]["lb_interval"] = 5
        spec_path = tmp_path / "mismatch.json"
        spec_path.write_text(json.dumps(doc))
        rc = main([
            "resume", "--from", os.path.join(ckpt_dir, "ckpt_step000004.ckpt"),
            "--spec", str(spec_path),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert "different run configuration" in err
        assert "impl.lb_interval: 5 != 2" in err

    def test_resilience_bench_smoke(self, tmp_path, capsys):
        out_path = str(tmp_path / "BENCH_resilience.json")
        rc = main(["resilience", "--preset", "smoke", "--out", out_path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all gates passed" in out
        doc = json.loads(open(out_path).read())
        from repro.bench import resilience as bench

        assert bench.check_schema(doc) == []
        assert doc["preset"] == "smoke"


class TestRunSpecCLI:
    ARGS = [
        "--impl", "mpi-2d-LB", "--cores", "4",
        "--cells", "32", "--particles", "400", "--steps", "8",
    ]

    def test_dry_run_prints_resolved_spec_without_running(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        rc = main(["run", *self.ARGS, "--dry-run"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "spec hash: " in out
        assert "PASS" not in out  # nothing ran
        assert list(tmp_path.iterdir()) == []  # nothing written
        doc = json.loads(out[: out.rindex("spec hash:")])
        # fully resolved: driver defaults are filled in, not null
        assert doc["impl"]["name"] == "mpi-2d-LB"
        assert doc["impl"]["min_width"] == 1
        assert doc["impl"]["axes"] == "x"
        assert doc["workload"]["cells"] == 32

    def test_dry_run_prints_effective_kernel_backend(self, capsys):
        """--dry-run shows what would actually execute: the ``auto``
        request is mapped to the concrete backend (the same resolution
        the real run performs), never echoed verbatim."""
        from repro.core.kernel_compiled import resolve_backend

        rc = main(["run", *self.ARGS, "--dry-run"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out[: out.rindex("spec hash:")])
        assert doc["executor"]["kernel_backend"] == resolve_backend("auto")
        assert doc["executor"]["kernel_backend"] != "auto"

    def test_dry_run_explicit_backend_passes_through(self, capsys):
        rc = main([
            "run", *self.ARGS, "--kernel-backend", "python", "--dry-run",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out[: out.rindex("spec hash:")])
        assert doc["executor"]["kernel_backend"] == "python"
        # removed knobs (dispatch, ring_slots) are never emitted
        assert set(doc["executor"]) == {"kind", "workers", "kernel_backend"}

    @pytest.mark.parametrize("argv", [
        ["run", *ARGS, "--dispatch", "pipe"],
        ["run", *ARGS, "--dispatch", "ring"],
        ["campaign", "decl.json", "--jobs", "2", "--runner", "pool"],
        ["campaign", "decl.json", "--runner", "engines"],
        ["campaign", "decl.json", "--order-seed", "1"],
        ["perf"],
        ["run", *ARGS, "--kernel-backend", "compiled-parallel"],
    ])
    def test_removed_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()

    def test_dry_run_hash_excludes_backend_and_dispatch(self, tmp_path, capsys):
        """Backend can never change what a run computes, and a spec file
        still carrying the removed ``executor.dispatch`` key or naming the
        removed ``compiled-parallel`` backend loads, so the printed
        identity hash must not move with any of them."""
        spec = self._write_spec(tmp_path, capsys)
        doc = json.loads(open(spec).read())
        doc["executor"]["dispatch"] = "pipe"
        doc["executor"]["kernel_backend"] = "compiled-parallel"
        with open(spec, "w") as fh:
            json.dump(doc, fh)
        hashes = set()
        for argv in (
            ["run", *self.ARGS, "--dry-run"],
            ["run", "--spec", spec, "--kernel-backend", "python", "--dry-run"],
        ):
            rc = main(argv)
            out = capsys.readouterr().out
            assert rc == 0
            assert '"dispatch"' not in out
            assert "compiled-parallel" not in out
            hashes.add(out[out.rindex("spec hash:"):].split()[-1])
        # What the commit before the backend was removed printed for ARGS.
        assert hashes == {
            "3d78e16f5db9170fe57546befe131959f9f97da518e9fa0ca0ba7e092972ce7b"
        }

    def test_dry_run_hash_is_canonical(self, capsys):
        from repro.config import RunSpec
        from repro.config.build import canonical_hash

        rc = main(["run", *self.ARGS, "--dry-run"])
        out = capsys.readouterr().out
        assert rc == 0
        printed = out[out.rindex("spec hash:"):].split()[-1]
        rs = RunSpec.from_json(out[: out.rindex("spec hash:")])
        assert printed == canonical_hash(rs)

    def _write_spec(self, tmp_path, capsys, extra=()):
        rc = main(["run", *self.ARGS, *extra, "--dry-run"])
        out = capsys.readouterr().out
        assert rc == 0
        path = tmp_path / "spec.json"
        path.write_text(out[: out.rindex("spec hash:")])
        return str(path)

    def test_run_from_spec_file(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path, capsys)
        rc = main(["run", "--spec", spec])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mpi-2d-LB on 4 simulated cores" in out
        assert "PASS" in out

    def test_explicit_flag_overrides_spec_file(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path, capsys)
        rc = main(["run", "--spec", spec, "--cores", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mpi-2d-LB on 8 simulated cores" in out

    def test_unset_flag_does_not_clobber_spec_file(self, tmp_path, capsys):
        # The spec says cores=4; the --cores default (24) must not win.
        spec = self._write_spec(tmp_path, capsys)
        rc = main(["run", "--spec", spec])
        out = capsys.readouterr().out
        assert rc == 0
        assert "on 4 simulated cores" in out

    def test_impl_switch_replaces_impl_section(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path, capsys)
        rc = main(["run", "--spec", spec, "--impl", "mpi-2d"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mpi-2d on 4 simulated cores" in out

    def test_bad_spec_file_is_a_clean_error(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({
            "workload": {"cells": 32, "n_particles": 100, "steps": 2},
            "impl": {"name": "mpi-2d", "cores": 2, "bogus": 1},
        }))
        rc = main(["run", "--spec", str(spec)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "bogus" in err

    def test_serial_accepts_spec_and_dry_run(self, tmp_path, capsys):
        rc = main([
            "serial", "--cells", "32", "--particles", "200", "--steps", "5",
            "--dry-run",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out[: out.rindex("spec hash:")])
        assert doc["impl"]["name"] == "serial"
        spec = tmp_path / "serial.json"
        spec.write_text(out[: out.rindex("spec hash:")])
        rc = main(["serial", "--spec", str(spec)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out


class TestCampaignCLI:
    def _declaration(self, tmp_path):
        doc = {
            "schema": 1,
            "campaign": "cli-smoke",
            "base": {
                "workload": {"cells": 32, "n_particles": 300, "steps": 4},
                "impl": {"name": "mpi-2d", "cores": 2},
            },
            "axes": [
                {"axis": "cores", "path": "impl.cores", "values": [2, 4]},
            ],
        }
        path = tmp_path / "camp.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_campaign_runs_then_caches(self, tmp_path, capsys):
        decl = self._declaration(tmp_path)
        cache = str(tmp_path / "cache")
        rc = main(["campaign", decl, "--cache", cache])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 points: 2 executed, 0 cached" in out
        rc = main(["campaign", decl, "--cache", cache, "--expect-cached"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 points: 0 executed, 2 cached" in out

    def test_expect_cached_fails_on_cold_cache(self, tmp_path, capsys):
        decl = self._declaration(tmp_path)
        rc = main([
            "campaign", decl, "--cache", str(tmp_path / "cold"),
            "--expect-cached",
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert "--expect-cached" in captured.err

    def test_bad_declaration_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"campaign": "x"}))
        rc = main(["campaign", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "base" in err


class TestExecutorPrecedence:
    ARGS = [
        "run", "--impl", "mpi-2d", "--cores", "2",
        "--cells", "32", "--particles", "200", "--steps", "2",
    ]

    def test_env_sets_backend_when_flag_absent(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "batched")
        rc = main([*self.ARGS, "--dry-run"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out[: out.rindex("spec hash:")])
        assert doc["executor"]["kind"] == "batched"

    def test_cli_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "batched")
        rc = main([*self.ARGS, "--executor", "serial", "--dry-run"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out[: out.rindex("spec hash:")])
        assert doc["executor"]["kind"] == "serial"

    def test_env_beats_spec_file(self, tmp_path, capsys, monkeypatch):
        rc = main([*self.ARGS, "--executor", "process", "--dry-run"])
        out = capsys.readouterr().out
        spec = tmp_path / "spec.json"
        spec.write_text(out[: out.rindex("spec hash:")])
        monkeypatch.setenv("REPRO_EXECUTOR", "serial")
        rc = main(["run", "--spec", str(spec), "--dry-run"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out[: out.rindex("spec hash:")])
        assert doc["executor"]["kind"] == "serial"

    def test_executor_choice_does_not_change_hash(self, capsys):
        rc = main([*self.ARGS, "--executor", "serial", "--dry-run"])
        out_a = capsys.readouterr().out
        assert rc == 0
        rc = main([*self.ARGS, "--executor", "batched", "--workers", "2",
                   "--dry-run"])
        out_b = capsys.readouterr().out
        assert rc == 0
        hash_a = out_a[out_a.rindex("spec hash:"):]
        hash_b = out_b[out_b.rindex("spec hash:"):]
        assert hash_a == hash_b


@pytest.mark.parametrize("env, argv", [
    ({"REPRO_EXECUTOR": "gpu"}, ["run", "--dry-run"]),
    ({}, ["campaign", "{decl}", "--jobs", "2", "--io-batch", "0"]),
    ({}, ["campaign", "{decl}", "--heartbeat-timeout", "0"]),
    ({}, ["run", "--executor", "process", "--workers", "-1", "--steps", "1"]),
    ({}, ["trace", "--out", "{file}"]),
], ids=["env-executor", "io-batch", "heartbeat-timeout", "workers", "trace-out-file"])
def test_bad_outside_input_is_a_clean_error(env, argv, tmp_path, capsys, monkeypatch):
    """Bad values from the environment or the command line print one
    ``error:`` line and exit 2, never a traceback."""
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    decl = TestCampaignCLI()._declaration(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("an existing file\n")
    rc = main([arg.format(decl=decl, file=taken) for arg in argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "Traceback" not in err
