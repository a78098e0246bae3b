"""Checkpoint files: format validation, scheduling, spec round-trip."""

from __future__ import annotations

import os
import struct

import numpy as np
import pytest

from repro.ampi import pup
from repro.core.spec import (
    Distribution,
    InjectionEvent,
    PICSpec,
    Region,
    RemovalEvent,
    spec_from_dict,
    spec_to_dict,
)
from repro.instrument import Tracer
from repro.parallel import Mpi2dPIC
from repro.resilience import (
    Checkpointer,
    CrashFault,
    FaultPlan,
    RecoveryPolicy,
    ResilienceConfig,
    RuntimeResilience,
    Snapshot,
)
from repro.resilience.checkpoint import CKPT_MAGIC
from repro.runtime import Scheduler
from repro.runtime.errors import CheckpointCorruptError


def _spec(steps=6):
    return PICSpec(
        cells=32, n_particles=600, steps=steps,
        distribution=Distribution.UNIFORM,
    )


@pytest.fixture()
def ckpt(tmp_path):
    """A real checkpoint written by a short mpi-2d run."""
    directory = str(tmp_path / "ckpts")
    cfg = ResilienceConfig(checkpointer=Checkpointer(directory, every=2))
    result = Mpi2dPIC(_spec(), 4, resilience=cfg).run()
    assert result.verification.ok
    files = sorted(os.listdir(directory))
    assert files == [
        "ckpt_step000002.ckpt", "ckpt_step000004.ckpt", "ckpt_step000006.ckpt"
    ]
    return os.path.join(directory, files[0])


class TestSnapshotLoad:
    def test_round_trip(self, ckpt):
        snap = Snapshot.load(ckpt)
        assert snap.next_step == 2
        assert snap.n_ranks == 4
        # The run is described once: its RunSpec identity and hash.
        assert set(snap.meta) == {"runspec", "runspec_hash"}
        assert snap.meta["runspec"]["impl"]["name"] == "mpi-2d"
        assert spec_from_dict(snap.meta["runspec"]["workload"]) == _spec()
        assert len(snap.header["global"]["clocks"]) == 4

    def test_transport_counters_round_trip(self, ckpt):
        """``seq``, ``messages_sent`` and ``bytes_sent`` come back exactly,
        and the next posted message continues the numbering."""
        from repro.resilience.checkpoint import _capture_global
        from repro.runtime import Scheduler

        snap = Snapshot.load(ckpt)
        g = snap.header["global"]
        assert g["seq"] == g["messages_sent"] > 0 and g["bytes_sent"] > 0
        sched = Scheduler(4)
        snap.apply_global(sched)
        again = _capture_global(sched, snap.next_step)
        for key in ("seq", "messages_sent", "bytes_sent"):
            assert again[key] == g[key]
        sched.transport.post(0, 0, 1, 0, None, 0, 0.0)
        assert sched.transport.match(0, 0, 1, 0).seq == g["seq"] + 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointCorruptError, match="cannot read"):
            Snapshot.load(str(tmp_path / "nope.ckpt"))

    def test_truncated(self, ckpt):
        raw = open(ckpt, "rb").read()
        with open(ckpt, "wb") as fh:
            fh.write(raw[: len(raw) // 2])
        with pytest.raises(CheckpointCorruptError, match="truncated"):
            Snapshot.load(ckpt)

    def test_bad_magic(self, ckpt):
        raw = bytearray(open(ckpt, "rb").read())
        raw[:4] = b"XXXX"
        open(ckpt, "wb").write(bytes(raw))
        with pytest.raises(CheckpointCorruptError, match="bad magic"):
            Snapshot.load(ckpt)

    def test_bad_version(self, ckpt):
        raw = bytearray(open(ckpt, "rb").read())
        struct.pack_into("<I", raw, len(CKPT_MAGIC), 99)
        open(ckpt, "wb").write(bytes(raw))
        with pytest.raises(CheckpointCorruptError, match="version 99"):
            Snapshot.load(ckpt)

    def test_flipped_payload_byte_fails_crc(self, ckpt):
        raw = bytearray(open(ckpt, "rb").read())
        raw[len(raw) // 2] ^= 0xFF
        open(ckpt, "wb").write(bytes(raw))
        with pytest.raises(CheckpointCorruptError, match="CRC"):
            Snapshot.load(ckpt)

    def test_check_compatible(self, ckpt):
        snap = Snapshot.load(ckpt)
        snap.check_compatible("mpi-2d", 4, 4)  # no raise
        with pytest.raises(CheckpointCorruptError, match="impl"):
            snap.check_compatible("ampi", 4, 4)
        with pytest.raises(CheckpointCorruptError, match="geometry"):
            snap.check_compatible("mpi-2d", 8, 8)


def test_resume_engine_accepts_parent_commit_executor_section(tmp_path, monkeypatch):
    """A checkpoint whose embedded runspec carries an executor section in
    its pre-removal shape (``"dispatch": null``) still resumes."""
    from repro.resilience import resume_engine

    plain_meta = Mpi2dPIC._snapshot_meta

    def meta_with_executor(self):
        meta = plain_meta(self)
        meta["runspec"]["executor"] = {
            "kind": "serial", "workers": None, "kernel_backend": None,
            "dispatch": None, "ring_slots": None,
        }
        return meta

    monkeypatch.setattr(Mpi2dPIC, "_snapshot_meta", meta_with_executor)
    directory = str(tmp_path / "ckpts")
    cfg = ResilienceConfig(checkpointer=Checkpointer(directory, every=2))
    whole = Mpi2dPIC(_spec(), 4, resilience=cfg).run()
    cut = os.path.join(directory, "ckpt_step000002.ckpt")
    assert "dispatch" in Snapshot.load(cut).meta["runspec"]["executor"]
    resumed = resume_engine(cut, checkpoint_dir=str(tmp_path / "again")).run()
    assert resumed.verification.ok
    assert resumed.total_time == whole.total_time


def test_crash_recovery_prices_the_paper_record(tmp_path):
    """A restore after a checkpoint is priced at the blob's charged size —
    88 B per particle, the paper's 11-double record — not at the length of
    its 6-column body, both in the writing run and after a resume."""
    directory = str(tmp_path / "ckpts")
    tracer = Tracer()
    cfg = ResilienceConfig(
        plan=FaultPlan(faults=(CrashFault(rank=1, step=3, retries=1),)),
        recovery=RecoveryPolicy(),
        checkpointer=Checkpointer(directory, every=2),
    )
    assert Mpi2dPIC(_spec(), 4, resilience=cfg, span_tracer=tracer).run().verification.ok
    snap = Snapshot.load(os.path.join(directory, "ckpt_step000002.ckpt"))

    def paper_bytes(blob):
        return len(blob) + 5 * 8 * len(pup.unpack_vp(blob).particles)

    (span,) = [s for s in tracer.spans if s.name == "recovery"]
    assert span.args_dict()["state_bytes"] == paper_bytes(snap.blobs[1])

    resumed = Checkpointer(directory)
    sched = Scheduler(4, resilience=RuntimeResilience(checkpointer=resumed))
    snap.apply_global(sched)
    assert resumed.last_blob_bytes == {
        r: paper_bytes(blob) for r, blob in enumerate(snap.blobs)
    }


def test_a_driver_initializes_the_population_once(tmp_path, monkeypatch):
    """A fresh run builds the verification table from the population it
    hands out; a resumed run, which skips initialization, builds it once,
    when it first verifies.  Injected particles verify from either."""
    from repro.parallel import base
    from repro.resilience import resume_engine

    calls = []
    real = base.initialize
    monkeypatch.setattr(base, "initialize", lambda *a: calls.append(1) or real(*a))
    region = Region(0, 16, 0, 16)
    spec = PICSpec(cells=32, n_particles=600, steps=6, distribution=Distribution.UNIFORM,
                   events=(InjectionEvent(step=1, region=region, count=50),
                           RemovalEvent(step=3, region=region, fraction=0.5)))
    directory = str(tmp_path / "ckpts")
    cfg = ResilienceConfig(checkpointer=Checkpointer(directory, every=2))
    fresh = Mpi2dPIC(spec, 4, resilience=cfg).run()
    assert fresh.verification.ok and len(calls) == 1
    calls.clear()
    cut = os.path.join(directory, "ckpt_step000002.ckpt")
    resumed = resume_engine(cut, checkpoint_dir=str(tmp_path / "again")).run()
    assert resumed.verification.ok and len(calls) == 1
    assert resumed.total_time == fresh.total_time


def _as_version_2(blob: bytes) -> bytes:
    """A PUP blob as a parent commit wrote it: the same header over an
    ``(n, 11)`` body whose last five columns carried verification metadata."""
    (hlen,) = struct.unpack_from("<I", blob, 6)
    state = np.frombuffer(blob[10 + hlen :], dtype="<f8").reshape(-1, 6)
    legacy = np.hstack([state, np.full((len(state), 5), 7.0)])
    return b"VPUP" + struct.pack("<HI", 2, hlen) + blob[10 : 10 + hlen] + legacy.tobytes()


def test_parent_commit_checkpoint_resumes_identically(tmp_path):
    """A checkpoint whose blobs are PUP version 2 resumes to the same clocks
    and the same later checkpoint bytes as the uninterrupted run."""
    from repro.resilience import resume_engine

    directory = str(tmp_path / "ckpts")
    cfg = ResilienceConfig(checkpointer=Checkpointer(directory, every=2))
    fresh = Mpi2dPIC(_spec(), 4, resilience=cfg).run()
    snap = Snapshot.load(os.path.join(directory, "ckpt_step000002.ckpt"))
    old = Checkpointer(str(tmp_path / "old"), meta=snap.meta)
    cut = old._write(1, {"global": snap.header["global"],
                         "blobs": {r: _as_version_2(b) for r, b in enumerate(snap.blobs)}})
    assert Snapshot.load(cut).blobs[0][4] == 2
    again = str(tmp_path / "again")
    resumed = resume_engine(cut, checkpoint_dir=again).run()
    assert resumed.verification.ok
    assert resumed.total_time == fresh.total_time
    assert resumed.bytes_sent == fresh.bytes_sent
    for name in ("ckpt_step000004.ckpt", "ckpt_step000006.ckpt"):
        with open(os.path.join(directory, name), "rb") as a, \
                open(os.path.join(again, name), "rb") as b:
            assert a.read() == b.read()


class TestCheckpointer:
    def test_interval_schedule(self, tmp_path):
        ck = Checkpointer(str(tmp_path), every=3)
        assert [t for t in range(10) if ck.due(t)] == [2, 5, 8]

    def test_disabled_by_default(self, tmp_path):
        ck = Checkpointer(str(tmp_path))
        assert not any(ck.due(t) for t in range(10))

    def test_request_arms_one_snapshot(self, tmp_path):
        ck = Checkpointer(str(tmp_path), every=0)
        assert not ck.due(0)
        ck.request()
        assert ck.due(0) and ck.due(1)  # armed until a round completes

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match=">= 0"):
            Checkpointer(str(tmp_path), every=-1)
        with pytest.raises(ValueError, match="bandwidth"):
            Checkpointer(str(tmp_path), bandwidth=0.0)

    def test_write_seconds_scale_with_bytes(self, tmp_path):
        ck = Checkpointer(str(tmp_path), bandwidth=1e6, fixed_s=1e-3)
        assert ck.write_seconds(0) == pytest.approx(1e-3)
        assert ck.write_seconds(10**6) == pytest.approx(1e-3 + 1.0)


class TestSpecRoundTrip:
    def test_plain(self):
        spec = _spec()
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_with_patch_and_events(self):
        spec = PICSpec(
            cells=32, n_particles=500, steps=8,
            distribution=Distribution.PATCH, patch=Region(4, 12, 4, 12),
            events=(
                InjectionEvent(step=2, region=Region(0, 8, 0, 8), count=50),
                RemovalEvent(step=5, region=Region(8, 16, 8, 16)),
            ),
        )
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_json_compatible(self):
        import json

        doc = json.loads(json.dumps(spec_to_dict(_spec())))
        assert spec_from_dict(doc) == _spec()
