"""Checkpoint/restart for the simulated PIC runs.

A checkpoint is a *consistent cut*: the drivers end step ``t`` with a
barrier (after charging the simulated write cost), and every rank
contributes its packed PUP blob (:func:`repro.ampi.pup.pack_vp`) when it
resumes.  Because the scheduler is single-threaded and collectives
synchronize all clocks, the first contribution of a round observes global
scheduler state (clocks, core clocks, VP->core placement, transport
counters, straggler-watch state) before any post-barrier op dispatches —
so the captured cut is exactly the world at the barrier.

On-disk format (versioned, CRC-validated)::

    magic "RPRKCKPT" | u32 version | u64 payload_len | payload | u32 crc32

    payload = u32 header_len | header JSON | rank-0 blob | rank-1 blob ...

The header carries the global scheduler state, per-rank blob sizes, and a
``meta`` block — the run's RunSpec identity document (``runspec``) and its
content hash (``runspec_hash``) — from which :func:`load_for_resume`
rebuilds the run from the file alone, for ``pic-prk resume`` and
:func:`resume_engine` alike.  Restoring continues any of the three
implementations bitwise-identically to the uninterrupted run:
positions, checksums, sim clocks and the golden trace from the resumed
step onward are equal (pinned by tests/resilience/test_resume_equivalence).
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import replace

from repro.ampi.pup import charged_nbytes
from repro.runtime.errors import CheckpointCorruptError

CKPT_MAGIC = b"RPRKCKPT"
CKPT_VERSION = 1


# ----------------------------------------------------------------------
# Global scheduler state capture/restore
# ----------------------------------------------------------------------
def _capture_global(scheduler, next_step: int) -> dict:
    res = getattr(scheduler, "resilience", None)
    watch = res.watch if res is not None else None
    # Per-core state is stored for the cores ever occupied (busy > 0),
    # keyed by core, so every checkpoint shares one header format.
    busy = scheduler.core_busy
    used = [c for c, seconds in enumerate(busy) if seconds > 0.0]
    return {
        "next_step": next_step,
        "clocks": list(scheduler.clock),
        "rank_busy": list(scheduler.rank_busy),
        "core_clock": {str(c): scheduler.core_clock[c] for c in used},
        "core_busy": {str(c): busy[c] for c in used},
        "rank_to_core": list(scheduler.rank_to_core),
        "messages_sent": scheduler.transport.messages_sent,
        "bytes_sent": scheduler.transport.bytes_sent,
        "seq": scheduler.transport._seq,
        "collectives_completed": scheduler.collectives_completed,
        "watch": None if watch is None else watch.state_dict(),
    }


class Snapshot:
    """One parsed checkpoint: global header plus per-rank PUP blobs."""

    def __init__(self, header: dict, blobs: list[bytes]):
        self.header = header
        self.blobs = blobs
        self._applied = False

    # -- convenience accessors ----------------------------------------
    @property
    def next_step(self) -> int:
        return int(self.header["global"]["next_step"])

    @property
    def meta(self) -> dict:
        return self.header.get("meta", {})

    @property
    def n_ranks(self) -> int:
        return len(self.blobs)

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: str) -> "Snapshot":
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise CheckpointCorruptError(f"cannot read checkpoint {path}: {exc}")
        if len(raw) < len(CKPT_MAGIC) + 12 + 4:
            raise CheckpointCorruptError(f"checkpoint {path} is truncated")
        if raw[: len(CKPT_MAGIC)] != CKPT_MAGIC:
            raise CheckpointCorruptError(f"{path} is not a checkpoint (bad magic)")
        off = len(CKPT_MAGIC)
        version, payload_len = struct.unpack_from("<IQ", raw, off)
        off += 12
        if version != CKPT_VERSION:
            raise CheckpointCorruptError(
                f"checkpoint {path} has unsupported version {version}"
            )
        if len(raw) < off + payload_len + 4:
            raise CheckpointCorruptError(
                f"checkpoint {path} is truncated "
                f"({len(raw) - off - 4} of {payload_len} payload bytes)"
            )
        payload = raw[off : off + payload_len]
        (crc_stored,) = struct.unpack_from("<I", raw, off + payload_len)
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        if crc != crc_stored:
            raise CheckpointCorruptError(
                f"checkpoint {path} failed CRC validation "
                f"(stored {crc_stored:#010x}, computed {crc:#010x})"
            )
        (hlen,) = struct.unpack_from("<I", payload, 0)
        header = json.loads(payload[4 : 4 + hlen].decode("utf-8"))
        blobs = []
        cursor = 4 + hlen
        for size in header["blob_sizes"]:
            blobs.append(bytes(payload[cursor : cursor + size]))
            cursor += size
        return cls(header, blobs)

    def check_compatible(self, impl: str, n_ranks: int, n_cores: int) -> None:
        taken = self.meta.get("runspec", {}).get("impl", {})
        if taken.get("name") != impl:
            raise CheckpointCorruptError(
                f"checkpoint was taken by impl {taken.get('name')!r}, "
                f"cannot resume {impl!r}"
            )
        if self.n_ranks != n_ranks or taken.get("cores") != n_cores:
            raise CheckpointCorruptError(
                f"checkpoint geometry ({self.n_ranks} ranks on "
                f"{taken.get('cores')} cores) does not match the run "
                f"({n_ranks} ranks on {n_cores} cores)"
            )

    def apply_global(self, scheduler) -> None:
        """Restore global scheduler state (idempotent; first caller wins).

        Called by every rank right after the resume barrier; the barrier
        guarantees no post-restore op has dispatched yet when the first
        caller runs, so clocks, core clocks, placement, transport counters
        and watch state all come back exactly as captured.
        """
        if self._applied:
            return
        self._applied = True
        g = self.header["global"]
        scheduler.clock[:] = [float(v) for v in g["clocks"]]
        scheduler.rank_busy[:] = [float(v) for v in g["rank_busy"]]
        for per_core, stored in ((scheduler.core_clock, g["core_clock"]),
                                 (scheduler.core_busy, g["core_busy"])):
            per_core[:] = [0.0] * len(per_core)
            for k, v in stored.items():
                per_core[int(k)] = float(v)
        scheduler.rank_to_core[:] = [int(v) for v in g["rank_to_core"]]
        scheduler.transport.messages_sent = int(g["messages_sent"])
        scheduler.transport.bytes_sent = int(g["bytes_sent"])
        scheduler.transport._seq = int(g["seq"])
        scheduler.collectives_completed = int(g["collectives_completed"])
        res = getattr(scheduler, "resilience", None)
        if res is not None and res.watch is not None and g["watch"] is not None:
            res.watch.load_state(g["watch"])
        if res is not None and res.checkpointer is not None:
            # Crash recovery prices the restore from the latest checkpoint's
            # charged blob size; the resumed run must see the same sizes the
            # uninterrupted run had on record at the cut.
            res.checkpointer.last_blob_bytes = {
                r: charged_nbytes(blob) for r, blob in enumerate(self.blobs)
            }


class Checkpointer:
    """Coordinates periodic/on-demand snapshots across the SPMD ranks.

    ``every=N`` checkpoints at the end of every N-th step (after steps
    ``N-1, 2N-1, ...``); :meth:`request` arms one extra on-demand snapshot
    at the next step end.  The simulated write cost per rank is
    ``fixed_s + blob_bytes / bandwidth`` — checkpointing is a real,
    costed operation in simulated time, identical in the uninterrupted
    and resumed runs (the resumed run re-takes the later checkpoints on
    the same absolute schedule, producing byte-identical files).
    """

    def __init__(
        self,
        directory: str,
        every: int = 0,
        *,
        bandwidth: float = 2.0e8,
        fixed_s: float = 1e-4,
        meta: dict | None = None,
    ):
        if every < 0:
            raise ValueError("checkpoint interval must be >= 0")
        if bandwidth <= 0:
            raise ValueError("checkpoint bandwidth must be positive")
        self.directory = directory
        self.every = every
        self.bandwidth = bandwidth
        self.fixed_s = fixed_s
        self.meta = dict(meta or {})
        self.last_path: str | None = None
        self.last_blob_bytes: dict[int, int] = {}
        self._requested = False
        self._rounds: dict[int, dict] = {}

    # ------------------------------------------------------------------
    def request(self) -> None:
        """Arm one on-demand snapshot at the next step boundary."""
        self._requested = True

    def due(self, step: int) -> bool:
        if self._requested:
            return True
        return self.every > 0 and (step + 1) % self.every == 0

    def write_seconds(self, nbytes: int) -> float:
        """Simulated seconds one rank spends serializing+writing its blob."""
        return self.fixed_s + nbytes / self.bandwidth

    # ------------------------------------------------------------------
    def contribute(
        self, scheduler, rank: int, step: int, blob: bytes, n_ranks: int
    ) -> str | None:
        """One rank hands over its blob after the checkpoint barrier.

        The first contributor of a round captures the global state; the
        last writes the file and returns its path (others return None).
        """
        rnd = self._rounds.get(step)
        if rnd is None:
            rnd = self._rounds[step] = {
                "global": _capture_global(scheduler, step + 1),
                "blobs": {},
            }
        rnd["blobs"][rank] = blob
        self.last_blob_bytes[rank] = charged_nbytes(blob)
        if len(rnd["blobs"]) < n_ranks:
            return None
        del self._rounds[step]
        self._requested = False
        path = self._write(step, rnd)
        self.last_path = path
        return path

    def _write(self, step: int, rnd: dict) -> str:
        blobs = [rnd["blobs"][r] for r in range(len(rnd["blobs"]))]
        header = {
            "global": rnd["global"],
            "blob_sizes": [len(b) for b in blobs],
            "meta": self.meta,
        }
        hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode(
            "utf-8"
        )
        payload = struct.pack("<I", len(hjson)) + hjson + b"".join(blobs)
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        os.makedirs(self.directory, exist_ok=True)
        path = os.path.join(self.directory, f"ckpt_step{step + 1:06d}.ckpt")
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(CKPT_MAGIC)
            fh.write(struct.pack("<IQ", CKPT_VERSION, len(payload)))
            fh.write(payload)
            fh.write(struct.pack("<I", crc))
        os.replace(tmp, path)
        return path


# ----------------------------------------------------------------------
# Engine-level pause/resume
# ----------------------------------------------------------------------
def pause_engine(engine, checkpointer: Checkpointer, *, force: bool = False):
    """Drive ``engine`` to its next consistent checkpoint cut and stop.

    Rank generators are not picklable, so a mid-op core dump is off the
    table by design; what *is* capturable — bitwise-exactly — is the
    consistent cut the checkpoint subsystem already defines at step-end
    barriers.  Pausing therefore means: keep ticking until the
    checkpointer writes its next scheduled file, then stop driving.  The
    returned path feeds :func:`resume_engine`, which rebuilds an engine
    whose continuation is byte-identical to never having paused (the cut
    was on the uninterrupted run's schedule, so neither its clocks nor
    its later checkpoint bytes can tell the difference).

    ``force=True`` additionally arms :meth:`Checkpointer.request` so a
    run with ``every == 0`` (or one far from its next scheduled cut) can
    still be paused.  The extra on-demand checkpoint is a *real costed
    operation* in simulated time — write compute plus a barrier — so a
    forced pause is a deterministic perturbation of the timeline, not a
    transparent one.  Equivalence tests use scheduled cuts only.

    Returns the checkpoint path, or ``None`` if the engine finished
    before reaching a cut (callers should then take ``engine.result()``).
    """
    from repro.runtime.engine import ENGINE_FINISHED
    from repro.runtime.errors import RuntimeConfigError

    if checkpointer.every <= 0 and not force:
        raise RuntimeConfigError(
            "cannot pause: checkpointer has no schedule (every == 0); "
            "pass force=True to arm an on-demand checkpoint (note: a "
            "forced cut charges real simulated write time)"
        )
    if force:
        checkpointer.request()
    before = checkpointer.last_path
    while True:
        status = engine.tick()
        if status == ENGINE_FINISHED:
            return None
        engine.flush()
        if checkpointer.last_path is not None and checkpointer.last_path != before:
            return checkpointer.last_path


def load_for_resume(path: str, checkpoint_dir: str | None = None):
    """``(snapshot, runspec)`` of a checkpoint file: the one rebuild path.

    Loads the CRC-validated snapshot and the RunSpec embedded in its
    metadata; a checkpoint without one (written before checkpoints embedded
    their RunSpec) is refused.  ``checkpoint_dir`` names where the
    continuation keeps checkpointing (an IO location, not run identity); it
    defaults to the directory the paused run was writing into, so later
    scheduled checkpoints land byte-identically next to the pause file.
    """
    from repro.config.runspec import RunSpec

    snapshot = Snapshot.load(path)
    if "runspec" not in snapshot.meta:
        raise CheckpointCorruptError(
            f"checkpoint {path} carries no runspec metadata; checkpoints "
            "written before runs embedded their RunSpec cannot be resumed"
        )
    rs = RunSpec.from_dict(snapshot.meta["runspec"])
    if checkpoint_dir is None:
        checkpoint_dir = os.path.dirname(os.path.abspath(path))
    return snapshot, rs.with_overrides(
        resilience=replace(rs.resilience, checkpoint_dir=checkpoint_dir)
    )


def resume_engine(path: str, *, checkpoint_dir: str | None = None, **build_kwargs):
    """Rebuild a paused run's engine from a checkpoint file.

    Returns a fresh bound :class:`~repro.runtime.engine.SimEngine` that
    continues from the cut (see :func:`load_for_resume`).
    ``build_kwargs`` pass through to :func:`repro.config.build.build_impl`
    (tracer, executor, ...).
    """
    from repro.config.build import build_impl

    snapshot, rs = load_for_resume(path, checkpoint_dir)
    return build_impl(rs, resume=snapshot, **build_kwargs).build_engine()
