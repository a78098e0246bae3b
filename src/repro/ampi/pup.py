"""PUP (pack/unpack) serialization and sizing for VP state.

AMPI migrates a VP either with isomalloc (move the whole heap) or with
user-provided pack/unpack (PUP) routines that serialize exactly the live
state; the paper chose PUP "because it yields higher performance".  This
module provides both halves of that story:

* :func:`vp_state_bytes` — the byte count the migration *cost model*
  charges (particles + stored subgrid + fixed footprint);
* :func:`pack_vp` / :func:`unpack_vp` — a real, byte-exact PUP routine
  over the VP's live state: the particle buffer, the per-VP RNG stream,
  the ownership cache (the partition's clean-axis split vectors) and the
  driver's bookkeeping counters.  The checkpoint/restart subsystem
  (:mod:`repro.resilience.checkpoint`) stores one packed blob per rank.

The format is canonical — ``VPUP``, a little-endian ``<HI`` (version,
header length) prefix, a sorted-key JSON header, then the raw ``(n, 6)``
float64 particle buffer (version 3; version 2 blobs carry ``(n, 11)``, whose
first six columns are the same record, and still unpack) — so
``pack_vp(unpack_vp(b)...) == b`` holds bytewise, which is what lets
resumed runs and checkpoint files be compared for bit-identity.  The cost
model prices a blob as if it carried the paper's 11-double record
(:func:`charged_nbytes`).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.particles import STATE_FIELDS, ParticleArray, record_nbytes
from repro.decomp.partition import BlockPartition

#: Fixed per-VP overhead bytes: thread stack, communicator state, buffers.
VP_FIXED_BYTES: int = 16 * 1024

#: Stored bytes per mesh cell of the VP's subgrid (charge value at each
#: point, as the reference implementation stores it).
BYTES_PER_CELL: int = 8

#: On-wire PUP blob format: magic, version, little-endian lengths.
PUP_MAGIC: bytes = b"VPUP"
PUP_VERSION: int = 3
#: Particle columns in the body of each readable version (version 2 also
#: carried x0, y0, kdisp, mdisp and birth after the state).
_BODY_FIELDS = {2: 11, PUP_VERSION: STATE_FIELDS}
#: Magic plus the ``<HI`` (version, header length) prefix.
_PREFIX = len(PUP_MAGIC) + struct.calcsize("<HI")


def vp_state_bytes(
    particles: ParticleArray,
    subgrid_cells: int,
    *,
    particle_byte_scale: float = 1.0,
    cell_byte_scale: float = 1.0,
) -> int:
    """Bytes a PUP routine serializes when migrating this VP.

    The byte scales let scaled-down benchmark workloads price the state at
    the paper's full-scale volume (see repro.bench.workloads).
    """
    if subgrid_cells < 0:
        raise ValueError("subgrid_cells must be non-negative")
    return (
        VP_FIXED_BYTES
        + int(particles.nbytes * particle_byte_scale)
        + int(subgrid_cells * cell_byte_scale) * BYTES_PER_CELL
    )


@dataclass
class VpState:
    """Decoded contents of one PUP blob (see :func:`unpack_vp`)."""

    particles: ParticleArray
    rng_state: dict | None = None
    partition: BlockPartition | None = None
    counters: dict[str, Any] = field(default_factory=dict)


def rng_from_state(state: dict) -> np.random.Generator:
    """Rebuild a NumPy generator from a ``bit_generator.state`` dict."""
    bit_cls = getattr(np.random, state["bit_generator"])
    gen = np.random.Generator(bit_cls())
    gen.bit_generator.state = state
    return gen


def _canonical_rng_state(rng) -> dict | None:
    if rng is None:
        return None
    state = rng.bit_generator.state if hasattr(rng, "bit_generator") else rng
    # JSON round-trips lose nothing: PCG64/Philox state dicts hold Python
    # ints and strings only.
    return json.loads(json.dumps(state))


def pack_vp(
    particles: ParticleArray,
    *,
    rng=None,
    partition: BlockPartition | None = None,
    counters: dict[str, Any] | None = None,
) -> bytes:
    """Serialize one VP's live state to a canonical byte string.

    ``rng`` may be a :class:`numpy.random.Generator` or an already-extracted
    ``bit_generator.state`` dict.  ``counters`` must be JSON-serializable
    (the driver's removed-id sum, push counts, LB accumulators...).
    """
    header = {
        "n": len(particles),
        "rng": _canonical_rng_state(rng),
        "partition": None
        if partition is None
        else {
            "cells": int(partition.cells),
            "xsplits": [int(v) for v in partition.xsplits],
            "ysplits": [int(v) for v in partition.ysplits],
        },
        "counters": counters or {},
    }
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = particles.pack().tobytes()
    return PUP_MAGIC + struct.pack("<HI", PUP_VERSION, len(hjson)) + hjson + body


def _prefix(blob: bytes) -> tuple[int, int]:
    """``(body columns, header length)`` of a blob; ``ValueError`` if its
    magic, prefix or version is bad."""
    if blob[:4] != PUP_MAGIC:
        raise ValueError("not a PUP blob (bad magic)")
    if len(blob) < _PREFIX:
        raise ValueError(
            f"PUP blob truncated: {len(blob)} bytes, its prefix needs {_PREFIX}"
        )
    version, hlen = struct.unpack_from("<HI", blob, 4)
    if version not in _BODY_FIELDS:
        raise ValueError(f"unsupported PUP version {version}")
    return _BODY_FIELDS[version], hlen


def charged_nbytes(blob: bytes) -> int:
    """Bytes the cost model charges for a blob: its prefix and header plus
    :func:`record_nbytes` of its particles, whatever its body's width."""
    width, hlen = _prefix(blob)
    n = (len(blob) - _PREFIX - hlen) // (width * 8)
    return _PREFIX + hlen + record_nbytes(n)


def unpack_vp(blob: bytes) -> VpState:
    """Inverse of :func:`pack_vp`; raises ``ValueError`` on malformed blobs."""
    width, hlen = _prefix(blob)
    try:
        header = json.loads(blob[_PREFIX : _PREFIX + hlen].decode("utf-8"))
        n = int(header["n"])
        rng_state, p, counters = header["rng"], header["partition"], header["counters"]
        part = None if p is None else BlockPartition(
            int(p["cells"]),
            np.asarray(p["xsplits"], dtype=np.int64),
            np.asarray(p["ysplits"], dtype=np.int64),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed PUP header: {exc!r}") from exc
    expect = n * width * 8
    body = blob[_PREFIX + hlen :]
    if len(body) != expect:
        raise ValueError(
            f"PUP blob truncated: {len(body)} particle bytes, expected {expect}"
        )
    buf = np.frombuffer(body, dtype="<f8").reshape(n, width)
    return VpState(
        particles=ParticleArray.from_packed(buf[:, :STATE_FIELDS].copy()),
        rng_state=rng_state,
        partition=part,
        counters=counters,
    )
