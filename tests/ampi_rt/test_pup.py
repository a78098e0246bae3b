"""Byte-exact PUP round-trips (the checkpoint subsystem's foundation)."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from repro.ampi import pup
from repro.core.initialization import initialize
from repro.core.mesh import Mesh
from repro.core.particles import ParticleArray
from repro.core.spec import Distribution, PICSpec
from repro.decomp.partition import BlockPartition


def _particles(n=200):
    spec = PICSpec(cells=16, n_particles=n, steps=1,
                   distribution=Distribution.UNIFORM)
    return initialize(spec, Mesh(spec.cells, spec.h, spec.q))


def _rng(draws=3):
    rng = np.random.default_rng([42, 7771, 5])
    rng.random(draws)  # advance mid-stream, as a checkpoint would find it
    return rng


def _counters():
    return {
        "removed_ids": 123,
        "max_particles": 456,
        "pushes": 789,
        "extra": {"lb_forced": 7, "migrations": 2.5},
    }


class TestRoundTrip:
    def test_pack_unpack_pack_is_identity(self):
        partition = BlockPartition.uniform(16, 2, 2)
        blob = pup.pack_vp(
            _particles(), rng=_rng(), partition=partition, counters=_counters()
        )
        state = pup.unpack_vp(blob)
        again = pup.pack_vp(
            state.particles,
            rng=state.rng_state,
            partition=state.partition,
            counters=state.counters,
        )
        assert again == blob

    def test_particles_bitwise(self):
        particles = _particles()
        state = pup.unpack_vp(pup.pack_vp(particles))
        assert state.particles.pack().tobytes() == particles.pack().tobytes()

    def test_empty_population(self):
        state = pup.unpack_vp(pup.pack_vp(ParticleArray.empty(0)))
        assert len(state.particles) == 0
        assert state.rng_state is None
        assert state.partition is None

    def test_counters_round_trip(self):
        state = pup.unpack_vp(pup.pack_vp(_particles(5), counters=_counters()))
        assert state.counters == _counters()

    def test_rng_stream_continues_identically(self):
        rng = _rng()
        blob = pup.pack_vp(ParticleArray.empty(0), rng=rng)
        expected = rng.random(8)  # what the live generator produces next
        restored = pup.rng_from_state(pup.unpack_vp(blob).rng_state)
        assert np.array_equal(restored.random(8), expected)

    def test_partition_round_trip(self):
        partition = BlockPartition.uniform(32, 4, 2)
        got = pup.unpack_vp(
            pup.pack_vp(ParticleArray.empty(0), partition=partition)
        ).partition
        assert got.cells == partition.cells
        assert np.array_equal(got.xsplits, partition.xsplits)
        assert np.array_equal(got.ysplits, partition.ysplits)


def _blob(version, header: dict, body: np.ndarray) -> bytes:
    """A PUP blob assembled by hand: prefix, canonical header, raw body."""
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return b"VPUP" + struct.pack("<HI", version, len(hjson)) + hjson + body.tobytes()


class TestFormat:
    def test_body_is_six_columns_priced_at_eleven(self):
        particles = _particles(200)
        blob = pup.pack_vp(particles, rng=_rng(), counters=_counters())
        (version, hlen) = struct.unpack_from("<HI", blob, 4)
        assert version == pup.PUP_VERSION == 3
        assert len(blob) == 10 + hlen + 200 * 6 * 8
        assert blob[10 + hlen :] == particles.pack().tobytes()
        # The cost model prices the paper's 11-double record.
        assert pup.charged_nbytes(blob) == 10 + hlen + 200 * 11 * 8

    def test_version_2_blob_still_unpacks(self):
        """A parent checkpoint's 11-column body: its first six columns are
        the record, the other five (x0, y0, kdisp, mdisp, birth) are
        dropped."""
        particles = _particles(50)
        state = particles.pack()
        legacy_cols = np.column_stack([
            particles.x, particles.y, np.full(50, 3.0), np.ones(50), np.zeros(50)
        ])
        header = {"n": 50, "rng": None, "partition": None, "counters": _counters()}
        v2 = _blob(2, header, np.hstack([state, legacy_cols]))
        got = pup.unpack_vp(v2)
        assert got.particles.pack().tobytes() == state.tobytes()
        assert got.particles.pid.dtype == np.int64
        assert got.counters == _counters()
        # Re-packing writes the current version, and both price the same.
        v3 = pup.pack_vp(got.particles, counters=got.counters)
        assert v3 == _blob(3, header, state)
        assert pup.charged_nbytes(v2) == len(v2) == pup.charged_nbytes(v3)


class TestMalformedBlobs:
    @pytest.mark.parametrize("header", [
        {"rng": None, "partition": None, "counters": {}},
        {"n": 0, "partition": None, "counters": {}},
        {"n": 0, "rng": None, "partition": {"cells": 4}, "counters": {}},
        {"n": None, "rng": None, "partition": None, "counters": {}},
        [],
    ], ids=["no-n", "no-rng", "partition-no-splits", "n-null", "not-a-dict"])
    def test_bad_header_raises_value_error(self, header):
        with pytest.raises(ValueError, match="malformed PUP header"):
            pup.unpack_vp(_blob(pup.PUP_VERSION, header, np.empty(0)))

    @pytest.mark.parametrize("blob", [b"VPUP\x02\x00", b"VPUP"],
                             ids=["cut-prefix", "magic-only"])
    def test_cut_prefix_raises_value_error(self, blob):
        with pytest.raises(ValueError, match="truncated"):
            pup.unpack_vp(blob)

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="bad magic"):
            pup.unpack_vp(b"NOPE" + b"\x00" * 32)

    def test_bad_version(self):
        blob = bytearray(pup.pack_vp(_particles(3)))
        blob[4] = 99  # little-endian u16 version field
        with pytest.raises(ValueError, match="version"):
            pup.unpack_vp(bytes(blob))

    def test_truncated_body(self):
        blob = pup.pack_vp(_particles(3))
        with pytest.raises(ValueError, match="truncated"):
            pup.unpack_vp(blob[:-8])
