"""Execute a campaign with a content-addressed result cache.

Every expanded point is hashed by its *canonical* RunSpec identity
(:func:`repro.config.build.canonical_hash` — driver-resolved defaults, so
a sparse declaration and the equivalent fully-written one share a cache
entry).  The result of a point lives at ``<cache_dir>/<hash>.json`` as a
canonical-JSON artifact containing only simulated/derived quantities —
no wall-clock, no timestamps, no paths — so re-running a campaign
reproduces the file **byte for byte** and a completed point is skipped as
a cache hit (pinned by the CI campaign-smoke job and
tests/campaign/test_campaign.py).

Each run also writes ``<cache_dir>/<campaign>.manifest.json`` describing
what happened: per point the labels, spec hash, whether it was served
from cache, and the wall seconds it took.  The manifest is *about* the
run (it contains wall-clock), the artifacts are *about* the results
(they must not) — keep that split when extending either.

Execution order is deterministic (expansion order); with ``jobs > 1``
uncached points run concurrently, which cannot change any result (the
simulated world is single-threaded per point and bitwise-deterministic),
and the manifest stays in expansion order regardless of how the sweep
interleaved.

Points that expand to the *same* canonical hash are deduplicated before
dispatch: the first occurrence (expansion order) executes, later ones
share its artifact and are recorded with ``duplicate_of`` pointing at the
representative.

With ``jobs > 1`` uncached points run over the work-stealing fabric of
:mod:`repro.campaign.fabric` (``runner="fabric"``): persistent warm
workers, cache index, longest-expected-first ordering, batched IO,
heartbeat + requeue.  The serial ``jobs=1`` loop is its bitwise oracle.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.campaign.spec import CampaignPoint, CampaignSpec
from repro.config.runspec import RunSpec, canonical_json

ARTIFACT_SCHEMA = 1
_quote = json.encoder.encode_basestring_ascii  # the C string encoder


@dataclass
class PointOutcome:
    """One point's run record (result + provenance)."""

    index: int
    labels: dict[str, Any]
    spec_hash: str
    result: dict
    cached: bool
    wall_s: float
    #: Expansion index of the representative point this one duplicates
    #: (same canonical hash), or None if it is its own representative.
    duplicate_of: int | None = None


@dataclass
class CampaignResult:
    """Everything a campaign run produced."""

    name: str
    outcomes: list[PointOutcome] = field(default_factory=list)
    manifest_path: str | None = None
    #: Fabric provenance (worker warmups, requeue faults) when the
    #: work-stealing runner executed points; None otherwise.
    fabric: dict | None = None

    @property
    def executed(self) -> int:
        return sum(1 for o in self.outcomes if not o.cached)

    @property
    def cached(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def deduped(self) -> int:
        return sum(1 for o in self.outcomes if o.duplicate_of is not None)


# ----------------------------------------------------------------------
# Cache artifacts
# ----------------------------------------------------------------------
def artifact_name(spec_hash: str) -> str:
    return f"{spec_hash}.json"


def artifact_path(cache_dir: str, spec_hash: str) -> str:
    return os.path.join(cache_dir, artifact_name(spec_hash))


def _write_artifact(
    cache_dir: str,
    spec_hash: str,
    spec: RunSpec,
    result: dict,
    *,
    durable: bool = True,
) -> str:
    """Atomically write one content-addressed result artifact.

    The content is pure canonical JSON of deterministic data, so two
    writes of the same point produce identical bytes.  ``durable=False``
    skips the per-file directory fsync — used by the fabric's
    :class:`~repro.campaign.fabric.ArtifactBatch`, which settles a whole
    group of renames with one fsync instead.
    """
    doc = {
        "schema": ARTIFACT_SCHEMA,
        "spec_hash": spec_hash,
        "spec": spec.identity_dict(),
        "result": result,
    }
    os.makedirs(cache_dir, exist_ok=True)
    path = artifact_path(cache_dir, spec_hash)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(doc))
        fh.write("\n")
    os.replace(tmp, path)
    if durable:
        from repro.campaign.fabric import _fsync_dir

        _fsync_dir(cache_dir)
    return path


def _read_artifact(cache_dir: str, spec_hash: str) -> dict | None:
    """The cached result for ``spec_hash``, or None (corrupt = miss)."""
    path = artifact_path(cache_dir, spec_hash)
    try:
        with open(path, "rb") as fh:
            doc = json.loads(fh.read())
    except (OSError, ValueError):  # unreadable, not UTF-8, not JSON
        return None
    if doc.get("schema") != ARTIFACT_SCHEMA or doc.get("spec_hash") != spec_hash:
        return None
    result = doc.get("result")
    return result if isinstance(result, dict) else None


# ----------------------------------------------------------------------
# Point execution
# ----------------------------------------------------------------------
def _execute_point(spec_doc: dict) -> dict:
    from repro.config.build import execute_runspec

    return execute_runspec(RunSpec.from_dict(spec_doc))


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
def run_campaign(
    campaign: CampaignSpec,
    *,
    cache_dir: str = "benchmarks/campaign-cache",
    jobs: int = 1,
    force: bool = False,
    select: Callable[[dict], bool] | None = None,
    progress: Callable[[str], None] | None = None,
    runner: str = "fabric",
    fabric: "FabricConfig | None" = None,
) -> CampaignResult:
    """Run every (selected) point of ``campaign``, cache-aware.

    ``force`` re-executes even cached points (the rewritten artifacts must
    come out byte-identical — that *is* the determinism check).
    ``select`` filters points by their labels (e.g. to drop the 3072-core
    fig7 point unless ``REPRO_FULL`` is set).  ``progress`` receives one
    human-readable line per point.  With ``jobs > 1`` uncached points run
    over the work-stealing fabric; ``fabric`` overrides the fabric's
    knobs, its ``jobs`` included.  ``runner`` has one value left,
    ``"fabric"``; the keyword stays because the layered benchmark's
    ``sweep_cold`` workload passes it.
    """
    from repro.campaign.fabric import CacheIndex, FabricConfig
    from repro.config.build import canonical_runspec

    if runner != "fabric":
        raise ValueError(f"unknown campaign runner {runner!r}")
    if fabric is not None:
        jobs = fabric.jobs

    points = campaign.expand()
    if select is not None:
        points = [p for p in points if select(p.labels)]

    # Canonicalize once per point: the hash AND the artifact's embedded
    # spec both come from the canonical form, so two declarations of the
    # same run (one sparse, one fully written out) share one artifact —
    # byte for byte.
    canon = {p.index: canonical_runspec(p.spec) for p in points}
    hashes = {index: rs.spec_hash() for index, rs in canon.items()}

    # Dedupe identical points before dispatch: the first occurrence (in
    # expansion order) is the representative; later ones share its result
    # and artifact without executing.
    rep_of_hash: dict[str, int] = {}
    duplicate_of: dict[int, int] = {}
    for p in points:
        h = hashes[p.index]
        if h in rep_of_hash:
            duplicate_of[p.index] = rep_of_hash[h]
        else:
            rep_of_hash[h] = p.index

    # One directory scan answers every cache probe from memory; misses
    # cost no syscall at all (see fabric.CacheIndex).
    index = CacheIndex(cache_dir)
    outcomes: dict[int, PointOutcome] = {}
    to_run: list[CampaignPoint] = []
    for p in points:
        if p.index in duplicate_of:
            continue
        cached = None if force else index.lookup(hashes[p.index])
        if cached is not None:
            outcomes[p.index] = PointOutcome(
                index=p.index, labels=p.labels, spec_hash=hashes[p.index],
                result=cached, cached=True, wall_s=0.0,
            )
            if progress:
                progress(_line(campaign.name, p, cached, cached=True))
        else:
            to_run.append(p)

    fabric_doc = None
    if to_run:
        if jobs > 1:
            fabric_doc = _run_fabric(
                campaign, points, to_run, canon, hashes, outcomes,
                cache_dir, fabric or FabricConfig(jobs=jobs), progress, index,
            )
        else:
            for p in to_run:
                t0 = time.perf_counter()
                result = _execute_point(p.spec.to_dict())
                wall = time.perf_counter() - t0
                _write_artifact(cache_dir, hashes[p.index], canon[p.index], result)
                outcomes[p.index] = PointOutcome(
                    index=p.index, labels=p.labels, spec_hash=hashes[p.index],
                    result=result, cached=False, wall_s=wall,
                )
                if progress:
                    progress(_line(campaign.name, p, result, cached=False))

    # Duplicates share the representative's (now materialized) result.
    for p in points:
        rep = duplicate_of.get(p.index)
        if rep is None:
            continue
        rep_outcome = outcomes[rep]
        outcomes[p.index] = PointOutcome(
            index=p.index, labels=p.labels, spec_hash=rep_outcome.spec_hash,
            result=rep_outcome.result, cached=True, wall_s=0.0,
            duplicate_of=rep,
        )
        if progress:
            progress(_line(campaign.name, p, rep_outcome.result, cached=True))

    ordered = [outcomes[p.index] for p in points]
    res = CampaignResult(name=campaign.name, outcomes=ordered, fabric=fabric_doc)
    res.manifest_path = _write_manifest(campaign, res, cache_dir)
    return res


def _run_fabric(
    campaign, points, to_run, canon, hashes, outcomes, cache_dir, cfg,
    progress, index,
):
    """Run uncached representatives over the work-stealing fabric.

    Streams the manifest as points complete (grouped with the artifact
    flushes), so a scheduler death mid-sweep leaves a valid manifest of
    everything finished — and those points re-run as pure cache hits.
    """
    from repro.campaign.fabric import run_fabric

    by_index = {p.index: p for p in to_run}
    tasks = [(p.index, p.spec, p.spec.to_dict()) for p in to_run]

    def on_done(seq: int, result: dict, wall_s: float) -> None:
        p = by_index[seq]
        outcomes[seq] = PointOutcome(
            index=seq, labels=p.labels, spec_hash=hashes[seq],
            result=result, cached=False, wall_s=wall_s,
        )
        if progress:
            progress(_line(campaign.name, p, result, cached=False))

    def manifest_flush() -> None:
        done = [outcomes[p.index] for p in points if p.index in outcomes]
        partial = CampaignResult(name=campaign.name, outcomes=done)
        _write_manifest(campaign, partial, cache_dir, complete=False)

    _, stats = run_fabric(
        tasks,
        cache_dir=cache_dir,
        config=cfg,
        hashes=hashes,
        canon=canon,
        index=index,
        on_done=on_done,
        manifest_flush=manifest_flush,
    )
    return stats.to_doc()


def _line(name: str, point: CampaignPoint, result: dict, *, cached: bool) -> str:
    labels = " ".join(f"{k}={v}" for k, v in point.labels.items())
    sim = result.get("sim_time_s")
    sim_txt = "-" if sim is None else f"{sim:.4f}s"
    tag = "cached" if cached else "ran"
    return f"[{name}] {tag:6s} {labels}: T={sim_txt}"


def _write_manifest(
    campaign: CampaignSpec,
    res: CampaignResult,
    cache_dir: str,
    *,
    complete: bool = True,
) -> str:
    """Write the (possibly partial) manifest atomically.

    ``complete=False`` marks a streamed mid-sweep snapshot: it lists only
    the points finished so far, in expansion order — enough for a
    post-mortem and for a re-run to complete the finished points from
    cache.
    """
    doc = {
        "schema": 1,
        "campaign": campaign.name,
        "complete": complete,
        "points": [
            {
                "index": o.index,
                "labels": o.labels,
                "spec_hash": o.spec_hash,
                "cached": o.cached,
                "wall_s": round(o.wall_s, 6),
                "artifact": artifact_name(o.spec_hash),
                **(
                    {"duplicate_of": o.duplicate_of}
                    if o.duplicate_of is not None
                    else {}
                ),
            }
            for o in res.outcomes
        ],
        "executed": res.executed,
        "cached": res.cached,
        "deduped": res.deduped,
    }
    if res.fabric is not None:
        doc["fabric"] = res.fabric
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"{campaign.name}.manifest.json")
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(_pretty(doc) + "\n")
    os.replace(tmp, path)
    return path


def _pretty(value: Any, pad: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` as nested at ``pad``: one
    join per container over C-encoded leaves instead of the generator chain
    an ``indent`` forces on the library; odd shapes still go to the library."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int or kind is float and math.isfinite(value):
        return kind.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    sub = pad + "  "
    if kind is dict and value and all(type(k) is str for k in value):
        rows = (f"{sub}{_quote(k)}: {_pretty(value[k], sub)}" for k in sorted(value))
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if kind is list and value:
        rows = ",\n".join(sub + _pretty(v, sub) for v in value)
        return f"[\n{rows}\n{pad}]"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)
