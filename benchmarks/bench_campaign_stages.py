"""What one *cached* campaign point costs, stage by stage.

    PYTHONPATH=src python benchmarks/bench_campaign_stages.py

Populates a 256-point cache (the shape of the layered benchmark's
``sweep_cached``: 64 seeds x 4 particle counts of a 2-step mpi-2d run),
then times each stage of the identity pipeline on its own — best of 15
passes, microseconds per point — and a whole all-cached ``run_campaign``.
The table in docs/performance.md ("The campaign hot path") is this
script's output; compare commits by running it from each checkout.
"""

import tempfile
import time

from repro.campaign import CacheIndex, CampaignSpec, run_campaign
from repro.campaign.runner import _write_manifest
from repro.config.build import canonical_runspec

CAMPAIGN = {
    "schema": 1,
    "campaign": "cached-point-stages",
    "base": {"workload": {"cells": 32, "n_particles": 200, "steps": 2},
             "impl": {"name": "mpi-2d", "cores": 4}},
    "axes": [
        {"axis": "seed", "path": "workload.seed",
         "values": [7000 + i for i in range(64)]},
        {"axis": "n", "path": "workload.n_particles",
         "values": [200, 400, 800, 1600]},
    ],
}


def best_us_per_point(fn, n_points, reps=15):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return 1e6 * best / n_points, out


def main() -> None:
    campaign = CampaignSpec.from_dict(CAMPAIGN)
    with tempfile.TemporaryDirectory() as cache:
        done = run_campaign(campaign, cache_dir=cache)
        n = len(done.outcomes)
        rows = []

        def stage(name, fn):
            us, out = best_us_per_point(fn, n)
            rows.append((name, us))
            return out

        points = stage("expand", campaign.expand)
        canon = stage("canonicalise",
                      lambda: [canonical_runspec(p.spec) for p in points])
        hashes = stage("hash", lambda: [rs.spec_hash() for rs in canon])

        def lookup():
            index = CacheIndex(cache)
            return [index.lookup(h) for h in hashes]

        assert None not in stage("cache lookup + artifact read", lookup)
        cached = run_campaign(campaign, cache_dir=cache)
        assert cached.executed == 0
        stage("manifest", lambda: _write_manifest(campaign, cached, cache))
        total = sum(us for _, us in rows)
        stage("run_campaign, all cached",
              lambda: run_campaign(campaign, cache_dir=cache))
    print(f"{n} cached points, best of 15 passes, us per point")
    for name, us in rows:
        share = "" if name.startswith("run_") else f"{100 * us / total:5.0f} %"
        print(f"  {name:30s} {us:7.1f} {share}")


if __name__ == "__main__":
    main()
