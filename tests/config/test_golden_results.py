"""Results cannot move: the numbers a run produces are pinned by digest.

The results twin of ``golden_spec_hashes.json``.  ``golden_results.json``
holds the sha256 of every artifact the smoke campaign
(``benchmarks/campaigns/smoke.json``) writes, and of the canonical JSON
result document of each ``rich`` spec in ``golden_spec_hashes.json``.  Its
``paper_scale`` entry pins fig7's three 768-core points, which CI's
campaign-smoke job checks: ``ampi`` (6 144 virtual ranks, about a minute),
``mpi-2d`` (768 ranks whose every step is settled and closed in one op, a
few seconds) and ``mpi-2d-LB`` (the same ranks, closed steps mixed with the
per-rank re-routes that follow each diffusion LB step, about 30 s).  Each
digest was generated before the change it guards and must pass unmodified
after it; a refactor that moves a digest moved a simulated number — never
regenerate the file to make this pass.
"""

import copy
import hashlib
import json
import os

import pytest

from repro.campaign import CampaignSpec
from repro.campaign.runner import run_campaign
from repro.config import RunSpec, canonical_json
from repro.config.build import execute_runspec

HERE = os.path.dirname(__file__)
SMOKE = os.path.join(HERE, "..", "..", "benchmarks", "campaigns", "smoke.json")

with open(os.path.join(HERE, "golden_results.json"), encoding="utf-8") as fh:
    GOLDEN = json.load(fh)
with open(os.path.join(HERE, "golden_spec_hashes.json"), encoding="utf-8") as fh:
    RICH = json.load(fh)["rich"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_smoke_campaign_artifacts_unchanged(tmp_path):
    run_campaign(CampaignSpec.load(SMOKE), cache_dir=str(tmp_path))
    got = {}
    for name in os.listdir(tmp_path):
        if name.endswith(".json") and not name.endswith(".manifest.json"):
            got[name] = _sha256((tmp_path / name).read_bytes())
    assert got == GOLDEN["smoke"]


@pytest.mark.parametrize("i", range(len(RICH)), ids=[e["doc"]["impl"]["name"] for e in RICH])
def test_rich_spec_results_unchanged(i, tmp_path):
    entry, want = RICH[i], GOLDEN["rich"][i]
    assert want["canonical"] == entry["canonical"]
    doc = copy.deepcopy(entry["doc"])
    if "resilience" in doc:
        # Where checkpoints land is not part of a run's identity.
        doc["resilience"]["checkpoint_dir"] = str(tmp_path)
    result = execute_runspec(RunSpec.from_dict(doc))
    assert _sha256(canonical_json(result).encode("utf-8")) == want["result_sha256"]
