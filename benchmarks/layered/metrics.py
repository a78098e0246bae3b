"""Metric definitions shared by run.py and compare.py.

``BENCHMARK.json`` at the repository root is the single source of the
workload names and of the metrics the acceptance driver reads.  The full
report (``run.py`` without ``--workload``) prints three more end-to-end
metrics that cannot be expressed there: the driver wants every
end-to-end metric to be non-zero with a *relative* bound, while
``sim_time_s`` must not move at all, ``failed_fraction`` is 0 on a
healthy run, and ``teardown_s`` is microseconds on most workloads.
"""

from __future__ import annotations

import json
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

#: Absolute slack (in the metric's unit) under which a worsening is never
#: a regression: 15 % of a 5 ms set-up is scheduler noise, not a change.
ABS_FLOOR = {"setup_s": 0.05, "teardown_s": 0.05}

#: End-to-end metrics printed by the full report only.
REPORT_ONLY = [
    {"name": "teardown_s", "unit": "s", "better": "lower", "bound": 0.15},
    {"name": "sim_time_s", "unit": "sim_s", "better": "lower", "bound": 0.0},
    {"name": "failed_fraction", "unit": "ratio", "better": "lower", "bound": 0.0},
]


def load_spec() -> dict:
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end_metrics(spec: dict) -> list[dict]:
    """All seven end-to-end metrics of the full report, contract ones first."""
    return [*spec["end_to_end"], *REPORT_ONLY]
