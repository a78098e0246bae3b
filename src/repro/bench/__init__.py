"""Benchmark harness: regenerates the paper's figures on the simulated runtime.

* :mod:`repro.bench.workloads` — per-figure experiment configurations, with
  the paper's parameters and the scaled presets actually run (scaling rules
  documented in EXPERIMENTS.md);
* :mod:`repro.bench.runner` — runs one implementation on one configuration
  and records simulated time plus imbalance statistics;
* :mod:`repro.bench.reporting` — paper-style tables and ASCII log-log plots;
* :mod:`repro.bench.figures` — the per-figure drivers, run by
  ``pic-prk figures <fig5|fig6l|fig6r|fig7>``.
"""

from repro.bench.runner import RunRecord, run_implementation
from repro.bench.workloads import (
    fig5_workload,
    fig6_workload,
    fig7_workload,
    Workload,
)

__all__ = [
    "RunRecord",
    "run_implementation",
    "Workload",
    "fig5_workload",
    "fig6_workload",
    "fig7_workload",
]
