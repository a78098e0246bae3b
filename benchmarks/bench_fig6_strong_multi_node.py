"""Figure 6 (right): strong scaling on multiple nodes, 24-384 cores.

Shape checks from the paper: mpi-2d-LB keeps scaling to 384 cores and beats
the ampi implementation there (paper: by ~2x); both beat the baseline; the
maximum speedups over serial keep LB well ahead of AMPI (paper: 179x vs
92x).
"""

from __future__ import annotations

from conftest import run_once

from repro.bench.figures import report_fig6, run_fig6_multi_node, write_report
from repro.bench.runner import serial_model_time
from repro.bench.workloads import fig6_workload


def test_fig6_strong_scaling_multi_node(benchmark, results_dir, quiet_progress):
    records = run_once(benchmark, lambda: run_fig6_multi_node(quiet_progress))
    report = report_fig6(records, "right: multi node")
    write_report("fig6r", report, results_dir)

    assert all(r.verified for r in records)
    w = fig6_workload()
    serial = serial_model_time(w.spec_for(0), w.cost)

    by = {(r.implementation, r.cores): r for r in records}
    top = max(r.cores for r in records)

    # LB scales: monotone improvement with cores all the way up.
    lb_series = sorted(
        (r.cores, r.sim_time) for r in records if r.implementation == "mpi-2d-LB"
    )
    for (_, t_small), (_, t_big) in zip(lb_series, lb_series[1:]):
        assert t_big < t_small

    # At the top scale: LB beats AMPI clearly, both beat the baseline.
    lb_top = by[("mpi-2d-LB", top)].sim_time
    ampi_top = by[("ampi", top)].sim_time
    base_top = by[("mpi-2d", top)].sim_time
    assert lb_top < ampi_top
    assert ampi_top / lb_top > 1.3          # paper: ~2x
    assert lb_top < base_top

    lb_speedup = serial / lb_top
    ampi_speedup = serial / ampi_top
    benchmark.extra_info["lb_speedup_top"] = round(lb_speedup, 1)
    benchmark.extra_info["ampi_speedup_top"] = round(ampi_speedup, 1)
    # Paper: 179x vs 92x at 384 cores — LB well ahead.
    assert lb_speedup > 1.3 * ampi_speedup
