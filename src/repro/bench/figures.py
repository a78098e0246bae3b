"""Per-figure benchmark drivers.

Each ``run_*`` function regenerates one figure/table of the paper's
evaluation (§V) on the simulated runtime and returns the records;
``pic-prk figures`` runs them and writes each report as ``<name>.txt``::

    pic-prk figures fig5
    pic-prk figures fig6l fig6r fig7 --out benchmarks/results

Expected shapes (paper §V; absolute numbers differ, see EXPERIMENTS.md):

* fig5  — time falls steeply as F grows from very frequent LB, then
  flattens; time dips with over-decomposition d then rises again.
* fig6l — single node: all three comparable within one socket; beyond it
  mpi-2d-LB < ampi < mpi-2d.
* fig6r — multi node: mpi-2d-LB scales best and beats ampi by ~2x at the
  top; both beat the baseline.
* fig7  — weak scaling: ampi and mpi-2d-LB comparable, both well under the
  baseline; ampi edges out LB at the largest scale.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Callable, Sequence

from repro.bench.campaigns import (
    fig5_campaign,
    fig6l_campaign,
    fig6r_campaign,
    fig7_campaign,
)
from repro.bench.reporting import ascii_loglog, format_series, format_table, speedup_table
from repro.bench.runner import RunRecord, serial_model_time
from repro.bench.workloads import (
    FIG7_CORES,
    FIG7_CORES_FULL,
    fig6_workload,
)

Progress = Callable[[str], None]


def _echo(msg: str) -> None:
    print(msg, flush=True)


# ----------------------------------------------------------------------
# Campaign plumbing: every figure is a campaign (repro.bench.campaigns);
# this adapter runs one and converts the outcomes back to RunRecords for
# the report layer.
# ----------------------------------------------------------------------
def _run_figure_campaign(
    figure: str,
    campaign,
    progress: Progress,
    cache_dir: str | None = None,
    select=None,
) -> list[RunRecord]:
    """Run ``campaign`` and reshape its outcomes into figure RunRecords.

    ``cache_dir=None`` uses a throwaway cache (same observable behavior
    as the historical direct loops); pass a persistent directory (e.g.
    via ``pic-prk figures --cache``) to make re-runs complete from cache.
    """
    from repro.campaign import run_campaign

    points = {p.index: p for p in campaign.expand()}
    if cache_dir is None:
        with tempfile.TemporaryDirectory(prefix="repro-campaign-") as tmp:
            result = run_campaign(
                campaign, cache_dir=tmp, select=select, progress=progress
            )
            return _records_from(figure, points, result)
    result = run_campaign(
        campaign, cache_dir=cache_dir, select=select, progress=progress
    )
    return _records_from(figure, points, result)


def _records_from(figure: str, points: dict, result) -> list[RunRecord]:
    records = []
    for outcome in result.outcomes:
        point = points[outcome.index]
        res = outcome.result
        params = dict(point.spec.impl.params())
        params.update(
            {k: v for k, v in point.labels.items() if k not in ("impl", "cores")}
        )
        records.append(
            RunRecord(
                figure=figure,
                implementation=res["implementation"],
                cores=res["n_cores"],
                sim_time=res["sim_time_s"],
                wall_time=outcome.wall_s,
                verified=res["verified"],
                max_particles_per_core=res["max_particles_per_core"],
                ideal_particles_per_core=res["ideal_particles_per_core"],
                messages_sent=res["messages_sent"],
                bytes_sent=res["bytes_sent"],
                params=params,
            )
        )
    return records


# ----------------------------------------------------------------------
# Figure 5: AMPI parameter tuning
# ----------------------------------------------------------------------
def run_fig5(progress: Progress = _echo, cache_dir: str | None = None) -> list[RunRecord]:
    """F sweep at fixed d, then d sweep at fixed F (paper Fig. 5)."""
    return _run_figure_campaign("fig5", fig5_campaign(), progress, cache_dir)


def report_fig5(records: list[RunRecord]) -> str:
    f_recs = [r for r in records if r.params.get("sweep") == "F"]
    d_recs = [r for r in records if r.params.get("sweep") == "d"]
    parts = [
        "Figure 5 — AMPI tuning (interval F between LB invocations; "
        "over-decomposition degree d)",
        "",
        format_table(f_recs, extra_cols=("F", "d")),
        "",
        format_table(d_recs, extra_cols=("F", "d")),
        "",
        ascii_loglog(
            {"vary-F": [(r.params["F"], r.sim_time) for r in f_recs]},
            title="fig5a: time vs LB interval F",
            x_label="F",
        ),
        "",
        ascii_loglog(
            {"vary-d": [(r.params["d"], r.sim_time) for r in d_recs]},
            title="fig5b: time vs over-decomposition d",
            x_label="d",
        ),
    ]
    return "\n".join(parts)


# ----------------------------------------------------------------------
# Figure 6: strong scaling
# ----------------------------------------------------------------------
def run_fig6_single_node(progress: Progress = _echo, cache_dir: str | None = None) -> list[RunRecord]:
    return _run_figure_campaign("fig6l", fig6l_campaign(), progress, cache_dir)


def run_fig6_multi_node(progress: Progress = _echo, cache_dir: str | None = None) -> list[RunRecord]:
    return _run_figure_campaign("fig6r", fig6r_campaign(), progress, cache_dir)


def report_fig6(records: list[RunRecord], which: str) -> str:
    w = fig6_workload()
    serial = serial_model_time(w.spec_for(0), w.cost)
    parts = [
        f"Figure 6 ({which}) — strong scaling, geometric distribution",
        f"(serial model time: {serial:.3f}s)",
        "",
        format_table(records),
        "",
        ascii_loglog(format_series(records), title=f"fig6 {which}: time vs cores"),
        "",
        speedup_table(records, serial),
    ]
    return "\n".join(parts)


# ----------------------------------------------------------------------
# Figure 7: weak scaling
# ----------------------------------------------------------------------
def weak_scaling_cores() -> Sequence[int]:
    """Honour REPRO_FULL=1 to include the paper's 3072-core point."""
    return FIG7_CORES_FULL if os.environ.get("REPRO_FULL") == "1" else FIG7_CORES


def run_fig7(
    progress: Progress = _echo,
    cores_list: Sequence[int] | None = None,
    cache_dir: str | None = None,
) -> list[RunRecord]:
    wanted = set(cores_list or weak_scaling_cores())
    return _run_figure_campaign(
        "fig7",
        fig7_campaign(),
        progress,
        cache_dir,
        select=lambda labels: labels["cores"] in wanted,
    )


def report_fig7(records: list[RunRecord]) -> str:
    parts = [
        "Figure 7 — weak scaling (particles proportional to cores, grid fixed)",
        "",
        format_table(records, extra_cols=("particles",)),
        "",
        ascii_loglog(format_series(records), title="fig7: time vs cores"),
    ]
    return "\n".join(parts)


# ----------------------------------------------------------------------
# Figure name -> (driver, report), as ``pic-prk figures`` names them
# ----------------------------------------------------------------------
FIGURES = {
    "fig5": (run_fig5, report_fig5),
    "fig6l": (run_fig6_single_node, lambda r: report_fig6(r, "left: single node")),
    "fig6r": (run_fig6_multi_node, lambda r: report_fig6(r, "right: multi node")),
    "fig7": (run_fig7, report_fig7),
}


def write_report(name: str, text: str, out_dir: str | os.PathLike) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.txt"
    path.write_text(text + "\n")
    return path

