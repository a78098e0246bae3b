"""Paper-style result tables and ASCII log-log charts.

The harness cannot draw the paper's gnuplot figures, so each figure is
rendered as (a) a table of the series the plot encodes and (b) a compact
ASCII log-log chart good enough to eyeball crossovers.  Both are written to
``benchmarks/results/`` and echoed to stdout.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.bench.runner import RunRecord


def format_table(records: Sequence[RunRecord], extra_cols: Sequence[str] = ()) -> str:
    """Fixed-width table of run records, grouped as given."""
    cols = ["impl", "cores", "sim_time_s", "verified", "max_ppc", *extra_cols]
    rows = [r.as_row() for r in records]
    widths = {c: max(len(c), *(len(str(row.get(c, ""))) for row in rows)) for c in cols}
    header = "  ".join(c.ljust(widths[c]) for c in cols)
    sep = "-" * len(header)
    lines = [header, sep]
    for row in rows:
        lines.append("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in cols))
    return "\n".join(lines)


def format_series(
    records: Sequence[RunRecord],
    x_key: str = "cores",
) -> dict[str, list[tuple[float, float]]]:
    """Group records into per-implementation (x, sim_time) series."""
    series: dict[str, list[tuple[float, float]]] = {}
    for r in records:
        x = r.params.get(x_key, getattr(r, x_key, None)) if x_key != "cores" else r.cores
        series.setdefault(r.implementation, []).append((float(x), r.sim_time))
    for pts in series.values():
        pts.sort()
    return series


def ascii_loglog(
    series: dict[str, list[tuple[float, float]]],
    *,
    title: str = "",
    width: int = 64,
    height: int = 18,
    x_label: str = "cores",
    y_label: str = "seconds",
) -> str:
    """Render series on a log-log grid with one marker letter per series."""
    points = [(x, y) for pts in series.values() for x, y in pts if x > 0 and y > 0]
    if not points:
        return "(no data)"
    lx = [math.log10(x) for x, _ in points]
    ly = [math.log10(y) for _, y in points]
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly), max(ly)
    x1 = x1 if x1 > x0 else x0 + 1.0
    y1 = y1 if y1 > y0 else y0 + 1.0

    grid = [[" "] * width for _ in range(height)]
    markers = {}
    for idx, (name, pts) in enumerate(sorted(series.items())):
        mark = chr(ord("A") + idx)
        markers[name] = mark
        for x, y in pts:
            cx = int((math.log10(x) - x0) / (x1 - x0) * (width - 1))
            cy = int((math.log10(y) - y0) / (y1 - y0) * (height - 1))
            row = height - 1 - cy
            cell = grid[row][cx]
            grid[row][cx] = "*" if cell not in (" ", mark) else mark

    lines = []
    if title:
        lines.append(title)
    top = 10 ** y1
    bottom = 10 ** y0
    lines.append(f"{top:10.3g} +" + "-" * width + "+")
    for row in grid:
        lines.append(" " * 11 + "|" + "".join(row) + "|")
    lines.append(f"{bottom:10.3g} +" + "-" * width + "+")
    lines.append(
        " " * 12 + f"{10 ** x0:<10.3g}{x_label:^{max(0, width - 20)}}{10 ** x1:>10.3g}"
    )
    legend = "  ".join(f"{m}={n}" for n, m in sorted(markers.items(), key=lambda kv: kv[1]))
    lines.append(" " * 12 + legend + f"   (y: {y_label}, log-log)")
    return "\n".join(lines)


def dispatch_breakdown(spans) -> dict:
    """Per-batch dispatch/kernel/exchange seconds from executor spans.

    ``spans`` is an iterable of :class:`repro.instrument.ExecSpan` (e.g.
    ``ExecutorTrace.spans``).  Per batch:

    * ``dispatch_s`` — parent-side wall time to publish the batch (arena
      locations, the partition, one send per worker);
    * ``dispatch_cpu_s`` — the same window in parent CPU seconds (the
      span's ``cpu_s`` arg, falling back to wall).  On an oversubscribed
      host a send can wake a worker that preempts
      the parent, and the worker's kernel time then lands in the *wall*
      dispatch window even though the execute spans already report it —
      CPU seconds are immune to that double-count;
    * ``kernel_s`` — summed worker ``execute`` seconds (worker-seconds,
      not wall: workers run concurrently);
    * ``merge_s`` — the parent's completion barrier;
    * ``exchange_s`` — the gap between the previous batch's merge end and
      this batch's dispatch start, which in a simulation loop is the
      parent-side exchange/routing work between steps (a batch finishes
      before any of its ranks wakes, so nothing of it overlaps a batch).

    The totals carry per-task dispatch cost (wall and CPU) both over all
    batches and over the steady state (batch 2 onward, once every store is
    rebased) — ``steady_dispatch_cpu_s_per_task`` is the figure
    the layered benchmark reports as ``executor.dispatch_cpu_us_per_task``.
    """
    by_batch: dict[int, dict] = {}
    for s in spans:
        b = by_batch.setdefault(
            s.batch,
            dict(dispatch_s=0.0, dispatch_cpu_s=0.0, kernel_s=0.0,
                 merge_s=0.0, tasks=0, _t0=None, _t1=None),
        )
        if s.phase == "dispatch":
            args = s.args_dict()
            b["dispatch_s"] += s.duration
            b["dispatch_cpu_s"] += float(args.get("cpu_s", s.duration))
            b["tasks"] = max(b["tasks"], int(args.get("tasks", 0)))
            b["_t0"] = s.t_start if b["_t0"] is None else min(b["_t0"], s.t_start)
        elif s.phase == "execute":
            b["kernel_s"] += s.duration
        elif s.phase == "merge":
            b["merge_s"] += s.duration
            b["_t1"] = s.t_end if b["_t1"] is None else max(b["_t1"], s.t_end)
    rows = []
    prev_end = None
    for k in sorted(by_batch):
        b = by_batch[k]
        gap = 0.0
        if prev_end is not None and b["_t0"] is not None:
            gap = max(0.0, b["_t0"] - prev_end)
        rows.append(
            dict(
                batch=k, tasks=b["tasks"], dispatch_s=b["dispatch_s"],
                dispatch_cpu_s=b["dispatch_cpu_s"], kernel_s=b["kernel_s"],
                merge_s=b["merge_s"], exchange_s=gap,
            )
        )
        if b["_t1"] is not None:
            prev_end = b["_t1"]
    steady = [r for r in rows if r["batch"] > 1]
    totals = dict(
        batches=len(rows),
        tasks=sum(r["tasks"] for r in rows),
        dispatch_s=sum(r["dispatch_s"] for r in rows),
        dispatch_cpu_s=sum(r["dispatch_cpu_s"] for r in rows),
        kernel_s=sum(r["kernel_s"] for r in rows),
        merge_s=sum(r["merge_s"] for r in rows),
        exchange_s=sum(r["exchange_s"] for r in rows),
    )
    tasks = totals["tasks"]
    st_tasks = sum(r["tasks"] for r in steady)
    for col in ("dispatch_s", "dispatch_cpu_s"):
        totals[f"{col}_per_task"] = totals[col] / tasks if tasks else 0.0
        totals[f"steady_{col}_per_task"] = (
            sum(r[col] for r in steady) / st_tasks if st_tasks else 0.0
        )
    return dict(rows=rows, totals=totals)


def speedup_table(
    records: Sequence[RunRecord], serial_time: float
) -> str:
    """Speedup-over-serial table (the §V-B summary numbers)."""
    lines = ["impl        cores  speedup"]
    for r in sorted(records, key=lambda r: (r.implementation, r.cores)):
        lines.append(
            f"{r.implementation:<11} {r.cores:>5}  {serial_time / r.sim_time:7.1f}x"
        )
    return "\n".join(lines)
