"""Exporters for traces and metrics.

Three output formats:

* **Chrome/Perfetto trace JSON** (:func:`to_chrome_trace`) — open the file
  at https://ui.perfetto.dev or ``chrome://tracing``.  Cores map to
  processes (``pid``), ranks to threads (``tid``), so co-located AMPI
  virtual processors visibly serialize on their core's track.
* **Plain-text per-rank timeline** (:func:`render_rank_timeline`) — a
  greppable dump of every span, for terminals and test assertions.
* **Metrics summary** (:func:`render_metrics_summary`) — a fixed-width
  table of every registered metric, consumed by ``repro.bench.reporting``.

All exporters are deterministic: identical runs produce byte-identical
output (the golden-trace tests rely on this).
"""

from __future__ import annotations

import json
from typing import Any

from repro.instrument.metrics import MetricsRegistry
from repro.instrument.spans import ExecutorTrace, Tracer, validate_spans


def _us(seconds: float) -> float:
    """Simulated seconds -> trace microseconds (rounded for stable repr)."""
    return round(seconds * 1e6, 3)


def to_chrome_trace(tracer: Tracer) -> dict[str, Any]:
    """Build a Chrome Trace Event Format object from a tracer.

    Events are sorted by ``(pid, tid, ts)`` with metadata first, so every
    rank's track lists its spans in simulated-time order.
    """
    validate_spans(tracer.spans)
    events: list[dict[str, Any]] = []
    for core in tracer.cores():
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": core,
                "tid": 0,
                "ts": 0,
                "args": {"name": f"core {core}"},
            }
        )
    named_threads = sorted({(s.core, s.rank) for s in tracer.spans})
    for core, rank in named_threads:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": core,
                "tid": rank,
                "ts": 0,
                "args": {"name": f"rank {rank}"},
            }
        )

    body: list[dict[str, Any]] = []
    for s in tracer.spans:
        body.append(
            {
                "name": s.name,
                "cat": s.cat,
                "ph": "X",
                "ts": _us(s.t_start),
                "dur": _us(s.duration),
                "pid": s.core,
                "tid": s.rank,
                "args": {"step": s.step, **s.args_dict()},
            }
        )
    for e in tracer.instants:
        body.append(
            {
                "name": e.name,
                "cat": e.cat,
                "ph": "i",
                "s": "t",
                "ts": _us(e.t),
                "pid": e.core,
                "tid": e.rank,
                "args": {"step": e.step, **e.args_dict()},
            }
        )
    body.sort(key=lambda ev: (ev["pid"], ev["tid"], ev["ts"], ev["name"]))
    events.extend(body)
    return {"displayTimeUnit": "ms", "traceEvents": events}


def dumps_chrome_trace(tracer: Tracer) -> str:
    """Serialize deterministically (sorted keys, no whitespace jitter)."""
    return json.dumps(to_chrome_trace(tracer), sort_keys=True, separators=(",", ":"))


def write_chrome_trace(tracer: Tracer, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_chrome_trace(tracer))
        fh.write("\n")


# ----------------------------------------------------------------------
# Executor (wall-clock) trace
# ----------------------------------------------------------------------
def to_executor_chrome_trace(trace: ExecutorTrace) -> dict[str, Any]:
    """Chrome-trace object of a process executor's wall-clock spans.

    One synthetic process (pid 0, "executor") with one thread per worker
    (tid = worker index + 1; the parent's dispatch/merge phases are tid 0).
    Kept separate from :func:`to_chrome_trace` — these timestamps are host
    seconds, not simulated time, and must never enter a golden comparison.
    """
    events: list[dict[str, Any]] = [
        {
            "name": "process_name", "ph": "M", "pid": 0, "tid": 0, "ts": 0,
            "args": {"name": "executor (wall clock)"},
        }
    ]
    for w in trace.workers():
        events.append(
            {
                "name": "thread_name", "ph": "M", "pid": 0, "tid": w + 1,
                "ts": 0,
                "args": {"name": "parent" if w < 0 else f"worker {w}"},
            }
        )
    body = [
        {
            "name": s.phase,
            "cat": "executor",
            "ph": "X",
            "ts": _us(s.t_start),
            "dur": _us(s.duration),
            "pid": 0,
            "tid": s.worker + 1,
            "args": {"batch": s.batch, **s.args_dict()},
        }
        for s in trace.spans
    ]
    body.sort(key=lambda ev: (ev["tid"], ev["ts"], ev["name"]))
    events.extend(body)
    return {"displayTimeUnit": "ms", "traceEvents": events}


def write_executor_trace(trace: ExecutorTrace, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            json.dumps(
                to_executor_chrome_trace(trace),
                sort_keys=True,
                separators=(",", ":"),
            )
        )
        fh.write("\n")


# ----------------------------------------------------------------------
# Plain-text timeline
# ----------------------------------------------------------------------
def render_rank_timeline(tracer: Tracer, max_spans_per_rank: int | None = None) -> str:
    """Human-readable per-rank listing of spans in simulated-time order."""
    if not tracer.spans and not tracer.instants:
        return "(no spans recorded)"
    lines: list[str] = []
    for rank in tracer.ranks():
        spans = tracer.spans_for_rank(rank)
        shown = spans if max_spans_per_rank is None else spans[:max_spans_per_rank]
        lines.append(f"rank {rank}:")
        for s in shown:
            args = s.args_dict()
            extra = (
                " " + " ".join(f"{k}={v}" for k, v in sorted(args.items()))
                if args
                else ""
            )
            lines.append(
                f"  [{s.t_start:12.9f} .. {s.t_end:12.9f}] "
                f"{s.name:<18} ({s.cat}) step={s.step} core={s.core}{extra}"
            )
        if max_spans_per_rank is not None and len(spans) > max_spans_per_rank:
            lines.append(f"  ... {len(spans) - max_spans_per_rank} more spans")
        for e in (i for i in tracer.instants if i.rank == rank):
            lines.append(
                f"  @{e.t:13.9f}  {e.name} ({e.cat}) step={e.step} core={e.core}"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def metrics_to_json(metrics: MetricsRegistry) -> str:
    """Deterministic JSON dump of every registered metric."""
    return json.dumps(metrics.as_dict(), sort_keys=True, indent=2)


def write_metrics(metrics: MetricsRegistry, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(metrics_to_json(metrics))
        fh.write("\n")


def render_metrics_summary(metrics: MetricsRegistry) -> str:
    """Fixed-width table of all metrics (histograms show count/mean/max)."""
    if len(metrics) == 0:
        return "(no metrics recorded)"
    rows: list[tuple[str, str, str]] = []
    for name, data in metrics.as_dict().items():
        kind = data["kind"]
        if kind == "histogram":
            value = (
                f"n={data['count']} mean={data['mean']:.6g} "
                f"p95={data['p95']:.6g} max={data['max']:.6g}"
            )
        else:
            v = data["value"]
            value = "-" if v is None else (f"{v:.6g}" if isinstance(v, float) else str(v))
        rows.append((name, kind, value))
    w_name = max(len("metric"), *(len(r[0]) for r in rows))
    w_kind = max(len("kind"), *(len(r[1]) for r in rows))
    lines = [f"{'metric':<{w_name}}  {'kind':<{w_kind}}  value"]
    lines.append("-" * len(lines[0]))
    for name, kind, value in rows:
        lines.append(f"{name:<{w_name}}  {kind:<{w_kind}}  {value}")
    return "\n".join(lines)
