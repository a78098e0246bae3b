"""Observability subsystem: span tracing, metrics and exporters.

Three cooperating layers, all strictly *observational* — attaching any of
them to a run changes no simulated time, message order or verification
result (the golden-trace tests enforce this invariant):

* :class:`Tracer` (``spans.py``) — receives named spans of simulated time
  from the scheduler at every state transition (compute, send/recv,
  blocked-on-message waits, collective waits and bodies) plus instant
  events for VP migrations, keyed by ``(rank, core, step)``.
* :class:`MetricsRegistry` (``metrics.py``) — counters, gauges and
  histograms fed by the transport, communicators, parallel drivers and the
  AMPI load balancer: messages sent, bytes moved, collectives by kind,
  particles migrated, per-step imbalance ratio, core busy fraction.
* Exporters (``export.py``) — Chrome/Perfetto ``trace.json``, a plain-text
  per-rank timeline, and a metrics summary table printed by
  ``pic-prk trace``.

The original coarse per-step load sampler (:class:`TraceCollector`) remains
for ``pic-prk trace``'s ASCII imbalance timeline and for the metrics
registry's per-step imbalance histogram.

Usage::

    from repro.config.build import build_impl
    from repro.instrument import MetricsRegistry, Tracer, write_chrome_trace
    tracer, metrics = Tracer(), MetricsRegistry()
    result = build_impl(runspec, span_tracer=tracer, metrics=metrics).run()
    write_chrome_trace(tracer, "trace.json")   # open in ui.perfetto.dev

See ``docs/observability.md`` for the span model and metric names.
"""

from repro.instrument.export import (
    dumps_chrome_trace,
    metrics_to_json,
    render_metrics_summary,
    render_rank_timeline,
    to_chrome_trace,
    to_executor_chrome_trace,
    write_chrome_trace,
    write_executor_trace,
    write_metrics,
)
from repro.instrument.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.instrument.spans import (
    CATEGORIES,
    ExecSpan,
    ExecutorTrace,
    InstantEvent,
    Span,
    Tracer,
    validate_spans,
)
from repro.instrument.trace import (
    LbEvent,
    TraceCollector,
    render_imbalance_timeline,
)

__all__ = [
    "CATEGORIES",
    "Counter",
    "ExecSpan",
    "ExecutorTrace",
    "Gauge",
    "Histogram",
    "InstantEvent",
    "LbEvent",
    "MetricsRegistry",
    "Span",
    "TraceCollector",
    "Tracer",
    "dumps_chrome_trace",
    "metrics_to_json",
    "render_imbalance_timeline",
    "render_metrics_summary",
    "render_rank_timeline",
    "to_chrome_trace",
    "to_executor_chrome_trace",
    "validate_spans",
    "write_chrome_trace",
    "write_executor_trace",
    "write_metrics",
]
