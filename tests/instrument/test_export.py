"""Exporter coverage: Chrome-trace JSON shape, timeline and metrics text."""

import json

import pytest

from repro.core.spec import PICSpec
from repro.instrument import (
    MetricsRegistry,
    Tracer,
    dumps_chrome_trace,
    metrics_to_json,
    render_metrics_summary,
    render_rank_timeline,
    to_chrome_trace,
    write_chrome_trace,
    write_metrics,
)
from repro.parallel import AmpiPIC, Mpi2dPIC


def traced_run(impl_cls=Mpi2dPIC, **impl_kw):
    tracer, metrics = Tracer(), MetricsRegistry()
    spec = PICSpec(cells=32, n_particles=600, steps=6, r=0.9)
    res = impl_cls(spec, 4, span_tracer=tracer, metrics=metrics, **impl_kw).run()
    assert res.verification.ok
    return tracer, metrics


class TestChromeTrace:
    def test_round_trips_through_json(self):
        tracer, _ = traced_run()
        doc = json.loads(dumps_chrome_trace(tracer))
        assert "traceEvents" in doc
        assert len(doc["traceEvents"]) > 0

    def test_required_keys_present_on_every_event(self):
        tracer, _ = traced_run()
        for event in to_chrome_trace(tracer)["traceEvents"]:
            for key in ("ph", "ts", "pid", "tid"):
                assert key in event, f"missing {key}: {event}"
            assert event["ph"] in ("X", "M", "i")

    def test_complete_events_have_nonnegative_durations(self):
        tracer, _ = traced_run()
        complete = [
            e for e in to_chrome_trace(tracer)["traceEvents"] if e["ph"] == "X"
        ]
        assert complete
        for event in complete:
            assert event["dur"] >= 0
            assert event["ts"] >= 0
            assert "step" in event["args"]

    def test_spans_sorted_per_rank(self):
        tracer, _ = traced_run()
        events = to_chrome_trace(tracer)["traceEvents"]
        by_track = {}
        for e in events:
            if e["ph"] == "X":
                by_track.setdefault((e["pid"], e["tid"]), []).append(e["ts"])
        assert by_track
        for track, stamps in by_track.items():
            assert stamps == sorted(stamps), f"track {track} unsorted"

    def test_metadata_names_cores_and_ranks(self):
        tracer, _ = traced_run()
        meta = [e for e in to_chrome_trace(tracer)["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert "core 0" in names
        assert "rank 0" in names

    def test_migration_instants_exported(self):
        tracer, _ = traced_run(AmpiPIC, overdecomposition=2, lb_interval=2)
        instants = [
            e for e in to_chrome_trace(tracer)["traceEvents"] if e["ph"] == "i"
        ]
        assert any(e["name"] == "migrate" for e in instants)
        for e in instants:
            assert e["s"] == "t"

    def test_write_chrome_trace_file(self, tmp_path):
        tracer, _ = traced_run()
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, path)
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"

    def test_empty_tracer_exports_cleanly(self):
        doc = to_chrome_trace(Tracer())
        assert doc["traceEvents"] == []
        assert render_rank_timeline(Tracer()) == "(no spans recorded)"


class TestTextExports:
    def test_timeline_lists_every_rank(self):
        tracer, _ = traced_run()
        text = render_rank_timeline(tracer)
        for rank in range(4):
            assert f"rank {rank}:" in text
        assert "compute" in text

    def test_timeline_truncation(self):
        tracer, _ = traced_run()
        text = render_rank_timeline(tracer, max_spans_per_rank=2)
        assert "more spans" in text

    def test_metrics_summary_table(self):
        _, metrics = traced_run()
        text = render_metrics_summary(metrics)
        assert "transport.messages_sent" in text
        assert "core.busy_fraction" in text
        assert "run.total_time_s" in text
        assert render_metrics_summary(MetricsRegistry()) == "(no metrics recorded)"

    def test_metrics_json_round_trip(self, tmp_path):
        _, metrics = traced_run()
        doc = json.loads(metrics_to_json(metrics))
        assert doc["transport.messages_sent"]["kind"] == "counter"
        path = tmp_path / "metrics.json"
        write_metrics(metrics, path)
        assert json.loads(path.read_text()) == doc
