"""Unit tests for the benchmark harness utilities."""

import numpy as np
import pytest

from repro.bench.reporting import (
    ascii_loglog,
    dispatch_breakdown,
    format_series,
    format_table,
    speedup_table,
)
from repro.instrument import ExecutorTrace
from repro.bench.runner import (
    IMPLEMENTATIONS,
    RunRecord,
    run_implementation,
    serial_model_time,
)
from repro.bench.workloads import (
    fig5_workload,
    fig6_workload,
    fig7_workload,
    rescale_r,
    scaled_cost,
)
from repro.core.spec import PICSpec
from repro.runtime.machine import MachineModel


class TestScaling:
    def test_rescale_r_preserves_cloud_shape(self):
        """r**cells is the invariant: the cloud's extent relative to L."""
        r2 = rescale_r(0.999, 5998, 480)
        assert r2**480 == pytest.approx(0.999**5998, rel=1e-9)

    def test_rescale_r_identity(self):
        assert rescale_r(0.99, 100, 100) == pytest.approx(0.99)

    def test_scaled_cost_compensates_particles(self):
        m = MachineModel()
        c = scaled_cost(m, particle_scale=10.0)
        base = scaled_cost(m, particle_scale=1.0)
        # 10x fewer particles at 10x the rate = same compute time.
        assert c.push_time(100) == pytest.approx(base.push_time(1000))
        assert c.particle_byte_scale == 10.0

    def test_scaled_cost_cell_scale(self):
        m = MachineModel()
        c = scaled_cost(m, 1.0, cell_scale=4.0)
        assert c.subgrid_wire_bytes(10) == 4 * 10 * 8
        assert c.subgrid_migration_time(10) == pytest.approx(
            4 * 10 * c.cell_handling_s
        )

    def test_workloads_construct(self):
        for factory in (fig5_workload, fig6_workload, fig7_workload):
            w = factory()
            spec = w.spec_for(48)
            assert isinstance(spec, PICSpec)
            assert spec.cells % 2 == 0
            assert w.cost.machine is w.machine

    def test_fig7_weak_scaling_particles(self):
        w = fig7_workload()
        assert w.spec_for(96).n_particles == 2 * w.spec_for(48).n_particles


class TestRunner:
    def test_known_implementations(self):
        assert set(IMPLEMENTATIONS) == {"mpi-2d", "mpi-2d-LB", "ampi"}

    def test_unknown_implementation_rejected(self):
        w = fig6_workload()
        with pytest.raises(ValueError, match="unknown implementation"):
            run_implementation("x", "nope", w.spec_for(4), 4, w.machine, w.cost)

    def test_run_implementation_records(self):
        w = fig6_workload()
        spec = PICSpec(cells=32, n_particles=200, steps=5)
        rec = run_implementation("t", "mpi-2d", spec, 4, w.machine, w.cost)
        assert rec.verified
        assert rec.cores == 4
        assert rec.sim_time > 0
        assert rec.wall_time > 0
        row = rec.as_row()
        assert row["impl"] == "mpi-2d"

    def test_serial_model_time(self):
        w = fig6_workload()
        spec = PICSpec(cells=32, n_particles=100, steps=10)
        assert serial_model_time(spec, w.cost) == pytest.approx(
            1000 * w.cost.particle_push_s
        )


class TestReporting:
    def records(self):
        return [
            RunRecord("f", "mpi-2d", c, t, 0.1, True, 100, 50.0, 10, 100)
            for c, t in [(4, 2.0), (8, 1.0), (16, 0.6)]
        ] + [
            RunRecord("f", "mpi-2d-LB", c, t, 0.1, True, 60, 50.0, 10, 100)
            for c, t in [(4, 1.8), (8, 0.8), (16, 0.4)]
        ]

    def test_format_table_contains_all_rows(self):
        table = format_table(self.records())
        assert table.count("mpi-2d-LB") == 3
        assert "sim_time_s" in table

    def test_format_series_sorted(self):
        series = format_series(self.records())
        assert series["mpi-2d"] == [(4.0, 2.0), (8.0, 1.0), (16.0, 0.6)]

    def test_ascii_loglog_renders(self):
        chart = ascii_loglog(format_series(self.records()), title="t")
        assert "A=mpi-2d" in chart
        assert "B=mpi-2d-LB" in chart
        assert chart.count("|") >= 18

    def test_ascii_loglog_empty(self):
        assert ascii_loglog({}) == "(no data)"

    def test_speedup_table(self):
        out = speedup_table(self.records(), serial_time=4.0)
        assert "2.0x" in out  # 4.0 / 2.0 at 4 cores


class TestDispatchBreakdown:
    """dispatch_breakdown over ExecSpans."""

    def _trace(self):
        tr = ExecutorTrace()
        # Batch 1: dispatch 10ms wall / 2ms cpu, 4 tasks, 30ms kernel.
        tr.record("dispatch", -1, 1, 0.00, 0.01, tasks=4, cpu_s=0.002)
        tr.record("execute", 0, 1, 0.01, 0.04, tasks=4)
        tr.record("merge", -1, 1, 0.01, 0.05, tasks=1)
        # Batch 2 (steady): dispatch 4ms wall / 1ms cpu after a 5ms gap.
        tr.record("dispatch", -1, 2, 0.10, 0.104, tasks=4, cpu_s=0.001)
        tr.record("execute", 0, 2, 0.104, 0.14, tasks=4)
        tr.record("merge", -1, 2, 0.104, 0.15, tasks=1)
        return tr

    def test_per_batch_rows(self):
        b = dispatch_breakdown(self._trace().spans)
        assert [r["batch"] for r in b["rows"]] == [1, 2]
        r1, r2 = b["rows"]
        assert r1["dispatch_s"] == pytest.approx(0.01)
        assert r1["dispatch_cpu_s"] == pytest.approx(0.002)
        assert r1["kernel_s"] == pytest.approx(0.03)
        assert r1["exchange_s"] == 0.0  # no previous batch
        # Gap between batch 1's merge end (0.05) and batch 2's dispatch
        # start (0.10) is the exchange window.
        assert r2["exchange_s"] == pytest.approx(0.05)

    def test_totals_and_steady_state_cpu_per_task(self):
        t = dispatch_breakdown(self._trace().spans)["totals"]
        assert t["batches"] == 2 and t["tasks"] == 8
        assert t["dispatch_cpu_s"] == pytest.approx(0.003)
        assert t["dispatch_cpu_s_per_task"] == pytest.approx(0.003 / 8)
        # Steady state excludes batch 1 (where the plan is resolved).
        assert t["steady_dispatch_cpu_s_per_task"] == pytest.approx(0.001 / 4)
        assert t["steady_dispatch_s_per_task"] == pytest.approx(0.004 / 4)

    def test_cpu_falls_back_to_wall_without_cpu_arg(self):
        tr = ExecutorTrace()
        tr.record("dispatch", -1, 1, 0.0, 0.01, tasks=2)
        t = dispatch_breakdown(tr.spans)["totals"]
        assert t["dispatch_cpu_s"] == pytest.approx(0.01)
