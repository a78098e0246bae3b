"""Straggler detection and the recovery responses it drives.

Unit tests pin the EWMA/hysteresis math; integration tests inject a CPU
slowdown and check the whole causal chain: flag -> instant event + metric
-> forced/measured LB round -> simulated time recovered, plus the crash
path (recovery span with a policy, :class:`RankFailedError` without).
"""

from __future__ import annotations

import pytest

from repro.config import RunSpec
from repro.config.build import build_impl
from repro.core.spec import Distribution, PICSpec
from repro.instrument import MetricsRegistry, Tracer
from repro.parallel import Mpi2dLbPIC, Mpi2dPIC
from repro.resilience import (
    CrashFault,
    FaultPlan,
    RecoveryPolicy,
    ResilienceConfig,
    SlowdownFault,
    StragglerWatch,
)
from repro.runtime.errors import RankFailedError


class TestWatchUnit:
    def test_validation(self):
        with pytest.raises(ValueError):
            StragglerWatch(0)
        with pytest.raises(ValueError, match="alpha"):
            StragglerWatch(4, alpha=0.0)
        with pytest.raises(ValueError, match="clear_ratio"):
            StragglerWatch(4, threshold=2.0, clear_ratio=2.5)
        with pytest.raises(ValueError, match="min_samples"):
            StragglerWatch(4, min_samples=0)

    def _feed(self, watch, step, deltas):
        """One synthetic step: every rank's cumulative busy time advances."""
        events = []
        for r, d in enumerate(deltas):
            self._cum[r] = self._cum.get(r, 0.0) + d
            events += watch.observe(r, step, self._cum[r])
        return events

    def setup_method(self):
        self._cum = {}

    def test_flag_and_clear_hysteresis(self):
        watch = StragglerWatch(4, alpha=1.0, threshold=2.0, clear_ratio=1.5)
        assert self._feed(watch, 0, [1, 1, 1, 1]) == []
        assert not watch.ready()
        assert watch.load(0, fallback=7.5) == 7.5  # fallback until ready
        assert self._feed(watch, 1, [1, 1, 1, 1]) == []
        assert not watch.ready()  # min_samples=2: one delta per rank so far
        # Rank 3 jumps above 2x the median -> flagged (readiness arrives
        # with this second delta).
        assert self._feed(watch, 2, [1, 1, 1, 3]) == [("flagged", 3)]
        assert watch.stragglers() == [3]
        assert watch.load(3, fallback=0.0) == pytest.approx(3.0)
        # Hovering between clear_ratio and threshold: no flap.
        assert self._feed(watch, 3, [1, 1, 1, 1.8]) == []
        assert watch.stragglers() == [3]
        # Dropping below 1.5x the median clears it.
        assert self._feed(watch, 4, [1, 1, 1, 1.0]) == [("cleared", 3)]
        assert watch.stragglers() == []

    def test_straggler_pending_window(self):
        watch = StragglerWatch(2, min_samples=1, alpha=1.0)
        watch.flag_steps[:] = [4, 9]
        assert watch.straggler_pending(last_handled=-1, step=3) is False
        assert watch.straggler_pending(last_handled=-1, step=4) is True
        assert watch.straggler_pending(last_handled=4, step=8) is False
        assert watch.straggler_pending(last_handled=4, step=9) is True

    def test_core_change_restarts_ewma(self):
        watch = StragglerWatch(2, alpha=0.5, min_samples=1)
        cum = 0.0
        for step in range(3):  # three slow deltas of 4.0 on core 0
            cum += 4.0
            watch.observe(0, step, cum, core=0)
            watch.observe(1, step, float(step + 1), core=1)
        assert watch.load(0, 0.0) > 3.0
        # Rank 0 migrates to core 2: the next delta alone defines the EWMA.
        cum += 1.0
        watch.observe(0, 3, cum, core=2)
        watch.observe(1, 3, 4.0, core=1)
        assert watch.load(0, 0.0) == pytest.approx(1.0)

    def test_state_round_trips(self):
        a = StragglerWatch(3, alpha=1.0, min_samples=1)
        cum = {}
        for step, deltas in enumerate([[1, 1, 1], [1, 1, 5], [1, 1, 5]]):
            for r, d in enumerate(deltas):
                cum[r] = cum.get(r, 0.0) + d
                a.observe(r, step, cum[r], core=r)
        b = StragglerWatch(3, alpha=1.0, min_samples=1)
        b.load_state(a.state_dict())
        assert b.state_dict() == a.state_dict()
        assert b.stragglers() == a.stragglers() == [2]
        with pytest.raises(ValueError, match="ranks"):
            StragglerWatch(5).load_state(a.state_dict())

    def test_state_with_measured_rates_loads(self):
        """Older checkpoints carry a ``backend_rates`` table in the watch
        state; it loads cleanly and is not written back."""
        a = StragglerWatch(3, alpha=1.0, min_samples=1)
        for step, cum in enumerate([(1, 1, 1), (2, 2, 6), (3, 3, 11)]):
            for r, c in enumerate(cum):
                a.observe(r, step, float(c), core=r)
        state = {**a.state_dict(), "backend_rates": {"0": 5e7}}
        b = StragglerWatch(3, alpha=1.0, min_samples=1)
        b.load_state(state)
        assert b.state_dict() == a.state_dict()
        assert "backend_rates" not in b.state_dict()
        assert b.stragglers() == a.stragglers() == [2]


SPEC = PICSpec(
    cells=32, n_particles=2000, steps=20,
    distribution=Distribution.UNIFORM,
)
CORES = 4


def _slow_plan():
    return FaultPlan(faults=(SlowdownFault(factor=4.0, core=0, start=4),))


class TestStragglerIntegration:
    def test_slowdown_is_flagged_and_instrumented(self):
        metrics = MetricsRegistry()
        tracer = Tracer()
        cfg = ResilienceConfig(plan=_slow_plan(), watch=StragglerWatch(CORES))
        res = Mpi2dPIC(
            SPEC, CORES, dims=(CORES, 1), resilience=cfg,
            metrics=metrics, span_tracer=tracer,
        ).run()
        assert res.verification.ok
        assert metrics.counter("resilience.straggler_flagged").value >= 1
        flagged = [e for e in tracer.instants if e.name == "straggler_flagged"]
        assert flagged and flagged[0].rank == 0  # core 0 <-> rank 0 here
        assert cfg.watch.stragglers() == [0]

    def test_measured_loads_drive_recovery(self):
        """The LB on measured seconds beats the static run under the fault."""
        def run(cls, cfg, **kw):
            return cls(SPEC, CORES, dims=(CORES, 1), resilience=cfg, **kw).run()

        def cfg():
            return ResilienceConfig(plan=_slow_plan(), watch=StragglerWatch(CORES))

        static = run(Mpi2dPIC, cfg())
        balanced = run(
            Mpi2dLbPIC, cfg(),
            lb_interval=2, border_width=2, threshold_fraction=0.02, axes="x",
        )
        assert balanced.verification.ok and static.verification.ok
        assert balanced.total_time < 0.75 * static.total_time

    def test_new_straggler_forces_off_interval_lb_round(self):
        """With lb_interval > steps, only the watch can trigger a round."""
        def run(watch):
            cfg = ResilienceConfig(plan=_slow_plan(), watch=watch)
            return Mpi2dLbPIC(
                SPEC, CORES, dims=(CORES, 1), lb_interval=1000,
                border_width=2, threshold_fraction=0.02, axes="x",
                resilience=cfg,
            ).run()

        without_watch_cfg = ResilienceConfig(plan=_slow_plan(), watch=None)
        inert = Mpi2dLbPIC(
            SPEC, CORES, dims=(CORES, 1), lb_interval=1000,
            border_width=2, threshold_fraction=0.02, axes="x",
            resilience=without_watch_cfg,
        ).run()
        reactive = run(StragglerWatch(CORES))
        assert reactive.verification.ok and inert.verification.ok
        # The forced round moved work off the slow core.
        assert reactive.total_time < 0.85 * inert.total_time


class TestDeclaredSlowRank:
    """A rank that runs 10x slower (say, the one rank of a fleet left on a
    slower kernel) is declared in the RunSpec as a rank-targeted slowdown
    fault; nothing is measured on the host."""

    def _run(self, impl, faults=True, **params):
        doc = {
            "workload": {"cells": 32, "n_particles": 1200, "steps": 10,
                         "distribution": "uniform"},
            "impl": {"name": impl, "cores": 4, **params},
        }
        if faults:
            doc["resilience"] = {"faults": {"faults": [
                {"kind": "slowdown", "rank": 3, "factor": 10}]}}
        driver = build_impl(RunSpec.from_dict(doc))
        result = driver.run()
        assert result.verification.ok, str(result.verification)
        return driver, result

    def test_watch_flags_the_slow_rank(self):
        driver, _ = self._run("mpi-2d")
        assert driver.resilience.watch.stragglers() == [3]
        assert driver.resilience.watch.flag_steps

    def test_physics_untouched_only_clocks_move(self):
        _, slow = self._run("mpi-2d")
        _, clean = self._run("mpi-2d", faults=False)
        v, w = slow.verification, clean.verification
        assert (v.id_checksum, v.n_particles) == (w.id_checksum, w.n_particles)
        assert slow.total_time > clean.total_time

    def test_lb_finishes_sooner_than_static(self):
        _, static = self._run("mpi-2d")
        _, balanced = self._run("mpi-2d-LB", lb_interval=2, border_width=1)
        assert balanced.total_time < static.total_time


class TestCrashes:
    def _plan(self):
        return FaultPlan(faults=(CrashFault(rank=1, step=7, retries=2),))

    def test_crash_without_policy_raises(self):
        cfg = ResilienceConfig(plan=self._plan())
        with pytest.raises(RankFailedError) as exc:
            Mpi2dPIC(SPEC, CORES, resilience=cfg).run()
        assert exc.value.rank == 1
        assert exc.value.step == 7
        assert "rank 1 crashed at step 7" in str(exc.value)

    def test_crash_with_policy_is_absorbed(self):
        metrics = MetricsRegistry()
        tracer = Tracer()
        cfg = ResilienceConfig(
            plan=self._plan(), recovery=RecoveryPolicy(),
        )
        crashed = Mpi2dPIC(
            SPEC, CORES, resilience=cfg, metrics=metrics, span_tracer=tracer
        ).run()
        clean = Mpi2dPIC(SPEC, CORES).run()
        assert crashed.verification.ok
        spans = [s for s in tracer.spans if s.name == "recovery"]
        assert len(spans) == 1
        assert spans[0].cat == "fault"
        assert spans[0].rank == 1 and spans[0].step == 7
        expected = RecoveryPolicy().recovery_seconds(
            retries=2, state_bytes=spans[0].args_dict()["state_bytes"]
        )
        assert spans[0].duration == pytest.approx(expected)
        assert metrics.counter("resilience.crashes").value == 1
        assert crashed.total_time > clean.total_time
