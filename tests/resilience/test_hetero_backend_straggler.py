"""A mixed compiled/python fleet is an ordinary, LB-correctable straggler.

Runs without a compiled kernel: the heterogeneity enters through a seeded
:class:`~repro.runtime.costmodel.WorkRateMeter` — exactly the object a
real mixed fleet's executors would have filled with measured pushes/sec —
so the scenario is the *model* of "rank 3 runs the python kernel while
everyone else runs compiled", order-10x slower per push.

Claims pinned here:

* the scheduler turns the measured rate gap into simulated busy-seconds,
  so the :class:`~repro.resilience.StragglerWatch` flags the slow rank
  from its ordinary busy-time evidence;
* the driver forwards the meter's rates to the watch
  (``note_backend_rates``), whose ``backend_imbalance()`` then names the
  cause — a 10x rate spread, not a fault;
* physics is untouched: only clocks move, verification and checksums
  match the homogeneous run bit-for-bit;
* the imbalance is *correctable*: mpi-2d-LB with the same meter beats
  static mpi-2d on total simulated time;
* the watch's rate table survives a checkpoint round-trip, and old
  checkpoints without one still load.
"""

from __future__ import annotations

import pytest

from repro.core.spec import Distribution, PICSpec
from repro.parallel import Mpi2dLbPIC, Mpi2dPIC
from repro.resilience import ResilienceConfig, StragglerWatch
from repro.runtime.costmodel import (
    NOMINAL_BACKEND_RATES,
    WorkRateMeter,
    nominal_backend_rate,
)

SPEC = PICSpec(
    cells=32, n_particles=1200, steps=10,
    distribution=Distribution.UNIFORM,
)
CORES = 4
SLOW_RANK = 3
FAST_RATE = 5.0e7  # a compiled kernel's pushes/sec, order of magnitude
SLOW_RATE = 5.0e6  # the python kernel's


def _meter() -> WorkRateMeter:
    m = WorkRateMeter()
    m.seed({r: FAST_RATE for r in range(CORES)})
    m.seed({SLOW_RANK: SLOW_RATE})
    return m


def _run(cls, *, work_rates=None, watch=None, **params):
    resilience = (
        ResilienceConfig(watch=watch) if watch is not None else None
    )
    impl = cls(
        SPEC, CORES, work_rates=work_rates, resilience=resilience, **params
    )
    result = impl.run()
    assert result.verification.ok, str(result.verification)
    return result


def test_slow_backend_rank_gets_flagged():
    watch = StragglerWatch(CORES)
    _run(Mpi2dPIC, work_rates=_meter(), watch=watch)
    assert watch.stragglers() == [SLOW_RANK]
    assert watch.flag_steps, "flagging should have happened mid-run"


def test_meter_rates_reach_the_watch_as_diagnostics():
    watch = StragglerWatch(CORES)
    _run(Mpi2dPIC, work_rates=_meter(), watch=watch)
    assert watch.backend_rates == _meter().rates()
    assert watch.backend_imbalance() == pytest.approx(
        FAST_RATE / SLOW_RATE
    )


def test_homogeneous_meter_is_invisible():
    """All ranks at the same measured rate ⇒ nothing flagged, imbalance 1."""
    m = WorkRateMeter()
    m.seed({r: FAST_RATE for r in range(CORES)})
    watch = StragglerWatch(CORES)
    uniform = _run(Mpi2dPIC, work_rates=m, watch=watch)
    bare = _run(Mpi2dPIC)
    assert watch.stragglers() == []
    assert watch.backend_imbalance() == pytest.approx(1.0)
    # Uniform slowdown of 1.0 must not even move the clocks.
    assert uniform.total_time == bare.total_time


def test_physics_untouched_only_clocks_move():
    hetero = _run(Mpi2dPIC, work_rates=_meter())
    homo = _run(Mpi2dPIC)
    v, w = hetero.verification, homo.verification
    assert (v.id_checksum, v.n_particles, v.max_abs_error) == (
        w.id_checksum, w.n_particles, w.max_abs_error
    )
    # The slow rank gates the whole run: close to the full 10x stretch.
    assert hetero.total_time > 2.0 * homo.total_time


def test_lb_corrects_the_backend_imbalance():
    """mpi-2d-LB sheds domain from the python-kernel rank and beats the
    static decomposition end-to-end — the ISSUE's headline scenario."""
    static = _run(Mpi2dPIC, work_rates=_meter())
    balanced = _run(
        Mpi2dLbPIC,
        work_rates=_meter(),
        watch=StragglerWatch(CORES),
        lb_interval=2,
        border_width=1,
    )
    assert balanced.total_time < static.total_time
    assert (
        balanced.verification.id_checksum == static.verification.id_checksum
    )


def test_backend_rates_round_trip_checkpoint_state():
    watch = StragglerWatch(CORES)
    watch.note_backend_rates({0: FAST_RATE, SLOW_RANK: SLOW_RATE})
    state = watch.state_dict()
    fresh = StragglerWatch(CORES)
    fresh.load_state(state)
    assert fresh.backend_rates == {0: FAST_RATE, SLOW_RANK: SLOW_RATE}
    assert fresh.backend_imbalance() == pytest.approx(FAST_RATE / SLOW_RATE)


def test_old_checkpoints_without_rates_still_load():
    watch = StragglerWatch(CORES)
    state = watch.state_dict()
    del state["backend_rates"]  # checkpoint predating measured work rates
    fresh = StragglerWatch(CORES)
    fresh.note_backend_rates({0: FAST_RATE})  # must be overwritten by load
    fresh.load_state(state)
    assert fresh.backend_rates == {}
    assert fresh.backend_imbalance() is None


def test_note_backend_rates_rejects_nonpositive():
    watch = StragglerWatch(CORES)
    with pytest.raises(ValueError):
        watch.note_backend_rates({0: 0.0})


def test_seed_backends_uses_the_nominal_priors():
    """A mixed fleet seeded by backend *name* (before its first measured
    batch) carries exactly the nominal rate table."""
    m = WorkRateMeter()
    m.seed_backends({0: "compiled", SLOW_RANK: "python"})
    assert m.rates() == {
        0: NOMINAL_BACKEND_RATES["compiled"],
        SLOW_RANK: NOMINAL_BACKEND_RATES["python"],
    }


def test_nominal_rate_unknown_backend_rejected():
    for name in ("fortran", "compiled-parallel"):
        with pytest.raises(ValueError, match=name):
            nominal_backend_rate(name)
        with pytest.raises(ValueError, match=name):
            WorkRateMeter().seed_backends({0: name})
