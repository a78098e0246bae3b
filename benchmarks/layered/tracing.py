"""Benchmark-side span recorder: times the calls into each layer from outside.

Nothing under ``src/`` is edited.  :func:`install` replaces the *public*
entry points of each layer (module functions, class methods) with thin
wrappers that open a span on a :class:`Recorder` around the original call.
Spans are kept in memory (one small list per span) and only aggregated —
or written out — after the timed region.

Rules of attribution:

* spans nest strictly (single thread, synchronous calls), so a span's
  *self time* is its duration minus its direct children's durations, and
  a layer's ``busy_s`` is the sum of self times of its spans;
* generator functions (``exchange_particles``, ``lb_hook``) are timed per
  ``send()``: the time a rank spends suspended is never counted;
* ``ParticleArray`` operations carry no layer of their own: they are a
  by-name sub-breakdown (``particles.*``) and their time is attributed to
  the enclosing layer (exchange, lb, ...), or to ``events`` when the rank
  program calls them directly (injection / removal).
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

#: Layer given to ``ParticleArray`` spans whose enclosing span is the
#: scheduler itself: the only direct callers are the event handlers.
_ORPHAN_LAYER = "events"


class Recorder:
    """In-memory span log: ``[layer, name, t_start, t_end, parent_index]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def take(self) -> "Summary":
        """Summarise and clear the log (only legal between top-level spans)."""
        if self._stack:
            raise RuntimeError("recorder cut with open spans")
        summary = Summary(self.spans, dict(self.counts))
        self.spans = []
        self.counts = defaultdict(int)
        return summary

    def enter(self, layer, name) -> int:
        idx = len(self.spans)
        stack = self._stack
        self.spans.append([layer, name, perf_counter(), 0.0, stack[-1] if stack else -1])
        stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][3] = perf_counter()
        self._stack.pop()


class Summary:
    """Per-layer self time and per-name inclusive time of a span log."""

    def __init__(self, spans, counts) -> None:
        self.spans = spans
        self.counts = counts
        self.busy: dict[str, float] = defaultdict(float)
        self.by_name: dict[str, float] = defaultdict(float)
        self.self_by_name: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        child = [0.0] * len(spans)
        layers: list[str] = []
        for layer, _name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
            if layer is None:
                layer = layers[parent] if parent >= 0 else _ORPHAN_LAYER
                if layer == "scheduler":
                    layer = _ORPHAN_LAYER
            layers.append(layer)
        for i, (_layer, name, t0, t1, _parent) in enumerate(spans):
            own = (t1 - t0) - child[i]
            self.busy[layers[i]] += own
            self.by_name[name] += t1 - t0
            self.self_by_name[name] += own
            self.calls[name] += 1


# ----------------------------------------------------------------------
# Wrapper factories
# ----------------------------------------------------------------------
def _timed(rec: Recorder, layer, name, fn, before=None):
    """Wrap a plain callable; ``before(rec, args)`` may bump counters."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(rec, args)
        idx = rec.enter(layer, name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.exit(idx)

    return wrapper


def _timed_generator(rec: Recorder, layer, name, genfunc, before=None):
    """Wrap a generator function, timing each ``send()`` separately."""

    @functools.wraps(genfunc)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(rec, args)
        gen = genfunc(*args, **kwargs)
        value = None
        while True:
            idx = rec.enter(layer, name)
            try:
                op = gen.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                rec.exit(idx)
            value = yield op

    return wrapper


class _TimedHandle:
    """Times ``BatchHandle.wait`` / ``finish`` of whatever handle it wraps."""

    __slots__ = ("_rec", "_inner")

    def __init__(self, rec, inner) -> None:
        self._rec = rec
        self._inner = inner

    def wait(self, i: int) -> None:
        idx = self._rec.enter("executor", "executor.wait")
        try:
            self._inner.wait(i)
        finally:
            self._rec.exit(idx)

    def finish(self) -> None:
        idx = self._rec.enter("executor", "executor.wait")
        try:
            self._inner.finish()
        finally:
            self._rec.exit(idx)


def _timed_start_batch(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(self, batch, tag=None):
        rec.counts["executor.batches"] += 1
        rec.counts["executor.tasks"] += len(batch)
        idx = rec.enter("executor", "executor.dispatch")
        try:
            handle = fn(self, batch, tag=tag)
        finally:
            rec.exit(idx)
        return _TimedHandle(rec, handle)

    return wrapper


def _count_pushes(rec, args):  # advance(mesh, particles, ...) / advance_arrays(mesh, x, ...)
    rec.counts["kernel.pushes"] += len(args[1])


def _count_exchange(rec, args):  # exchange_particles(comm, cart, part, mesh, particles, ...)
    rec.counts["exchange.calls"] += 1
    rec.counts["exchange.resident"] += len(args[4])


def _timed_reserve(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(self, n_needed):
        before = self.capacity
        idx = rec.enter(None, "particles.reserve")
        try:
            return fn(self, n_needed)
        finally:
            rec.exit(idx)
            if self.capacity != before:
                rec.counts["particles.reserve_growths"] += 1

    return wrapper


def install(rec: Recorder) -> None:
    """Patch every layer's public entry points to record on ``rec``.

    Call once per process, after the untraced reference cycle.  Both
    names a function is reachable under are patched where a module
    imported it with ``from ... import`` (``exchange_particles`` in
    ``parallel.base`` and ``parallel.mpi2d_lb``; ``advance_arrays`` in
    ``runtime.executor``; ``initialize`` in ``parallel.base``).
    """
    from repro.ampi import pup
    from repro.campaign import fabric, runner
    from repro.campaign.spec import CampaignSpec
    from repro.config import build
    from repro.core import events, kernel, verification
    from repro.core.particles import ParticleArray
    from repro.parallel import ampi, base, mpi2d_lb
    from repro.resilience import checkpoint
    from repro.runtime import executor, multiplex
    from repro.runtime.engine import SimEngine

    def patch(owner, attr, factory, *a, **k):
        setattr(owner, attr, factory(rec, *a, getattr(owner, attr), **k))

    # kernel
    patch(kernel, "advance", _timed, "kernel", "kernel.advance",
          before=_count_pushes)
    patch(executor, "advance_arrays", _timed, "kernel", "kernel.advance",
          before=_count_pushes)
    # exchange (+ the ParticleArray sub-breakdown)
    exchange = _timed_generator(rec, "exchange", "exchange", base.exchange_particles,
                                before=_count_exchange)
    base.exchange_particles = exchange
    mpi2d_lb.exchange_particles = exchange
    for method, name in (("compact", "particles.compact"),
                         ("pack_into", "particles.pack"),
                         ("extend_packed", "particles.extend"),
                         ("extend", "particles.extend")):
        patch(ParticleArray, method, _timed, None, name)
    patch(ParticleArray, "reserve", _timed_reserve)
    # scheduler pump: everything under tick/flush that no child span claims
    patch(SimEngine, "tick", _timed, "scheduler", "scheduler.tick")
    patch(SimEngine, "flush", _timed, "scheduler", "scheduler.flush")
    # executor dispatch + completion wait
    patch(executor.Executor, "start_batch", _timed_start_batch)
    patch(executor.ProcessExecutor, "start_batch", _timed_start_batch)
    # checkpoint / pup
    patch(checkpoint.Checkpointer, "contribute", _timed, "checkpoint", "checkpoint.write")
    load = _timed(rec, "checkpoint", "checkpoint.load", checkpoint.Snapshot.load.__func__)
    checkpoint.Snapshot.load = classmethod(load)
    patch(checkpoint, "resume_engine", _timed, "checkpoint", "checkpoint.load")
    patch(pup, "pack_vp", _timed, "pup", "pup.pack")
    patch(pup, "unpack_vp", _timed, "pup", "pup.unpack")
    # load balancing, events, init, verify
    patch(mpi2d_lb.Mpi2dLbPIC, "lb_hook", _timed_generator, "lb", "lb")
    patch(ampi.AmpiPIC, "lb_hook", _timed_generator, "lb", "lb")
    patch(events, "removal_mask", _timed, "events", "events.removal_mask")
    patch(base.ParallelPICBase, "build_engine", _timed, "init", "init.build_engine")
    patch(base, "initialize", _timed, "init", "init.initialize")
    patch(verification, "position_errors", _timed, "verify", "verify")
    patch(verification, "verify_distributed", _timed, "verify", "verify")
    # campaign + config
    patch(runner, "run_campaign", _timed, "campaign", "campaign.run")
    patch(CampaignSpec, "expand", _timed, "campaign", "campaign.expand")
    patch(fabric.CacheIndex, "__init__", _timed, "campaign", "campaign.cache")
    patch(fabric.CacheIndex, "lookup", _timed, "campaign", "campaign.cache")
    patch(build, "canonical_runspec", _timed, "config", "config.canonical")
    # multiplex
    patch(multiplex.EngineGroup, "run_all", _timed, "multiplex", "multiplex.run_all")
