"""Resolve a :class:`~repro.config.runspec.RunSpec` into live objects.

This is the only module that knows how to turn the declarative tree into
a :class:`MachineModel`, a :class:`CostModel`, a driver instance, an
executor backend and a :class:`ResilienceConfig` — the CLI, the campaign
runner and the bench layer all build runs through here, so a RunSpec
means exactly one thing everywhere.

Kept separate from :mod:`repro.config.runspec` (which stays import-light)
because building pulls in the parallel drivers and the resilience
subsystem, and :mod:`repro.parallel.base` itself imports the runspec
module to derive specs from live drivers.
"""

from __future__ import annotations

from typing import Any

from repro.config.env import resolve_executor_config
from repro.config.runspec import LB_STRATEGY_NAMES, ConfigError, ResilienceSpec, RunSpec
from repro.runtime.costmodel import check_cost_rates


def build_strategy(name: str):
    """Instantiate an ampi LB strategy (parameter-free) by its registered name."""
    from repro.ampi import loadbalancer

    if name not in LB_STRATEGY_NAMES:
        raise ConfigError(
            f"unknown LB strategy {name!r}; "
            f"choose from {', '.join(LB_STRATEGY_NAMES)}"
        )
    return getattr(loadbalancer, name)()


def build_resilience(rs: RunSpec, n_ranks: int, *, resume=None):
    """The run's :class:`~repro.resilience.ResilienceConfig`, or None.

    ``n_ranks`` sizes the straggler watch, so the caller passes the
    *driver's* rank count (cores * d for ampi) — build the driver first
    with ``resilience=None``, then attach (see :func:`build_impl`).
    """
    spec = rs.resilience
    if not spec.active() and resume is None:
        return None
    from repro.resilience import (
        Checkpointer,
        FaultPlan,
        RecoveryPolicy,
        ResilienceConfig,
        StragglerWatch,
    )

    plan = watch = recovery = checkpointer = None
    if spec.faults is not None:
        plan = FaultPlan.from_dict(spec.faults)
    if spec.watch is not None:
        watch = StragglerWatch(n_ranks, **spec.watch)
    elif spec.faults is not None:
        # A fault plan arms the watch by default (matches the historical
        # CLI behavior of --faults).
        watch = StragglerWatch(n_ranks)
    if spec.recovery is not None:
        recovery = RecoveryPolicy(**spec.recovery)
    elif spec.faults is not None:
        recovery = RecoveryPolicy()
    if spec.checkpoint_every > 0:
        checkpointer = Checkpointer(
            spec.checkpoint_dir, every=spec.checkpoint_every
        )
    return ResilienceConfig(
        plan=plan, watch=watch, checkpointer=checkpointer,
        recovery=recovery, resume=resume,
    )


def build_executor(rs: RunSpec, *, cli=None, exec_tracer=None):
    """The compute backend :func:`resolve_executor_config` picks for ``rs``
    (``cli``, an ExecutorConfig of typed flags, outranks env and spec).

    The caller owns the returned instance and must ``close()`` it.
    Requesting ``kernel_backend=compiled`` without a C compiler raises
    :class:`repro.core.kernel_compiled.CompiledKernelUnavailable` here,
    at build time, rather than mid-run.
    """
    from repro.runtime.executor import make_executor

    cfg = resolve_executor_config(cli, rs.executor)
    return make_executor(
        cfg.kind, workers=cfg.workers, exec_tracer=exec_tracer,
        kernel_backend=cfg.kernel_backend,
    )


def build_impl(
    rs: RunSpec,
    *,
    tracer=None,
    span_tracer=None,
    metrics=None,
    executor=None,
    resume=None,
):
    """Instantiate the driver a RunSpec describes (resilience attached).

    ``rs.impl.name`` must be one of the three parallel implementations;
    ``"serial"`` runs have no driver object — use :func:`execute_runspec`.
    Without ``executor`` the driver runs on :func:`build_executor`'s pick
    for ``rs`` and owns it: its engine's ``close()`` (or the end of
    ``run()``) closes it.
    """
    from repro.parallel import DRIVERS

    cls = DRIVERS.get(rs.impl.name)
    if cls is None:
        raise ConfigError(
            f"cannot build impl {rs.impl.name!r}; "
            f"choose from {', '.join(sorted(DRIVERS))} (or 'serial')"
        )
    machine = rs.machine.build()
    cost = rs.cost.build(machine)
    kwargs: dict[str, Any] = dict(rs.impl.params())
    if "strategy" in kwargs:
        kwargs["strategy"] = build_strategy(kwargs["strategy"])
    impl = cls(
        rs.workload,
        rs.impl.cores,
        machine=machine,
        cost=cost,
        dims=rs.impl.dims,
        tracer=tracer,
        span_tracer=span_tracer,
        metrics=metrics,
        executor=executor,
        resilience=None,
        **kwargs,
    )
    # Two-phase: the watch is sized by the driver's rank count (cores * d
    # for ampi), which only the constructed driver knows authoritatively.
    impl.resilience = build_resilience(rs, impl.n_ranks, resume=resume)
    if executor is None:  # last, so a rejected spec starts no workers
        impl.executor = build_executor(rs)
        impl.owns_executor = True
    return impl


def canonical_runspec(rs: RunSpec) -> RunSpec:
    """Resolve a spec's defaults the way the driver it names would.

    A hand-written sparse spec (e.g. ampi with ``strategy`` omitted) and
    the spec a live driver derives for the same run must hash equal —
    resume validation and the campaign cache both compare hashes across
    that boundary.  Nothing is built to get there: the tunables come from
    the driver class's pure :meth:`resolve_params` (the one its constructor
    uses), the machine section normalises itself, an active resilience
    section is read back from the value objects :func:`build_resilience`
    hands a run — and what those constructors reject is rejected here.
    ``serial`` (and unknown test impls) pass through unchanged.
    """
    from repro.parallel import DRIVERS

    cls = DRIVERS.get(rs.impl.name)
    if cls is None:
        return rs
    machine = rs.machine.canonical()
    check_cost_rates(rs.cost)
    params = cls.resolve_params(**rs.impl.params())
    impl = rs.impl.with_params(**params) if params else rs.impl
    # The watch is sized by the driver's rank count: cores * d for ampi.
    n_ranks = impl.cores * (impl.overdecomposition or 1)
    return RunSpec(
        workload=rs.workload, impl=impl, machine=machine, cost=rs.cost,
        executor=rs.executor,
        resilience=ResilienceSpec.from_config(build_resilience(rs, n_ranks)),
    )


def canonical_hash(rs: RunSpec) -> str:
    """:meth:`RunSpec.spec_hash` of the canonicalized spec."""
    return canonical_runspec(rs).spec_hash()


def execute_runspec(rs: RunSpec, *, executor=None) -> dict:
    """Run a RunSpec to completion and return its deterministic result doc.

    The result contains only simulated/derived quantities (no wall-clock,
    no paths), so the same spec always produces the same bytes — the
    campaign cache (:mod:`repro.campaign`) depends on this.  Verification
    failure raises ``RuntimeError``.
    """
    if rs.impl.name == "serial":
        from repro.core.simulation import run_serial

        res = run_serial(rs.workload)
        if not res.verification.ok:
            raise RuntimeError(f"verification failed: {res.verification}")
        return {
            "implementation": "serial",
            "n_ranks": 1,
            "n_cores": 1,
            "sim_time_s": None,
            "verified": True,
            "max_particles_per_core": len(res.particles),
            "ideal_particles_per_core": float(len(res.particles)),
            "messages_sent": 0,
            "bytes_sent": 0,
            "collectives": 0,
            "final_particles": len(res.particles),
        }

    result = build_impl(rs, executor=executor).run()
    if not result.verification.ok:
        raise RuntimeError(
            f"verification failed for {rs.describe()}: {result.verification}"
        )
    return parallel_result_doc(result)


def parallel_result_doc(result) -> dict:
    """The deterministic result document of a finished parallel run.

    Shared by :func:`execute_runspec` and every layered benchmark workload
    that drives engines itself, so every execution path produces the same
    document for the same spec.
    """
    return {
        "implementation": result.implementation,
        "n_ranks": result.n_ranks,
        "n_cores": result.n_cores,
        "sim_time_s": result.total_time,
        "verified": True,
        "max_particles_per_core": result.max_particles_per_core,
        "ideal_particles_per_core": result.ideal_particles_per_core,
        "messages_sent": result.messages_sent,
        "bytes_sent": result.bytes_sent,
        "collectives": result.collectives,
        "final_particles": sum(result.particles_per_core.values()),
    }
