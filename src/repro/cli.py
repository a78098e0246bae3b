"""Command-line interface for the PIC PRK.

Subcommands::

    pic-prk serial  --cells 128 --particles 20000 --steps 100 --dist geometric --r 0.97
    pic-prk run     --impl mpi-2d-LB --cores 24 --cells 288 --particles 24000 --steps 150
    pic-prk run     --spec run.json                               # declarative RunSpec
    pic-prk run     --spec run.json --cores 48 --dry-run          # resolved spec + hash
    pic-prk trace   --impl ampi --cores 16 --steps 160            # imbalance timeline
    pic-prk trace   --impl ampi --cores 16 --out traces/          # + trace.json etc.
    pic-prk figures fig5 fig6l fig6r fig7                         # regenerate figures
    pic-prk campaign benchmarks/campaigns/fig6l.json              # cached sweep
    pic-prk multirun a.json b.json --policy fair                  # N engines, one process
    pic-prk run     --impl ampi --faults plan.json --checkpoint-every 25
    pic-prk resume  --from checkpoints/ckpt_step000050.ckpt       # continue a run
    pic-prk resilience --preset smoke                             # straggler bench

Every run is configured through one declarative
:class:`repro.config.RunSpec`: the flags below build one, ``--spec FILE``
loads one (explicit flags override the file's values), and ``--dry-run``
prints the fully-resolved spec plus its content hash without running.
Executor backend and worker count resolve CLI > ``REPRO_EXECUTOR`` /
``REPRO_WORKERS`` > spec file > serial (see :mod:`repro.config.env`).

``run`` accepts ``--profile``: the command runs under cProfile and the top
20 functions by cumulative time are printed afterwards — the quickest way
to see where the harness's wall-clock time goes.

``trace --out DIR`` additionally records fine-grained spans and metrics and
writes ``trace.json`` (Chrome/Perfetto format — open at ui.perfetto.dev),
``timeline.txt`` (plain-text per-rank span listing) and ``metrics.json``
(every counter/gauge/histogram) into DIR; see docs/observability.md.

``campaign DECL.json`` expands a declarative sweep into a RunSpec matrix
and executes it with content-addressed result caching (a re-run completes
from cache; see docs/campaigns.md).

(Equivalently: ``python -m repro.cli ...``.)  All runs end with the PRK's
exact self-verification; a failing run exits non-zero.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Sequence

from repro.config import (
    EXECUTOR_KINDS,
    KERNEL_BACKENDS,
    ConfigError,
    ExecutorConfig,
    RunSpec,
    diff_docs,
)
from repro.core.simulation import run_serial
from repro.core.spec import Distribution, PICSpec, Region, spec_to_dict
from repro.instrument import (
    ExecutorTrace,
    MetricsRegistry,
    TraceCollector,
    Tracer,
    render_imbalance_timeline,
    render_metrics_summary,
    render_rank_timeline,
    write_chrome_trace,
    write_executor_trace,
    write_metrics,
)
from repro.parallel import AmpiPIC, Mpi2dLbPIC, Mpi2dPIC
from repro.runtime.costmodel import CostModel
from repro.runtime.machine import MachineModel


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cells", type=int, default=128, help="mesh cells per side (even)")
    p.add_argument("--particles", type=int, default=20_000)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument(
        "--dist",
        choices=[d.value for d in Distribution],
        default=Distribution.GEOMETRIC.value,
    )
    p.add_argument("--r", type=float, default=0.97, help="geometric ratio")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=3.0)
    p.add_argument(
        "--patch", type=int, nargs=4, metavar=("XLO", "XHI", "YLO", "YHI"),
        help="patch region in cells (for --dist patch)",
    )
    p.add_argument("--k", type=int, default=0, help="drift multiplier: 2k+1 cells/step")
    p.add_argument("--m", type=int, default=0, help="vertical cells per step")
    p.add_argument("--rotate90", action="store_true")
    p.add_argument("--seed", type=int, default=42)


def _spec_from(args: argparse.Namespace) -> PICSpec:
    return PICSpec(
        cells=args.cells,
        n_particles=args.particles,
        steps=args.steps,
        distribution=Distribution(args.dist),
        r=args.r,
        alpha=args.alpha,
        beta=args.beta,
        patch=Region(*args.patch) if args.patch else None,
        k=args.k,
        m_vertical=args.m,
        rotate90=args.rotate90,
        seed=args.seed,
    )


def _add_executor_args(p: argparse.ArgumentParser) -> None:
    """The executor / workers / kernel-backend flags, shared by every
    subcommand that builds an executor (run, trace, resume, multirun)."""
    p.add_argument(
        "--executor",
        choices=EXECUTOR_KINDS,
        default=None,
        help="compute-execution backend for the particle push: serial and "
        "batched name the same size-aware in-process executor (tasks of at "
        "least half a kernel block run in place, smaller ones are fused "
        "into block-sized kernel calls), process is a shared-memory worker "
        "pool (precedence: this flag > REPRO_EXECUTOR > --spec file, where "
        "the command reads one > serial)",
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for --executor process (0 = one per host "
        "core; precedence: this flag > REPRO_WORKERS > --spec file > 0)",
    )
    p.add_argument(
        "--kernel-backend",
        choices=KERNEL_BACKENDS,
        default=None,
        help="particle-push kernel: python (numpy), compiled (a C loop "
        "built with the host's cc on first use) or auto (compiled when "
        "it builds); results are bitwise identical in every case, so a "
        "checkpoint written under one backend resumes under any other "
        "(precedence: this flag > REPRO_KERNEL_BACKEND > --spec file > auto)",
    )


def _add_parallel_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--impl", choices=["mpi-2d", "mpi-2d-LB", "ampi"], default="mpi-2d")
    p.add_argument("--cores", type=int, default=24)
    p.add_argument("--push-ns", type=float, default=3500.0,
                   help="modelled particle push time in nanoseconds")
    p.add_argument("--lb-interval", type=int, default=2)
    p.add_argument("--border-width", type=int, default=3)
    p.add_argument("--threshold", type=float, default=0.02)
    p.add_argument("--axes", choices=["x", "y", "xy"], default="x")
    p.add_argument("--overdecomposition", "-d", type=int, default=8)
    p.add_argument("--ampi-interval", type=int, default=25)
    _add_executor_args(p)


def _add_spec_file_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--spec", metavar="FILE.json", default=None,
        help="load a declarative RunSpec; explicit flags override its values",
    )
    p.add_argument(
        "--dry-run", action="store_true",
        help="print the fully-resolved RunSpec and its content hash, "
        "then exit without running",
    )


def _add_resilience_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--faults", metavar="PLAN.json", default=None,
        help="activate a deterministic fault plan (see docs/resilience.md); "
        "also arms the straggler watch and a default recovery policy",
    )
    p.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="checkpoint the full simulation state every N steps (0 = off)",
    )
    p.add_argument(
        "--checkpoint-dir", default="checkpoints", metavar="DIR",
        help="directory for checkpoint files (default: checkpoints)",
    )


# ----------------------------------------------------------------------
# CLI -> RunSpec
#
# Every run subcommand goes through one declarative RunSpec
# (repro.config).  Without --spec the flag values (defaults included) are
# authoritative, reproducing the historical CLI behavior exactly; with
# --spec the file is the base and only *explicitly typed* flags override
# it — argparse defaults must not clobber the file, which is why main()
# records the explicitly-set destinations in ``args._explicit`` (via a
# second parse with all defaults suppressed).
# ----------------------------------------------------------------------
def _explicit_set(args: argparse.Namespace) -> set:
    """Destinations the user typed (everything, if main() didn't run)."""
    return getattr(args, "_explicit", set(vars(args)))


def _cli_value(args: argparse.Namespace, dest: str):
    """The flag's value if explicitly typed, else None (= fall through)."""
    return getattr(args, dest, None) if dest in _explicit_set(args) else None


#: argparse destination -> RunSpec dotted path, for --spec overrides.
_WORKLOAD_PATHS = (
    ("cells", "workload.cells"),
    ("particles", "workload.n_particles"),
    ("steps", "workload.steps"),
    ("dist", "workload.distribution"),
    ("r", "workload.r"),
    ("alpha", "workload.alpha"),
    ("beta", "workload.beta"),
    ("k", "workload.k"),
    ("m", "workload.m_vertical"),
    ("rotate90", "workload.rotate90"),
    ("seed", "workload.seed"),
)

_LB_PATHS = (
    ("lb_interval", "impl.lb_interval"),
    ("border_width", "impl.border_width"),
    ("threshold", "impl.threshold_fraction"),
    ("axes", "impl.axes"),
)

_AMPI_PATHS = (
    ("overdecomposition", "impl.overdecomposition"),
    ("ampi_interval", "impl.lb_interval"),
)


def _impl_doc_from(args: argparse.Namespace) -> dict:
    """The impl section the parallel flags describe (no --spec case)."""
    doc: dict = {"name": args.impl, "cores": args.cores}
    if args.impl == "mpi-2d-LB":
        doc.update(
            lb_interval=args.lb_interval,
            border_width=args.border_width,
            threshold_fraction=args.threshold,
            axes=args.axes,
        )
    elif args.impl == "ampi":
        doc.update(
            overdecomposition=args.overdecomposition,
            lb_interval=args.ampi_interval,
        )
    return doc


def _resilience_overrides(args: argparse.Namespace, explicit_only: bool) -> dict:
    over: dict = {}
    explicit = _explicit_set(args)
    faults = getattr(args, "faults", None)
    if faults and (not explicit_only or "faults" in explicit):
        from repro.resilience import FaultPlan

        over["resilience.faults"] = FaultPlan.load(faults).to_dict()
    if getattr(args, "checkpoint_every", 0) and (
        not explicit_only or "checkpoint_every" in explicit
    ):
        over["resilience.checkpoint_every"] = args.checkpoint_every
    if hasattr(args, "checkpoint_dir") and (
        not explicit_only or "checkpoint_dir" in explicit
    ):
        over["resilience.checkpoint_dir"] = args.checkpoint_dir
    return over


def _runspec_from(args: argparse.Namespace, *, serial: bool = False) -> RunSpec:
    """The RunSpec this invocation describes (CLI flags over --spec file)."""
    from repro.config.runspec import apply_overrides

    spec_path = getattr(args, "spec", None)
    if not spec_path:
        doc: dict = {
            "workload": spec_to_dict(_spec_from(args)),
            "impl": {"name": "serial"} if serial else _impl_doc_from(args),
        }
        if not serial:
            doc["cost"] = {"particle_push_s": args.push_ns * 1e-9}
            doc = apply_overrides(doc, _resilience_overrides(args, False))
        return RunSpec.from_dict(doc)

    base = RunSpec.load(spec_path).to_dict()
    explicit = _explicit_set(args)
    over: dict = {}
    for dest, path in _WORKLOAD_PATHS:
        if dest in explicit:
            over[path] = getattr(args, dest)
    if "patch" in explicit and args.patch:
        region = Region(*args.patch)
        over["workload.patch"] = {
            "x_lo": region.x_lo, "x_hi": region.x_hi,
            "y_lo": region.y_lo, "y_hi": region.y_hi,
        }
    if serial:
        # `pic-prk serial` runs the reference kernel no matter which
        # implementation the spec file names.
        base["impl"] = {"name": "serial"}
    else:
        name = args.impl if "impl" in explicit else base["impl"].get("name")
        if "impl" in explicit and name != base["impl"].get("name"):
            # Stale tunables of the replaced impl would otherwise be
            # rejected as not-applicable; the flags redefine the section
            # (keeping the file's core count unless --cores was typed).
            file_cores = base["impl"].get("cores", 1)
            base["impl"] = _impl_doc_from(args)
            if "cores" not in explicit:
                base["impl"]["cores"] = file_cores
        else:
            over["impl.name"] = name
            if "cores" in explicit:
                over["impl.cores"] = args.cores
            paths = _LB_PATHS if name == "mpi-2d-LB" else (
                _AMPI_PATHS if name == "ampi" else ()
            )
            for dest, path in paths:
                if dest in explicit:
                    over[path] = getattr(args, dest)
        if "push_ns" in explicit:
            over["cost.particle_push_s"] = args.push_ns * 1e-9
        over.update(_resilience_overrides(args, True))
    return RunSpec.from_dict(apply_overrides(base, over))


def _print_resolved(args: argparse.Namespace, rs: RunSpec) -> int:
    """--dry-run: the fully-resolved spec (driver defaults filled in)."""
    from repro.config.build import canonical_runspec
    from repro.config.env import (
        resolve_executor,
        resolve_kernel_backend,
        resolve_workers,
    )
    from repro.core.kernel_compiled import resolve_backend

    # The precedence chain yields the *request* (possibly "auto"); what a
    # run would actually execute is the concrete backend, so map through
    # resolve_backend — the same call build_executor makes — before
    # printing.  An unsatisfiable request (compiled without a C compiler)
    # fails here exactly as the real run would.
    effective_backend = resolve_backend(
        resolve_kernel_backend(
            _cli_value(args, "kernel_backend"), rs.executor.kernel_backend
        )
    )
    resolved = canonical_runspec(rs).with_overrides(
        executor=ExecutorConfig(
            kind=resolve_executor(_cli_value(args, "executor"), rs.executor.kind),
            workers=resolve_workers(_cli_value(args, "workers"), rs.executor.workers),
            kernel_backend=effective_backend,
        )
    )
    print(resolved.to_json())
    print(f"spec hash: {resolved.spec_hash()}")
    return 0


def _maybe_profile(args: argparse.Namespace, fn):
    """Run ``fn`` — under cProfile, printing the top 20, if ``--profile``."""
    if not getattr(args, "profile", False):
        return fn()
    import cProfile
    import pstats

    prof = cProfile.Profile()
    rc = prof.runcall(fn)
    print("\n--- cProfile: top 20 by cumulative time ---")
    pstats.Stats(prof).sort_stats("cumulative").print_stats(20)
    return rc


def cmd_serial(args: argparse.Namespace) -> int:
    rs = _runspec_from(args, serial=True)
    if args.dry_run:
        return _print_resolved(args, rs)
    result = run_serial(rs.workload)
    print(f"spec: {rs.workload.describe()}")
    print(result.verification)
    print(f"particle pushes: {result.particle_pushes:,}")
    return 0 if result.verification.ok else 1


def cmd_run(args: argparse.Namespace) -> int:
    rs = _runspec_from(args)
    if args.dry_run:
        return _print_resolved(args, rs)
    from repro.config.build import build_executor, build_impl
    from repro.config.env import resolve_executor

    kind = resolve_executor(_cli_value(args, "executor"), rs.executor.kind)
    if getattr(args, "profile", False) and kind == "process":
        print(
            "error: --profile cannot observe worker processes; cProfile only "
            "sees the parent, so the profile would be misleading. Use "
            "--executor serial (or batched) to profile, or drop --profile "
            "to measure the process backend (see docs/performance.md).",
            file=sys.stderr,
        )
        return 2
    executor = build_executor(
        rs, cli_kind=_cli_value(args, "executor"),
        cli_workers=_cli_value(args, "workers"),
        cli_kernel_backend=_cli_value(args, "kernel_backend"),
    )
    impl = build_impl(rs, executor=executor)
    resilience = impl.resilience
    try:
        result = _maybe_profile(args, impl.run)
    finally:
        executor.close()
    print(f"spec: {impl.spec.describe()}")
    print(
        f"{result.implementation} on {result.n_cores} simulated cores: "
        f"{result.total_time:.4f}s simulated"
    )
    print(
        f"max particles/core {result.max_particles_per_core} "
        f"(ideal {result.ideal_particles_per_core:.0f}), "
        f"messages {result.messages_sent}, bytes {result.bytes_sent}"
    )
    _report_resilience(resilience)
    print(result.verification)
    return 0 if result.verification.ok else 1


def _report_resilience(resilience) -> None:
    if resilience is None:
        return
    if resilience.watch is not None and resilience.watch.stragglers():
        print(f"stragglers still flagged: {resilience.watch.stragglers()}")
    ck = resilience.checkpointer
    if ck is not None and ck.last_path is not None:
        print(f"latest checkpoint: {ck.last_path}")


def cmd_trace(args: argparse.Namespace) -> int:
    rs = _runspec_from(args)
    if args.dry_run:
        return _print_resolved(args, rs)
    from repro.config.build import build_executor, build_impl
    from repro.config.env import resolve_executor

    kind = resolve_executor(_cli_value(args, "executor"), rs.executor.kind)
    tracer = TraceCollector()
    spans = Tracer() if args.out else None
    metrics = MetricsRegistry() if args.out else None
    exec_spans = ExecutorTrace() if args.out and kind == "process" else None
    executor = build_executor(
        rs, cli_kind=_cli_value(args, "executor"),
        cli_workers=_cli_value(args, "workers"),
        cli_kernel_backend=_cli_value(args, "kernel_backend"),
        exec_tracer=exec_spans,
    )
    impl = build_impl(
        rs, tracer=tracer, span_tracer=spans, metrics=metrics, executor=executor
    )
    try:
        result = impl.run()
    finally:
        executor.close()
    print(render_imbalance_timeline(tracer))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        trace_path = os.path.join(args.out, "trace.json")
        timeline_path = os.path.join(args.out, "timeline.txt")
        metrics_path = os.path.join(args.out, "metrics.json")
        write_chrome_trace(spans, trace_path)
        with open(timeline_path, "w", encoding="utf-8") as fh:
            fh.write(render_rank_timeline(spans))
            fh.write("\n")
        write_metrics(metrics, metrics_path)
        print(render_metrics_summary(metrics))
        print(f"wrote {trace_path} (open at https://ui.perfetto.dev)")
        print(f"wrote {timeline_path}")
        print(f"wrote {metrics_path}")
        if exec_spans is not None:
            exec_path = os.path.join(args.out, "executor_trace.json")
            write_executor_trace(exec_spans, exec_path)
            print(f"wrote {exec_path} (wall-clock worker spans)")
    print(result.verification)
    return 0 if result.verification.ok else 1


def _impl_from_snapshot(snapshot, args: argparse.Namespace):
    """Rebuild an implementation from *legacy* checkpoint metadata.

    Pre-RunSpec checkpoints carry loose ``impl``/``spec``/``params`` keys
    instead of an embedded ``runspec`` document; this path keeps them
    resumable.  New checkpoints go through :func:`_impl_from_runspec`.
    """
    from repro.resilience import (
        Checkpointer,
        FaultPlan,
        RecoveryPolicy,
        ResilienceConfig,
        StragglerWatch,
        spec_from_dict,
    )

    meta = snapshot.meta
    spec = spec_from_dict(meta["spec"])
    machine = MachineModel()
    cost = CostModel(
        machine=machine, particle_push_s=meta["cost"]["particle_push_s"]
    )
    rmeta = meta.get("resilience", {})
    plan = watch = recovery = checkpointer = None
    if rmeta.get("plan") is not None:
        plan = FaultPlan.from_dict(rmeta["plan"])
    if rmeta.get("watch") is not None:
        watch = StragglerWatch(snapshot.n_ranks, **rmeta["watch"])
    if rmeta.get("recovery") is not None:
        recovery = RecoveryPolicy(**rmeta["recovery"])
    every = int(rmeta.get("checkpoint_every", 0))
    if every > 0:
        checkpointer = Checkpointer(args.checkpoint_dir, every=every)
    resilience = ResilienceConfig(
        plan=plan, watch=watch, checkpointer=checkpointer,
        recovery=recovery, resume=snapshot,
    )

    from repro.config.env import (
        resolve_executor,
        resolve_kernel_backend,
        resolve_workers,
    )
    from repro.runtime.executor import make_executor

    executor = make_executor(
        resolve_executor(_cli_value(args, "executor")),
        workers=resolve_workers(_cli_value(args, "workers")),
        kernel_backend=resolve_kernel_backend(
            _cli_value(args, "kernel_backend")
        ),
    )
    params = meta.get("params", {})
    common = dict(
        machine=machine, cost=cost, dims=tuple(meta["dims"]),
        executor=executor, resilience=resilience,
    )
    impl_name = meta.get("impl")
    if impl_name == "mpi-2d":
        impl = Mpi2dPIC(spec, meta["n_cores"], **common)
    elif impl_name == "mpi-2d-LB":
        impl = Mpi2dLbPIC(spec, meta["n_cores"], **params, **common)
    elif impl_name == "ampi":
        impl = AmpiPIC(spec, meta["n_cores"], **params, **common)
    else:
        raise SystemExit(f"checkpoint names unknown implementation {impl_name!r}")
    return impl, executor, resilience


def _impl_from_runspec(snapshot, args: argparse.Namespace):
    """Rebuild the run from the checkpoint's embedded RunSpec document."""
    from repro.config.build import build_executor, build_impl

    rs = RunSpec.from_dict(snapshot.meta["runspec"])
    # The checkpoint directory is an IO location, not identity: the
    # resumed run keeps checkpointing into --checkpoint-dir.
    rs = rs.with_overrides(
        resilience=replace(rs.resilience, checkpoint_dir=args.checkpoint_dir)
    )
    executor = build_executor(
        rs, cli_kind=_cli_value(args, "executor"),
        cli_workers=_cli_value(args, "workers"),
        cli_kernel_backend=_cli_value(args, "kernel_backend"),
    )
    impl = build_impl(rs, executor=executor, resume=snapshot)
    return impl, executor, impl.resilience


def _check_resume_spec(args: argparse.Namespace, snapshot) -> int:
    """Validate --spec against the checkpoint's embedded RunSpec hash.

    Returns 0 when compatible; prints the differing identity fields and
    returns 2 when not.
    """
    from repro.config.build import canonical_runspec

    requested = canonical_runspec(RunSpec.load(args.spec))
    have_hash = snapshot.meta.get("runspec_hash")
    if have_hash is None:
        print(
            "error: checkpoint predates embedded RunSpecs and cannot be "
            "validated against --spec; resume it without --spec",
            file=sys.stderr,
        )
        return 2
    if requested.spec_hash() == have_hash:
        return 0
    embedded = RunSpec.from_dict(snapshot.meta["runspec"])
    print(
        "error: checkpoint was written by a different run configuration\n"
        f"  requested spec hash {requested.spec_hash()[:16]}… != "
        f"checkpoint {have_hash[:16]}…\n"
        "  differing fields:",
        file=sys.stderr,
    )
    for line in diff_docs(requested.identity_dict(), embedded.identity_dict()):
        print(f"    {line}", file=sys.stderr)
    return 2


def cmd_resume(args: argparse.Namespace) -> int:
    from repro.resilience import Snapshot

    snapshot = Snapshot.load(getattr(args, "from"))
    if getattr(args, "spec", None):
        rc = _check_resume_spec(args, snapshot)
        if rc != 0:
            return rc
    if snapshot.meta.get("runspec") is not None:
        impl, executor, resilience = _impl_from_runspec(snapshot, args)
    else:
        impl, executor, resilience = _impl_from_snapshot(snapshot, args)
    print(
        f"resuming {impl.name} at step {snapshot.next_step}/{impl.spec.steps} "
        f"({snapshot.n_ranks} ranks on {impl.n_cores} cores)"
    )
    try:
        result = impl.run()
    finally:
        executor.close()
    print(
        f"{result.implementation} on {result.n_cores} simulated cores: "
        f"{result.total_time:.4f}s simulated"
    )
    _report_resilience(resilience)
    print(result.verification)
    return 0 if result.verification.ok else 1


def cmd_resilience(args: argparse.Namespace) -> int:
    from repro.bench import resilience as bench_resilience

    print(f"resilience straggler bench (preset={args.preset}):")
    doc = bench_resilience.run_suite(args.preset)
    if args.out:
        bench_resilience.save_bench(doc, args.out)
        print(f"wrote {args.out}")
    failures = bench_resilience.check_gates(doc)
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if not failures:
        print("all gates passed")
    return 1 if failures else 0


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignSpec, FabricConfig, run_campaign

    campaign = CampaignSpec.load(args.declaration)
    fabric = FabricConfig(
        jobs=max(args.jobs, 1),
        io_batch=args.io_batch,
        heartbeat_timeout_s=args.heartbeat_timeout,
    )
    res = run_campaign(
        campaign,
        cache_dir=args.cache,
        jobs=args.jobs,
        force=args.force,
        progress=print,
        fabric=fabric,
    )
    summary = f"{len(res.outcomes)} points: {res.executed} executed, " \
        f"{res.cached} cached"
    if res.deduped:
        summary += f" ({res.deduped} deduplicated)"
    print(summary)
    if res.fabric and res.fabric.get("requeues"):
        print(
            f"fabric requeued {res.fabric['requeues']} point(s) after "
            f"{len(res.fabric['faults'])} worker fault(s)"
        )
    print(f"manifest: {res.manifest_path}")
    if args.expect_cached and res.executed:
        print(
            f"error: --expect-cached, but {res.executed} point(s) had to "
            "execute",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_multirun(args: argparse.Namespace) -> int:
    """Interleave several RunSpecs through one EngineGroup, one process.

    The demo entry point for the multiplexed engine core: N simulations
    time-slice over virtual time while sharing a single executor pool.
    Results are byte-identical to running each spec alone (the
    equivalence suite enforces it); only the wall-clock profile changes.
    """
    from repro.config.build import build_impl
    from repro.config.env import (
        resolve_executor,
        resolve_kernel_backend,
        resolve_workers,
    )
    from repro.instrument import write_engine_traces
    from repro.runtime.executor import make_executor
    from repro.runtime.multiplex import EngineGroup

    specs: list[tuple[str, RunSpec]] = []
    for path in args.specs:
        rs = RunSpec.load(path)
        stem = os.path.splitext(os.path.basename(path))[0]
        for copy in range(max(args.copies, 1)):
            if args.copies > 1:
                rs_i = rs.with_overrides(
                    workload=replace(rs.workload, seed=rs.workload.seed + copy)
                )
                specs.append((f"{stem}#{copy}", rs_i))
            else:
                specs.append((stem, rs))
    names = [name for name, _ in specs]
    if len(set(names)) != len(names):
        # Same file listed twice: disambiguate by position.
        specs = [(f"{name}@{i}", rs) for i, (name, rs) in enumerate(specs)]

    shared = make_executor(
        resolve_executor(_cli_value(args, "executor")),
        workers=resolve_workers(_cli_value(args, "workers")),
        kernel_backend=resolve_kernel_backend(_cli_value(args, "kernel_backend")),
    )
    tracers: dict[str, Tracer] = {}
    group = EngineGroup(
        policy=args.policy,
        slice_ticks=args.slice_ticks,
        order_seed=args.order_seed,
        executor=shared,
    )
    print(
        f"multiplexing {len(specs)} engines (policy={args.policy}, "
        f"slice={args.slice_ticks} ticks, executor={shared.name})"
    )
    ok = True
    try:
        for name, rs in specs:
            tracer = Tracer() if args.out else None
            if tracer is not None:
                tracers[name] = tracer
            impl = build_impl(
                rs, span_tracer=tracer, executor=group.handle(name)
            )
            group.add(name, impl.build_engine(engine_id=name))
        results = group.run_all()
        width = max(len(n) for n in results)
        for name in results:
            r = results[name]
            ok = ok and r.verification.ok
            mark = "ok" if r.verification.ok else "FAIL"
            print(
                f"  {name:<{width}}  {r.implementation} x{r.n_cores}: "
                f"{r.total_time:.4f}s simulated  [{mark}]"
            )
        stats = shared.tag_stats
        line = f"{group.slices} slices over {len(results)} engines"
        if stats:
            batches = sum(s["batches"] for s in stats.values())
            per_tag = ", ".join(
                f"{n}={stats[n]['tasks']}" for n in sorted(stats)
            )
            line += f"; shared pool ran {batches} batches (tasks: {per_tag})"
        print(line)
    finally:
        group.close()
    if args.out:
        for path in write_engine_traces(tracers, args.out):
            print(f"wrote {path}")
    return 0 if ok else 1


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.bench.figures import main as figures_main

    argv = [*args.names, "--out", args.out]
    if args.cache:
        argv += ["--cache", args.cache]
    return figures_main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pic-prk", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serial", help="run and verify the serial kernel")
    _add_spec_args(p)
    _add_spec_file_args(p)
    p.set_defaults(fn=cmd_serial)

    p = sub.add_parser("run", help="run one parallel implementation")
    _add_spec_args(p)
    _add_parallel_args(p)
    _add_resilience_args(p)
    _add_spec_file_args(p)
    p.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and print the top 20 by cumulative time",
    )
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "trace",
        help="run with tracing: imbalance timeline, plus span trace + "
        "metrics dumps with --out",
    )
    _add_spec_args(p)
    _add_parallel_args(p)
    _add_resilience_args(p)
    _add_spec_file_args(p)
    p.add_argument(
        "--out", metavar="DIR", default=None,
        help="also record spans + metrics and write trace.json "
        "(Chrome/Perfetto), timeline.txt and metrics.json into DIR",
    )
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "resume",
        help="continue a checkpointed run bitwise-identically to the "
        "uninterrupted one",
    )
    p.add_argument(
        "--from", required=True, metavar="FILE.ckpt",
        help="checkpoint file written by --checkpoint-every",
    )
    p.add_argument(
        "--checkpoint-dir", default="checkpoints", metavar="DIR",
        help="directory for the checkpoints the resumed run keeps taking",
    )
    _add_executor_args(p)
    p.add_argument(
        "--spec", metavar="FILE.json", default=None,
        help="require the checkpoint to match this RunSpec; a hash "
        "mismatch aborts, naming the differing fields",
    )
    p.set_defaults(fn=cmd_resume)

    p = sub.add_parser(
        "resilience",
        help="measure how much of a straggler-induced slowdown each "
        "implementation recovers and write BENCH_resilience.json",
    )
    p.add_argument("--preset", choices=["full", "smoke"], default="full")
    p.add_argument(
        "--out", default="benchmarks/BENCH_resilience.json", metavar="FILE",
        help="output JSON (empty string to skip writing)",
    )
    p.set_defaults(fn=cmd_resilience)

    p = sub.add_parser(
        "multirun",
        help="interleave several RunSpecs through one in-process "
        "EngineGroup sharing a single executor pool",
    )
    p.add_argument(
        "specs", nargs="+", metavar="SPEC.json",
        help="RunSpec files; each becomes one engine in the group",
    )
    p.add_argument(
        "--copies", type=int, default=1, metavar="N",
        help="run N seed-varied copies of every spec (workload seed += "
        "copy index)",
    )
    p.add_argument(
        "--policy", choices=["fair", "deadline"], default="fair",
        help="slice scheduling: round-robin over unfinished engines "
        "(fair) or always the engine furthest behind in virtual time "
        "(deadline)",
    )
    p.add_argument(
        "--slice-ticks", type=int, default=64, metavar="N",
        help="scheduler ticks granted per slice before rotating engines",
    )
    p.add_argument(
        "--order-seed", type=int, default=None, metavar="N",
        help="shuffle the fair policy's per-round engine order (results "
        "are interleaving-invariant; this only exercises that claim)",
    )
    _add_executor_args(p)
    p.add_argument(
        "--out", metavar="DIR", default=None,
        help="record per-engine span traces and write one namespaced "
        "trace-<engine>.json per engine into DIR",
    )
    p.set_defaults(fn=cmd_multirun)

    p = sub.add_parser("figures", help="regenerate the paper's figures")
    p.add_argument("names", nargs="+", choices=["fig5", "fig6l", "fig6r", "fig7"])
    p.add_argument("--out", default="benchmarks/results")
    p.add_argument(
        "--cache", default=None, metavar="DIR",
        help="persistent campaign cache (re-runs complete from cache)",
    )
    p.set_defaults(fn=cmd_figures)

    p = sub.add_parser(
        "campaign",
        help="run a declarative sweep with a content-addressed result cache",
    )
    p.add_argument(
        "declaration", metavar="DECL.json",
        help="campaign declaration (see docs/campaigns.md and "
        "benchmarks/campaigns/)",
    )
    p.add_argument(
        "--cache", default="benchmarks/campaign-cache", metavar="DIR",
        help="result cache directory (default: benchmarks/campaign-cache)",
    )
    p.add_argument(
        "--jobs", type=int, default=1,
        help="run uncached points across N persistent warm workers "
        "(the work-stealing fabric; see docs/campaigns.md)",
    )
    p.add_argument(
        "--io-batch", type=int, default=8, metavar="N",
        help="completed points buffered before artifacts + the streamed "
        "manifest are flushed with one grouped fsync (--jobs > 1 only)",
    )
    p.add_argument(
        "--heartbeat-timeout", type=float, default=120.0, metavar="SECONDS",
        help="declare a silent fabric worker lost (and requeue its "
        "point) after this many seconds without a heartbeat",
    )
    p.add_argument(
        "--force", action="store_true",
        help="re-execute even cached points (artifacts must reproduce "
        "byte-identically)",
    )
    p.add_argument(
        "--expect-cached", action="store_true",
        help="exit 1 if any point had to execute (CI determinism gate)",
    )
    p.set_defaults(fn=cmd_campaign)
    return parser


def _suppress_defaults(parser: argparse.ArgumentParser) -> None:
    """Make a parser record only explicitly-typed arguments.

    Used by main() on a second parser instance: parsing the same argv
    with every default suppressed yields a namespace whose keys are
    exactly the destinations the user typed — how --spec merging tells
    'flag left at its default' apart from 'flag typed'.
    """
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in set(action.choices.values()):
                _suppress_defaults(sub)
        elif action.default is not argparse.SUPPRESS:
            action.default = argparse.SUPPRESS
    parser._defaults.clear()


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    aux = build_parser()
    _suppress_defaults(aux)
    args._explicit = set(vars(aux.parse_args(argv)))
    from repro.core.kernel_compiled import CompiledKernelUnavailable

    try:
        return args.fn(args)
    except (ConfigError, CompiledKernelUnavailable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
