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
    pic-prk run     --impl ampi --faults plan.json --checkpoint-every 25
    pic-prk resume  --from checkpoints/ckpt_step000050.ckpt       # continue a run
    pic-prk resilience --preset smoke                             # straggler bench

Every run is configured through one declarative
:class:`repro.config.RunSpec`: the flags below build one, ``--spec FILE``
loads one (explicit flags override the file's values), and ``--dry-run``
prints the fully-resolved spec plus its content hash without running.
Executor backend, worker count and kernel backend resolve CLI >
``REPRO_EXECUTOR`` / ``REPRO_WORKERS`` / ``REPRO_KERNEL_BACKEND`` > spec
file > serial / 0 / auto (see :mod:`repro.config.env`).

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
from typing import Callable, NamedTuple, Sequence

from repro.config import (
    EXECUTOR_KINDS,
    KERNEL_BACKENDS,
    ConfigError,
    EnvConfigError,
    ExecutorConfig,
    RunSpec,
    apply_overrides,
    resolve_executor_config,
)
from repro.core.simulation import run_serial
from repro.core.spec import Distribution
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
from repro.parallel import DRIVERS


def _region(patch):
    """``--patch XLO XHI YLO YHI`` as a workload region document."""
    return None if patch is None else dict(zip(("x_lo", "x_hi", "y_lo", "y_hi"), patch))


def _fault_plan(path):
    """``--faults PLAN.json`` inlined into the spec."""
    from repro.resilience import FaultPlan

    return FaultPlan.load(path).to_dict() if path else None


class _Flag(NamedTuple):
    """One CLI flag that sets one RunSpec field."""

    flags: str  # option strings, space-separated
    path: str  # dotted RunSpec path
    kwargs: dict  # argparse kwargs, the CLI default included
    impl: str | None = None  # the one impl it applies to (None = all)
    convert: Callable | None = None  # parsed value -> spec value

    @property
    def dest(self) -> str:
        return self.flags.split()[0].lstrip("-").replace("-", "_")


#: Every flag that maps onto a RunSpec path, in ``--help`` order.  The CLI
#: defaults are not the schema's (``--cores 24``, ``--push-ns 3500`` vs the
#: cost model's 140 ns), so they live here, beside the path.
_FLAGS = (
    _Flag("--cells", "workload.cells",
          dict(type=int, default=128, help="mesh cells per side (even)")),
    _Flag("--particles", "workload.n_particles", dict(type=int, default=20_000)),
    _Flag("--steps", "workload.steps", dict(type=int, default=100)),
    _Flag("--dist", "workload.distribution",
          dict(choices=[d.value for d in Distribution],
               default=Distribution.GEOMETRIC.value)),
    _Flag("--r", "workload.r", dict(type=float, default=0.97, help="geometric ratio")),
    _Flag("--alpha", "workload.alpha", dict(type=float, default=1.0)),
    _Flag("--beta", "workload.beta", dict(type=float, default=3.0)),
    _Flag("--patch", "workload.patch",
          dict(type=int, nargs=4, metavar=("XLO", "XHI", "YLO", "YHI"),
               help="patch region in cells (for --dist patch)"), convert=_region),
    _Flag("--k", "workload.k",
          dict(type=int, default=0, help="drift multiplier: 2k+1 cells/step")),
    _Flag("--m", "workload.m_vertical",
          dict(type=int, default=0, help="vertical cells per step")),
    _Flag("--rotate90", "workload.rotate90", dict(nargs=0, const=True, default=False)),
    _Flag("--seed", "workload.seed", dict(type=int, default=42)),
    _Flag("--impl", "impl.name",
          dict(choices=list(DRIVERS), default="mpi-2d")),
    _Flag("--cores", "impl.cores", dict(type=int, default=24)),
    _Flag("--push-ns", "cost.particle_push_s",
          dict(type=float, default=3500.0,
               help="modelled particle push time in nanoseconds"),
          convert=lambda ns: ns * 1e-9),
    _Flag("--lb-interval", "impl.lb_interval", dict(type=int, default=2), "mpi-2d-LB"),
    _Flag("--border-width", "impl.border_width",
          dict(type=int, default=3), "mpi-2d-LB"),
    _Flag("--threshold", "impl.threshold_fraction",
          dict(type=float, default=0.02), "mpi-2d-LB"),
    _Flag("--axes", "impl.axes",
          dict(choices=["x", "y", "xy"], default="x"), "mpi-2d-LB"),
    _Flag("--overdecomposition -d", "impl.overdecomposition",
          dict(type=int, default=8), "ampi"),
    _Flag("--ampi-interval", "impl.lb_interval", dict(type=int, default=25), "ampi"),
    _Flag("--faults", "resilience.faults",
          dict(metavar="PLAN.json", default=None,
               help="activate a deterministic fault plan (see docs/resilience.md); "
               "also arms the straggler watch and a default recovery policy"),
          convert=_fault_plan),
    _Flag("--checkpoint-every", "resilience.checkpoint_every",
          dict(type=int, default=0, metavar="N",
               help="checkpoint the full simulation state every N steps (0 = off)")),
    _Flag("--checkpoint-dir", "resilience.checkpoint_dir",
          dict(default="checkpoints", metavar="DIR",
               help="directory for checkpoint files (default: checkpoints)")),
)


class _Typed(argparse.Action):
    """Store a table flag's value and record that it was typed: over a
    ``--spec`` file only typed flags apply, never argparse defaults."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, self.const if self.nargs == 0 else values)
        namespace.typed = {*getattr(namespace, "typed", ()), self.dest}


def _add_flags(p: argparse.ArgumentParser, *sections: str) -> None:
    """The table's flags whose RunSpec path lies in one of ``sections``."""
    for row in _FLAGS:
        if row.path.partition(".")[0] in sections:
            p.add_argument(*row.flags.split(), action=_Typed, **row.kwargs)


def _add_executor_args(p: argparse.ArgumentParser) -> None:
    """The executor / workers / kernel-backend flags, shared by every
    subcommand that builds an executor (run, trace, resume)."""
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


def _add_run_args(p: argparse.ArgumentParser) -> None:
    """Everything ``run`` and ``trace`` share."""
    _add_flags(p, "workload", "impl", "cost")
    _add_executor_args(p)
    _add_flags(p, "resilience")
    _add_spec_file_args(p)


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


# ----------------------------------------------------------------------
# CLI -> RunSpec
# ----------------------------------------------------------------------
def _runspec_from(args: argparse.Namespace, *, serial: bool = False) -> RunSpec:
    """The RunSpec this invocation describes.

    Without ``--spec`` every table flag applies, defaults included, over an
    empty document; with it the file is the base and only typed flags
    apply.  Either way a flag applies only to the impl it belongs to.
    """
    if args.spec:
        doc = RunSpec.load(args.spec).to_dict()
        apply = set(getattr(args, "typed", ()))
    else:
        doc = {"workload": {}, "impl": {}}
        apply = set(vars(args))
    if serial:
        # `pic-prk serial` runs the reference kernel whatever impl a file names.
        doc["impl"] = {"name": "serial"}
    elif "impl" in apply and args.impl != doc["impl"].get("name"):
        # The old impl's tunables would be rejected as not applicable: the
        # new impl's flags, defaults included, redefine the section (a
        # file's core count stays unless --cores was typed).
        doc["impl"] = {k: v for k, v in doc["impl"].items() if k == "cores"}
        apply |= {row.dest for row in _FLAGS if row.impl == args.impl}
    name = doc["impl"]["name"] if "impl" not in apply else args.impl
    over = {}
    for row in _FLAGS:
        if row.dest in apply and row.impl in (None, name):
            value = getattr(args, row.dest)
            over[row.path] = value if row.convert is None else row.convert(value)
    return RunSpec.from_dict(apply_overrides(doc, over))


def _executor_config(args: argparse.Namespace, rs: RunSpec):
    """The executor a command runs with: typed flags > env > ``rs`` > default."""
    typed = ExecutorConfig(
        kind=getattr(args, "executor", None),
        workers=getattr(args, "workers", None),
        kernel_backend=getattr(args, "kernel_backend", None),
    )
    return resolve_executor_config(typed, rs.executor)


def _print_resolved(args: argparse.Namespace, rs: RunSpec) -> int:
    """--dry-run: the fully-resolved spec (driver defaults filled in)."""
    from repro.config.build import canonical_runspec
    from repro.core.kernel_compiled import resolve_backend

    # The precedence chain yields the *request* (possibly "auto"); what a
    # run would actually execute is the concrete backend, so map through
    # resolve_backend — the same call build_executor makes — before
    # printing.  An unsatisfiable request (compiled without a C compiler)
    # fails here exactly as the real run would.
    cfg = _executor_config(args, rs)
    cfg = replace(cfg, kernel_backend=resolve_backend(cfg.kernel_backend))
    resolved = canonical_runspec(rs).with_overrides(executor=cfg)
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

    cfg = _executor_config(args, rs)
    if args.profile and cfg.kind == "process":
        print(
            "error: --profile cannot observe worker processes; cProfile only "
            "sees the parent, so the profile would be misleading. Use "
            "--executor serial (or batched) to profile, or drop --profile "
            "to measure the process backend (see docs/performance.md).",
            file=sys.stderr,
        )
        return 2
    executor = build_executor(rs, cli=cfg)
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

    if args.out:
        # Before the run, so a bad --out costs no simulation.
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            print(f"error: --out {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    cfg = _executor_config(args, rs)
    tracer = TraceCollector()
    spans = Tracer() if args.out else None
    metrics = MetricsRegistry() if args.out else None
    exec_spans = ExecutorTrace() if args.out and cfg.kind == "process" else None
    executor = build_executor(rs, cli=cfg, exec_tracer=exec_spans)
    impl = build_impl(
        rs, tracer=tracer, span_tracer=spans, metrics=metrics, executor=executor
    )
    try:
        result = impl.run()
    finally:
        executor.close()
    print(render_imbalance_timeline(tracer))
    if args.out:
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


def _check_resume_spec(spec_path: str, snapshot, rs: RunSpec) -> int:
    """Validate --spec against the checkpoint's embedded RunSpec hash.

    Returns 0 when compatible; prints the differing identity fields and
    returns 2 when not.
    """
    from repro.config.build import canonical_runspec

    requested = canonical_runspec(RunSpec.load(spec_path))
    have_hash = snapshot.meta["runspec_hash"]
    if requested.spec_hash() == have_hash:
        return 0
    print(
        "error: checkpoint was written by a different run configuration\n"
        f"  requested spec hash {requested.spec_hash()[:16]}… != "
        f"checkpoint {have_hash[:16]}…\n"
        "  differing fields:",
        file=sys.stderr,
    )
    for line in requested.diff_identity(rs):
        print(f"    {line}", file=sys.stderr)
    return 2


def cmd_resume(args: argparse.Namespace) -> int:
    from repro.config.build import build_executor, build_impl
    from repro.resilience.checkpoint import load_for_resume

    # The checkpoint directory is an IO location, not identity: the
    # resumed run keeps checkpointing into --checkpoint-dir.
    snapshot, rs = load_for_resume(getattr(args, "from"), args.checkpoint_dir)
    if args.spec:
        rc = _check_resume_spec(args.spec, snapshot, rs)
        if rc != 0:
            return rc
    executor = build_executor(rs, cli=_executor_config(args, rs))
    impl = build_impl(rs, executor=executor, resume=snapshot)
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
    _report_resilience(impl.resilience)
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


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.bench.figures import FIGURES, write_report

    for name in args.names:
        run, report = FIGURES[name]
        text = report(run(cache_dir=args.cache))
        print(text)
        print(f"[written to {write_report(name, text, args.out)}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pic-prk", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serial", help="run and verify the serial kernel")
    _add_flags(p, "workload")
    _add_spec_file_args(p)
    p.set_defaults(fn=cmd_serial)

    p = sub.add_parser("run", help="run one parallel implementation")
    _add_run_args(p)
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
    _add_run_args(p)
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


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.core.kernel_compiled import CompiledKernelUnavailable

    try:
        return args.fn(args)
    except (ConfigError, EnvConfigError, CompiledKernelUnavailable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
