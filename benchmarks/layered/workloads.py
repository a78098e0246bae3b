"""The eight named workloads of the layered benchmark.

Each workload is generated from ``(seed, scale)`` into plain RunSpec /
campaign *documents* (:meth:`Workload.docs`) — the measured program only
ever sees those documents — and then driven through one cycle of

    ``setup(docs, tmp)`` -> ``timed(state)`` -> checks -> ``teardown(state)``

by :func:`run.cycle`.  ``timed`` contains exactly the program's own drive
call (``engine.run()``, ``run_campaign()``, ``EngineGroup.run_all()``);
everything else is set-up or tear-down and is reported as such.

Why each workload exists (which layer does most of the work, and which
does almost none) is recorded in its ``why`` string and, with the measured
shares, in README.md.  Sizes are for ``kernel_backend: "python"`` on a
2-vCPU sandbox and give a ~3 s timed region each.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any

#: ``--scale`` divisors: "smoke" divides steps and counts by ~20.
SCALES = {"full": 1, "smoke": 20}

#: Worker processes beside the driver: the ISSUE caps them at two.
NPROC = os.cpu_count() or 1
WORKERS = min(2, NPROC)


def _div(value: int, scale: int, floor: int = 1) -> int:
    return max(floor, value // scale)


def _runspec(seed, *, cells, n, steps, impl, executor=None, workload=None,
             resilience=None) -> dict:
    """One RunSpec document; the kernel backend is pinned to ``python``
    (``auto`` silently switches to numba where it is installed)."""
    doc = {
        "workload": {"cells": cells, "n_particles": n, "steps": steps,
                     "seed": seed, **(workload or {})},
        "impl": impl,
        "executor": {"kind": "serial", "kernel_backend": "python",
                     **(executor or {})},
    }
    if resilience:
        doc["resilience"] = resilience
    return doc


@dataclass
class Outcome:
    """What one timed region produced, reduced to comparable facts."""

    #: Deterministic result documents (must repeat exactly across cycles).
    docs: Any
    #: Particle pushes delivered (executed, or served from cache).
    pushes: int
    #: Operations (runs / campaign points) attempted and failed.
    attempted: int
    failed: int
    #: Simulated seconds of the modelled machine (sum over runs).
    sim_time_s: float
    #: Exact counts printed beside the metrics (must repeat exactly).
    counts: dict
    #: Wall-clock or host-dependent facts for the per-layer metrics.
    facts: dict = field(default_factory=dict)


class Workload:
    name = "?"
    why = "?"

    def docs(self, seed: int, scale: int) -> dict:
        raise NotImplementedError

    def setup(self, docs: dict, tmp: str, hooks: dict) -> Any:
        raise NotImplementedError

    def timed(self, state) -> Any:
        raise NotImplementedError

    def outcome(self, state, raw) -> Outcome:
        raise NotImplementedError

    def teardown(self, state) -> None:
        raise NotImplementedError

    def probe(self, state, docs: dict, tmp: str, wall_s: float) -> dict:
        """Extra per-layer metrics that need runs of their own.

        Called once per traced run, on the *untraced* reference cycle
        (nothing is patched yet), before its tear-down; ``wall_s`` is that
        cycle's timed region, the base of any ratio returned.
        """
        return {}


def _timed_run(workload, docs, tmp, hooks=None) -> float:
    """Wall seconds of one more timed region of ``workload`` on ``docs``."""
    state = workload.setup(docs, tmp, hooks or {})
    try:
        t0 = time.perf_counter()
        raw = workload.timed(state)
        wall = time.perf_counter() - t0
        if workload.outcome(state, raw).failed:
            raise RuntimeError(f"{workload.name}: probe run failed verification")
    finally:
        workload.teardown(state)
    return wall


# ----------------------------------------------------------------------
# Single-engine workloads
# ----------------------------------------------------------------------
def _result_outcome(results, engines, executor) -> Outcome:
    """Outcome of the finished ``ParallelResult`` of each of ``engines``."""
    from repro.config.build import parallel_result_doc

    first = results[0]
    return Outcome(
        docs=[parallel_result_doc(r) for r in results],
        pushes=sum(ret.pushes for r in results for ret in r.rank_returns),
        attempted=len(results),
        failed=sum(1 for r in results if not r.verification.ok),
        sim_time_s=sum(r.total_time for r in results),
        counts={
            "messages": sum(r.messages_sent for r in results),
            "collectives": sum(r.collectives for r in results),
            "bytes": sum(r.bytes_sent for r in results),
            "ticks": sum(e.ticks for e in engines),
        },
        facts={
            "executor": executor.stats(),
            "final_imbalance": first.max_particles_per_core / first.ideal_particles_per_core,
        },
    )


class EngineWorkload(Workload):
    """One RunSpec, one engine, ``engine.run()`` as the timed region."""

    def setup(self, docs, tmp, hooks):
        from repro.config.build import build_executor, build_impl
        from repro.config.runspec import RunSpec

        rs = RunSpec.from_dict(docs["runspec"])
        # Only the process pool reports through an ExecutorTrace; handing
        # one to the serial executor would switch it onto its metered loop.
        exec_tracer = hooks.get("exec_tracer") if rs.executor.kind == "process" else None
        executor = build_executor(rs, exec_tracer=exec_tracer)
        if hasattr(executor, "ensure_ready"):
            # Pool start-up is set-up, never timed-region, work.
            executor.ensure_ready()
        impl = build_impl(rs, executor=executor, tracer=hooks.get("tracer"),
                          span_tracer=hooks.get("span_tracer"),
                          metrics=hooks.get("metrics"))
        return {"rs": rs, "executor": executor, "impl": impl,
                "engine": impl.build_engine()}

    def timed(self, state):
        return state["engine"].run()

    def outcome(self, state, raw):
        return _result_outcome([raw], [state["engine"]], state["executor"])

    def teardown(self, state):
        state["executor"].close()


class PushHeavy(EngineWorkload):
    name = "push_heavy"
    why = ("1 core, 1M particles: core.kernel is ~98% of the timed region and "
           "scheduler/exchange ~0, so a kernel win shows here and a pump win must not")

    def docs(self, seed, scale):
        return {"runspec": _runspec(
            seed, cells=288, n=_div(1_000_000, scale), steps=_div(60, scale, 2),
            impl={"name": "mpi-2d", "cores": 1})}

    def probe(self, state, docs, tmp, wall_s):
        """The kernel alone: ``advance`` called directly, 8 steps."""
        from repro.core import kernel
        from repro.core.initialization import initialize

        impl = state["impl"]
        particles = initialize(impl.spec, impl.mesh)
        t0 = time.perf_counter()
        for _ in range(8):
            kernel.advance(impl.mesh, particles, impl.spec.dt)
        rate = 8 * len(particles) / (time.perf_counter() - t0)
        return {"kernel.micro_pushes_per_s": rate}


class PumpHeavy(EngineWorkload):
    name = "pump_heavy"
    why = ("64 cores x 250 particles: per-op fixed costs (generator sends, messages, "
           "collectives) dominate; exchange ~60%, scheduler pump ~20%, kernel ~20%")

    def docs(self, seed, scale):
        return {"runspec": _runspec(
            seed, cells=288, n=_div(16_000, scale), steps=_div(270, scale, 2),
            impl={"name": "mpi-2d", "cores": 64})}

    def probe(self, state, docs, tmp, wall_s):
        """The same run with repro.instrument attached, over one without."""
        from repro.instrument import MetricsRegistry, Tracer

        plain = _timed_run(self, docs, tmp)
        traced = _timed_run(self, docs, tmp, {"span_tracer": Tracer(),
                                              "metrics": MetricsRegistry()})
        return {"instrument.on_wall_ratio": traced / plain}


class ExchangeLb(EngineWorkload):
    name = "exchange_lb"
    why = ("8 cores, 600k fast particles, diffusion LB every 4 steps: O(n) exchange work "
           "with many leavers and moving boundaries (compact/pack/extend), kernel ~30%")

    def docs(self, seed, scale):
        return {"runspec": _runspec(
            seed, cells=288, n=_div(600_000, scale), steps=_div(32, scale, 4),
            workload={"k": 2, "m_vertical": 2},
            impl={"name": "mpi-2d-LB", "cores": 8, "lb_interval": 4,
                  "border_width": 3, "threshold_fraction": 0.02})}


class PoolDispatch(EngineWorkload):
    name = "pool_dispatch"
    why = ("16 ranks x 1M particles over the process executor (ring dispatch, <=2 workers): "
           "runtime.executor dispatch + completion wait; setup_s carries pool start-up")

    def docs(self, seed, scale):
        return {"runspec": _runspec(
            seed, cells=288, n=_div(1_000_000, scale), steps=_div(40, scale, 2),
            impl={"name": "mpi-2d", "cores": 16},
            executor={"kind": "process", "workers": WORKERS, "dispatch": "ring"})}

    def probe(self, state, docs, tmp, wall_s):
        """The single-threaded baseline: the same spec on the serial executor."""
        doc = dict(docs["runspec"], executor={"kind": "serial", "kernel_backend": "python"})
        return {"executor.speedup_vs_serial": _timed_run(self, {"runspec": doc}, tmp) / wall_s}


class ChurnCkpt(EngineWorkload):
    name = "churn_ckpt"
    why = ("ampi d=4 with an injection, a removal and three checkpoints, then a resume leg: "
           "resilience.checkpoint write and read, ampi.pup, events, ParticleArray growth")

    def docs(self, seed, scale):
        steps = _div(192, scale, 6)
        every = steps // 3
        n = _div(60_000, scale)
        events = [
            {"kind": "inject", "step": steps // 4, "count": n,
             "region": {"x_lo": 0, "x_hi": 48, "y_lo": 0, "y_hi": 48}},
            {"kind": "remove", "step": 2 * every, "fraction": 0.5,
             "region": {"x_lo": 96, "x_hi": 192, "y_lo": 0, "y_hi": 288}},
        ]
        return {
            "runspec": _runspec(
                seed, cells=288, n=n, steps=steps,
                workload={"distribution": "uniform", "events": events},
                impl={"name": "ampi", "cores": 4, "overdecomposition": 4,
                      "lb_interval": 5},
                resilience={"checkpoint_every": every}),
            "resume_step": 2 * every,
        }

    def setup(self, docs, tmp, hooks):
        doc = dict(docs["runspec"])
        doc["resilience"] = {**doc["resilience"],
                             "checkpoint_dir": os.path.join(tmp, "ckpt")}
        state = super().setup({"runspec": doc}, tmp, hooks)
        state.update(resume_step=docs["resume_step"], hooks=hooks,
                     ckpt=os.path.join(tmp, "ckpt"),
                     ckpt2=os.path.join(tmp, "ckpt-resumed"))
        return state

    def timed(self, state):
        from repro.resilience import checkpoint

        first = state["engine"].run()
        cut = os.path.join(state["ckpt"], f"ckpt_step{state['resume_step']:06d}.ckpt")
        # Module-attribute call so the traced pass sees the resume.
        state["resumed"] = checkpoint.resume_engine(
            cut, checkpoint_dir=state["ckpt2"], executor=state["executor"],
            tracer=state["hooks"].get("tracer"),
        )
        return first, state["resumed"].run()

    def outcome(self, state, raw):
        first, resumed = raw
        out = _result_outcome([first, resumed], [state["engine"], state["resumed"]],
                              state["executor"])
        # The resumed leg's counters restart from the cut's, so its own
        # pushes are the steps after the cut times the population, which
        # is constant there (the removal fires at the cut step itself).
        steps = state["rs"].workload.steps
        tail = (steps - state["resume_step"]) * sum(resumed.particles_per_core.values())
        out.pushes = sum(r.pushes for r in first.rank_returns) + tail
        final = f"ckpt_step{steps:06d}.ckpt"
        with open(os.path.join(state["ckpt"], final), "rb") as a, \
                open(os.path.join(state["ckpt2"], final), "rb") as b:
            match = a.read() == b.read()
        if not match or out.docs[0] != out.docs[1]:
            out.failed = max(out.failed, 1)
        files = [os.path.join(d, f) for d in (state["ckpt"], state["ckpt2"])
                 for f in sorted(os.listdir(d))]
        out.counts.update(
            resume_bytes_match=int(match), checkpoint_files=len(files),
            checkpoint_bytes=sum(os.path.getsize(f) for f in files))
        return out


# ----------------------------------------------------------------------
# Campaign workloads
# ----------------------------------------------------------------------
def _campaign_pushes(points) -> int:
    """Event-free points conserve their population: pushes = n * steps."""
    return sum(p.spec.workload.n_particles * p.spec.workload.steps for p in points)


class CampaignWorkload(Workload):
    jobs = 1

    def setup(self, docs, tmp, hooks):
        from repro.campaign import CampaignSpec

        campaign = CampaignSpec.from_dict(docs["campaign"])
        return {"campaign": campaign, "points": campaign.expand(),
                "cache": os.path.join(tmp, "cache"), "passes": docs["passes"]}

    def timed(self, state):
        from repro.campaign import runner

        # Closed loop: the next pass starts when the previous one returns.
        return [
            runner.run_campaign(state["campaign"], cache_dir=state["cache"],
                                jobs=self.jobs, runner="fabric")
            for _ in range(state["passes"])
        ]

    def _expected(self, state) -> tuple[int, int]:
        """(executed, cached) every timed pass must report."""
        raise NotImplementedError

    def outcome(self, state, raw):
        points = state["points"]
        want = self._expected(state)
        failed = 0
        for res in raw:
            bad = sum(1 for o in res.outcomes if not o.result.get("verified"))
            if (res.executed, res.cached) != want or len(res.outcomes) != len(points):
                bad = len(points)
            failed += bad
        last = raw[-1]
        return Outcome(
            docs=[o.result for o in last.outcomes],
            pushes=_campaign_pushes(points) * len(raw),
            attempted=len(points) * len(raw),
            failed=failed,
            sim_time_s=sum(o.result["sim_time_s"] for o in last.outcomes),
            counts={"points": len(points), "passes": len(raw),
                    "executed": sum(r.executed for r in raw),
                    "cached": sum(r.cached for r in raw),
                    "messages": sum(o.result["messages_sent"] for o in last.outcomes),
                    "collectives": sum(o.result["collectives"] for o in last.outcomes),
                    "artifact_bytes": sum(
                        e.stat().st_size for e in os.scandir(state["cache"])
                        if not e.name.endswith(".manifest.json")),
                    "requeues": sum((r.fabric or {}).get("requeues", 0) for r in raw)},
            facts={"jobs": self.jobs, "fabric_busy_s": sum(
                w["busy_s"] for r in raw for w in (r.fabric or {}).get("workers", ()))},
        )

    def probe(self, state, docs, tmp, wall_s):
        """The warm path's two primitives, called directly on the filled cache."""
        from repro.campaign import CacheIndex
        from repro.config.build import canonical_hash

        specs = [p.spec for p in state["points"]]
        t0 = time.perf_counter()
        hashes = [canonical_hash(rs) for rs in specs]
        t1 = time.perf_counter()
        index = CacheIndex(state["cache"])
        if any(index.lookup(h) is None for h in hashes):
            raise RuntimeError(f"{self.name}: cache probe missed a finished point")
        t2 = time.perf_counter()
        return {"config.canonical_hash_us": 1e6 * (t1 - t0) / len(specs),
                "campaign.cache_us_per_lookup": 1e6 * (t2 - t1) / len(specs)}

    def teardown(self, state):
        pass  # the cache lives under the cycle's temp root


def _sweep(name, seed, *, seeds, axes, base) -> dict:
    return {
        "schema": 1, "campaign": name, "base": base,
        "axes": [{"axis": "seed", "path": "workload.seed",
                  "values": [seed * 1000 + i for i in range(seeds)]}, *axes],
    }


class SweepCold(CampaignWorkload):
    name = "sweep_cold"
    why = ("24 uncached points over the work-stealing fabric (<=2 workers, empty cache): "
           "campaign.fabric scheduling, warm workers, artifact writes, streamed manifest")
    jobs = WORKERS

    def docs(self, seed, scale):
        impls = [
            {"label": "mpi-2d", "set": {"impl.name": "mpi-2d"}},
            {"label": "mpi-2d-LB", "set": {"impl.name": "mpi-2d-LB"}},
            {"label": "ampi", "set": {"impl.name": "ampi", "impl.overdecomposition": 4}},
        ]
        cores = [4, 16] if scale == 1 else [4]
        return {"passes": 1, "campaign": _sweep(
            "sweep-cold", seed, seeds=_div(4, scale, 2),
            axes=[{"axis": "cores", "path": "impl.cores", "values": cores},
                  {"axis": "impl", "values": impls}],
            base=_runspec(seed, cells=96, n=_div(20_000, scale), steps=_div(48, scale, 2),
                          impl={"name": "mpi-2d", "cores": 4}))}

    def _expected(self, state):
        return len(state["points"]), 0


class SweepCached(CampaignWorkload):
    name = "sweep_cached"
    why = ("256 tiny points populated during set-up, then closed-loop all-cached passes: the "
           "campaign layer as a reader (expand, canonical hashing, CacheIndex, artifact load)")

    def docs(self, seed, scale):
        sizes = [200, 400, 800, 1600]
        return {"passes": _div(70, scale, 2), "campaign": _sweep(
            "sweep-cached", seed, seeds=_div(64, scale, 4),
            axes=[{"axis": "n", "path": "workload.n_particles", "values": sizes}],
            base=_runspec(seed, cells=32, n=200, steps=2,
                          impl={"name": "mpi-2d", "cores": 4}))}

    def setup(self, docs, tmp, hooks):
        from repro.campaign import run_campaign

        state = super().setup(docs, tmp, hooks)
        populated = run_campaign(state["campaign"], cache_dir=state["cache"], jobs=1)
        if populated.executed != len(state["points"]):
            raise RuntimeError("cache pre-population did not execute every point")
        return state

    def _expected(self, state):
        return 0, len(state["points"])


# ----------------------------------------------------------------------
# Multiplexed engines
# ----------------------------------------------------------------------
class Multiplex32(Workload):
    name = "multiplex_32"
    why = ("32 seed-varied engines time-sliced by one fair EngineGroup over one shared batched "
           "executor: runtime.multiplex slicing and cross-engine batching")

    def docs(self, seed, scale):
        engines = _div(32, scale, 4)
        return {
            "order_seed": seed,
            "runspecs": [
                _runspec(seed * 1000 + i, cells=64, n=_div(4_000, scale, 400),
                         steps=_div(100, scale, 4),
                         impl={"name": "mpi-2d", "cores": 4},
                         executor={"kind": "batched"})
                for i in range(engines)
            ],
        }

    def setup(self, docs, tmp, hooks):
        from repro.config.build import build_executor, build_impl
        from repro.config.runspec import RunSpec
        from repro.runtime.multiplex import EngineGroup

        specs = [RunSpec.from_dict(d) for d in docs["runspecs"]]
        group = EngineGroup(policy="fair", slice_ticks=64,
                            order_seed=docs["order_seed"],
                            executor=build_executor(specs[0]))
        for i, rs in enumerate(specs):
            tag = f"e{i}"
            impl = build_impl(rs, executor=group.handle(tag))
            group.add(tag, impl.build_engine(engine_id=tag))
        return {"group": group, "specs": specs}

    def timed(self, state):
        return state["group"].run_all()

    def outcome(self, state, raw):
        group = state["group"]
        out = _result_outcome([raw[n] for n in group], [group.engine(n) for n in group],
                              group.executor)
        out.counts.update(slices=group.slices, engines=len(group))
        return out

    def probe(self, state, docs, tmp, wall_s):
        """The same engines driven one after another with ``run()``."""
        from repro.config.build import build_executor, build_impl

        sequential = 0.0
        for rs in state["specs"]:
            with build_executor(rs) as executor:
                engine = build_impl(rs, executor=executor).build_engine()
                t0 = time.perf_counter()
                engine.run()
                sequential += time.perf_counter() - t0
        return {"multiplex.seq_ratio": sequential / wall_s}

    def teardown(self, state):
        state["group"].close()


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        PushHeavy(), PumpHeavy(), ExchangeLb(), ChurnCkpt(), PoolDispatch(),
        SweepCold(), SweepCached(), Multiplex32(),
    )
}
