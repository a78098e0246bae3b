"""Per-step trace collection and imbalance analysis."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class LbEvent:
    """One load-balancing action observed during a run."""

    step: int
    kind: str          # "diffusion" or "migrate"
    moved: int         # boundary columns moved / VPs migrated
    detail: str = ""


@dataclass
class TraceCollector:
    """Collects per-(step, rank) load samples and LB events.

    ``record`` is called by the rank programs once per step; the collector
    is outside the simulated world, so sampling is free in simulated time.
    """

    #: samples[step][rank] = particle count (dict-of-dict keeps sparse steps cheap)
    samples: dict[int, dict[int, int]] = field(default_factory=dict)
    cores: dict[int, dict[int, int]] = field(default_factory=dict)
    events: list[LbEvent] = field(default_factory=list)

    def record(self, rank: int, step: int, n_particles: int, core: int) -> None:
        self.samples.setdefault(step, {})[rank] = n_particles
        self.cores.setdefault(step, {})[rank] = core

    def record_event(self, event: LbEvent) -> None:
        self.events.append(event)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    @property
    def steps(self) -> list[int]:
        return sorted(self.samples)

    def n_ranks(self) -> int:
        if not self.samples:
            return 0
        return max(max(per_rank) for per_rank in self.samples.values()) + 1

    def load_matrix(self) -> np.ndarray:
        """(steps, ranks) matrix of per-rank particle counts."""
        steps = self.steps
        n = self.n_ranks()
        out = np.zeros((len(steps), n), dtype=np.int64)
        for i, step in enumerate(steps):
            for rank, count in self.samples[step].items():
                out[i, rank] = count
        return out

    def core_load_matrix(self) -> np.ndarray:
        """(steps, cores) matrix of per-core particle counts (sums VPs)."""
        steps = self.steps
        if not steps:
            return np.zeros((0, 0), dtype=np.int64)
        n_cores = 1 + max(
            core for per_rank in self.cores.values() for core in per_rank.values()
        )
        out = np.zeros((len(steps), n_cores), dtype=np.int64)
        for i, step in enumerate(steps):
            loads = self.samples[step]
            cores = self.cores[step]
            for rank, count in loads.items():
                out[i, cores[rank]] += count
        return out

    def imbalance_series(self) -> np.ndarray:
        """Max-over-mean per-core load for every sampled step."""
        m = self.core_load_matrix().astype(np.float64)
        if m.size == 0:
            return np.zeros(0)
        means = m.mean(axis=1)
        means[means == 0] = 1.0
        return m.max(axis=1) / means

    def migrations_total(self) -> int:
        return sum(e.moved for e in self.events if e.kind == "migrate")

    def boundary_moves_total(self) -> int:
        return sum(e.moved for e in self.events if e.kind == "diffusion")


def render_imbalance_timeline(
    tracer: TraceCollector, width: int = 72, height: int = 10
) -> str:
    """ASCII timeline of the imbalance ratio, with LB events marked."""
    series = tracer.imbalance_series()
    if len(series) == 0:
        return "(no samples)"
    steps = tracer.steps
    # Downsample to the display width.
    idx = np.linspace(0, len(series) - 1, min(width, len(series))).astype(int)
    values = series[idx]
    lo, hi = 1.0, max(float(values.max()), 1.0 + 1e-9)
    rows = []
    for level in range(height, 0, -1):
        threshold = lo + (hi - lo) * (level - 0.5) / height
        rows.append(
            f"{threshold:6.2f} |"
            + "".join("#" if v >= threshold else " " for v in values)
        )
    event_steps = {e.step for e in tracer.events}
    marks = "".join(
        "^" if steps[i] in event_steps else " " for i in idx
    )
    rows.append(" " * 7 + "+" + "-" * len(values))
    rows.append(" " * 8 + marks + "  (^ = LB event)")
    rows.append(
        f"        steps {steps[0]}..{steps[-1]}, imbalance max/mean "
        f"(1.0 = perfectly balanced)"
    )
    return "\n".join(rows)
