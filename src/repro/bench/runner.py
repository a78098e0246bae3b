"""Single-configuration benchmark runner."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.core.spec import PICSpec
from repro.parallel import DRIVERS as IMPLEMENTATIONS
from repro.parallel.base import ParallelResult
from repro.runtime.costmodel import CostModel
from repro.runtime.machine import MachineModel


@dataclass
class RunRecord:
    """One (implementation, configuration) data point of a figure."""

    figure: str
    implementation: str
    cores: int
    sim_time: float
    wall_time: float
    verified: bool
    max_particles_per_core: int
    ideal_particles_per_core: float
    messages_sent: int
    bytes_sent: int
    params: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_result(
        cls,
        figure: str,
        result: ParallelResult,
        wall_time: float,
        params: dict | None = None,
    ) -> "RunRecord":
        return cls(
            figure=figure,
            implementation=result.implementation,
            cores=result.n_cores,
            sim_time=result.total_time,
            wall_time=wall_time,
            verified=result.verification.ok,
            max_particles_per_core=result.max_particles_per_core,
            ideal_particles_per_core=result.ideal_particles_per_core,
            messages_sent=result.messages_sent,
            bytes_sent=result.bytes_sent,
            params=dict(params or {}),
        )

    def as_row(self) -> dict[str, Any]:
        row = {
            "figure": self.figure,
            "impl": self.implementation,
            "cores": self.cores,
            "sim_time_s": round(self.sim_time, 6),
            "verified": self.verified,
            "max_ppc": self.max_particles_per_core,
        }
        row.update(self.params)
        return row


def run_implementation(
    figure: str,
    impl: str,
    spec: PICSpec,
    cores: int,
    machine: MachineModel,
    cost: CostModel,
    **impl_kwargs,
) -> RunRecord:
    """Run one implementation on one configuration and record the outcome.

    Raises if the self-verification fails — a benchmark number from a broken
    run must never silently enter a results table.
    """
    try:
        impl_cls = IMPLEMENTATIONS[impl]
    except KeyError:
        raise ValueError(
            f"unknown implementation {impl!r}; choose from {sorted(IMPLEMENTATIONS)}"
        ) from None
    t0 = time.perf_counter()
    result = impl_cls(spec, cores, machine=machine, cost=cost, **impl_kwargs).run()
    wall = time.perf_counter() - t0
    if not result.verification.ok:
        raise AssertionError(
            f"{impl} on {cores} cores failed verification: {result.verification}"
        )
    return RunRecord.from_result(figure, result, wall, params=impl_kwargs)


def serial_model_time(spec: PICSpec, cost: CostModel) -> float:
    """Simulated serial execution time (the speedup baseline of §V-B)."""
    return cost.push_time(spec.n_particles) * spec.steps
