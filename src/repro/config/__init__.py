"""Unified run configuration: the declarative :class:`RunSpec` layer.

* :mod:`repro.config.runspec` — the typed dataclass tree (workload, impl,
  machine, cost, executor, resilience) with schema validation,
  JSON round-trip and a canonical content hash;
* :mod:`repro.config.env` — the single home of the ``REPRO_EXECUTOR`` /
  ``REPRO_WORKERS`` / ``REPRO_KERNEL_BACKEND`` environment knobs and of
  :func:`resolve_executor_config`, their one precedence chain;
* :mod:`repro.config.build` — resolves a RunSpec into live objects
  (imported lazily by consumers; not re-exported here to keep this
  package import-light for the drivers that derive RunSpecs).
"""

from repro.config.env import (
    EXECUTOR_KINDS,
    KERNEL_BACKENDS,
    EnvConfigError,
    resolve_executor_config,
)
from repro.config.runspec import (
    SCHEMA_VERSION,
    ConfigError,
    CostConfig,
    ExecutorConfig,
    ImplConfig,
    MachineConfig,
    ResilienceSpec,
    RunSpec,
    apply_overrides,
    canonical_json,
    diff_docs,
)

__all__ = [
    "ConfigError",
    "CostConfig",
    "EXECUTOR_KINDS",
    "KERNEL_BACKENDS",
    "EnvConfigError",
    "ExecutorConfig",
    "ImplConfig",
    "MachineConfig",
    "ResilienceSpec",
    "RunSpec",
    "SCHEMA_VERSION",
    "apply_overrides",
    "canonical_json",
    "diff_docs",
    "resolve_executor_config",
]
