"""Unified run configuration: the declarative :class:`RunSpec` layer.

* :mod:`repro.config.runspec` — the typed dataclass tree (workload, impl,
  machine, cost, executor, resilience, tracing) with schema validation,
  JSON round-trip and a canonical content hash;
* :mod:`repro.config.env` — the single home of the ``REPRO_EXECUTOR`` /
  ``REPRO_WORKERS`` environment knobs and their precedence chain;
* :mod:`repro.config.build` — resolves a RunSpec into live objects
  (imported lazily by consumers; not re-exported here to keep this
  package import-light for the drivers that derive RunSpecs).
"""

from repro.config.env import (
    DEFAULT_EXECUTOR,
    DEFAULT_KERNEL_BACKEND,
    DEFAULT_WORKERS,
    ENV_EXECUTOR,
    ENV_KERNEL_BACKEND,
    ENV_WORKERS,
    EXECUTOR_KINDS,
    KERNEL_BACKENDS,
    EnvConfigError,
    env_executor,
    env_kernel_backend,
    env_workers,
    resolve_executor,
    resolve_kernel_backend,
    resolve_workers,
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
    TracingConfig,
    apply_overrides,
    canonical_json,
    diff_docs,
)

__all__ = [
    "ConfigError",
    "CostConfig",
    "DEFAULT_EXECUTOR",
    "DEFAULT_KERNEL_BACKEND",
    "DEFAULT_WORKERS",
    "ENV_EXECUTOR",
    "ENV_KERNEL_BACKEND",
    "ENV_WORKERS",
    "EXECUTOR_KINDS",
    "KERNEL_BACKENDS",
    "EnvConfigError",
    "ExecutorConfig",
    "ImplConfig",
    "MachineConfig",
    "ResilienceSpec",
    "RunSpec",
    "SCHEMA_VERSION",
    "TracingConfig",
    "apply_overrides",
    "canonical_json",
    "diff_docs",
    "env_executor",
    "env_kernel_backend",
    "env_workers",
    "resolve_executor",
    "resolve_kernel_backend",
    "resolve_workers",
]
