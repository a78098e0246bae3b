"""The single home of ``REPRO_EXECUTOR`` / ``REPRO_WORKERS`` /
``REPRO_KERNEL_BACKEND`` parsing.

Every consumer of the executor environment knobs — the CLI, the
process-wide :func:`repro.runtime.executor.default_executor`, and the
RunSpec resolution in :mod:`repro.config.build` — goes through the
``resolve_*`` functions below, which implement one documented precedence
chain::

    CLI flag  >  environment variable  >  spec file  >  built-in default

(A value of ``None`` at any level means "not set here, fall through".)
The environment deliberately outranks a spec file: a CI matrix leg that
exports ``REPRO_EXECUTOR=process`` must be able to drive *every* run in
the job through the process pool, including runs whose spec files were
written with the serial default.  Results are bitwise identical across
backends (pinned by tests/parallel/test_executor_determinism.py), so the
override can never change what a run computes — only how fast it runs.
"""

from __future__ import annotations

import os
from typing import Mapping

from repro.core.kernel_compiled import DEFAULT_KERNEL_BACKEND, KERNEL_BACKENDS

ENV_EXECUTOR = "REPRO_EXECUTOR"
ENV_WORKERS = "REPRO_WORKERS"
ENV_KERNEL_BACKEND = "REPRO_KERNEL_BACKEND"

#: ``serial`` and ``batched`` are two names for the one in-process executor.
#: The one tuple of executor kinds; RunSpec validation and the CLI's
#: ``choices`` read it (backend names: ``kernel_compiled.KERNEL_BACKENDS``).
EXECUTOR_KINDS = ("serial", "batched", "process")

DEFAULT_EXECUTOR = "serial"
DEFAULT_WORKERS = 0


class EnvConfigError(ValueError):
    """An environment variable holds an unusable value."""


def env_executor(environ: Mapping[str, str] | None = None) -> str | None:
    """``REPRO_EXECUTOR`` as a validated executor kind, or None if unset."""
    environ = os.environ if environ is None else environ
    raw = (environ.get(ENV_EXECUTOR) or "").strip()
    if not raw:
        return None
    if raw not in EXECUTOR_KINDS:
        raise EnvConfigError(
            f"{ENV_EXECUTOR}={raw!r} is not a valid executor; "
            f"choose from {', '.join(EXECUTOR_KINDS)}"
        )
    return raw


def env_workers(environ: Mapping[str, str] | None = None) -> int | None:
    """``REPRO_WORKERS`` as a non-negative int, or None if unset."""
    environ = os.environ if environ is None else environ
    raw = (environ.get(ENV_WORKERS) or "").strip()
    if not raw:
        return None
    try:
        workers = int(raw)
    except ValueError:
        raise EnvConfigError(
            f"{ENV_WORKERS}={raw!r} is not an integer worker count"
        ) from None
    if workers < 0:
        raise EnvConfigError(f"{ENV_WORKERS} must be >= 0, got {workers}")
    return workers


def env_kernel_backend(environ: Mapping[str, str] | None = None) -> str | None:
    """``REPRO_KERNEL_BACKEND`` as a validated backend name, or None if unset."""
    environ = os.environ if environ is None else environ
    raw = (environ.get(ENV_KERNEL_BACKEND) or "").strip()
    if not raw:
        return None
    if raw not in KERNEL_BACKENDS:
        raise EnvConfigError(
            f"{ENV_KERNEL_BACKEND}={raw!r} is not a valid kernel backend; "
            f"choose from {', '.join(KERNEL_BACKENDS)}"
        )
    return raw


def resolve_executor(
    cli: str | None = None,
    spec: str | None = None,
    *,
    default: str = DEFAULT_EXECUTOR,
    environ: Mapping[str, str] | None = None,
) -> str:
    """Resolve the executor kind with CLI > env > spec > default precedence."""
    if cli is not None:
        return cli
    from_env = env_executor(environ)
    if from_env is not None:
        return from_env
    if spec is not None:
        return spec
    return default


def resolve_kernel_backend(
    cli: str | None = None,
    spec: str | None = None,
    *,
    default: str = DEFAULT_KERNEL_BACKEND,
    environ: Mapping[str, str] | None = None,
) -> str:
    """Resolve the kernel backend with CLI > env > spec > default precedence.

    Returns one of ``python``/``compiled``/``auto``; mapping ``auto`` onto
    a concrete backend (and erroring when ``compiled`` is requested without
    a C compiler) is :func:`repro.core.kernel_compiled.resolve_backend`'s job.
    """
    if cli is not None:
        return cli
    from_env = env_kernel_backend(environ)
    if from_env is not None:
        return from_env
    if spec is not None:
        return spec
    return default


def resolve_workers(
    cli: int | None = None,
    spec: int | None = None,
    *,
    default: int = DEFAULT_WORKERS,
    environ: Mapping[str, str] | None = None,
) -> int:
    """Resolve the worker count with CLI > env > spec > default precedence."""
    if cli is not None:
        return cli
    from_env = env_workers(environ)
    if from_env is not None:
        return from_env
    if spec is not None:
        return spec
    return default

