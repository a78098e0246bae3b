"""The single home of ``REPRO_EXECUTOR`` / ``REPRO_WORKERS`` /
``REPRO_KERNEL_BACKEND`` parsing.

Every consumer that needs a concrete executor — the CLI, the process-wide
:func:`repro.runtime.executor.default_executor`, the campaign fabric's warm
executors and :func:`repro.config.build.build_executor` — asks
:func:`resolve_executor_config`, which implements one documented
precedence chain, field by field::

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

#: ``serial`` and ``batched`` are two names for the one in-process executor.
#: The one tuple of executor kinds; RunSpec validation and the CLI's
#: ``choices`` read it (backend names: ``kernel_compiled.KERNEL_BACKENDS``).
EXECUTOR_KINDS = ("serial", "batched", "process")

#: ExecutorConfig field -> (environment variable, built-in default).
_CHAIN = {
    "kind": ("REPRO_EXECUTOR", "serial"),
    "workers": ("REPRO_WORKERS", 0),
    "kernel_backend": ("REPRO_KERNEL_BACKEND", DEFAULT_KERNEL_BACKEND),
}


class EnvConfigError(ValueError):
    """An environment variable holds an unusable value."""


def _from_env(field: str, environ: Mapping[str, str]):
    """The validated value of ``field``'s variable, or None if unset/blank."""
    name = _CHAIN[field][0]
    raw = (environ.get(name) or "").strip()
    if not raw:
        return None
    if field == "workers":
        try:
            workers = int(raw)
        except ValueError:
            raise EnvConfigError(
                f"{name}={raw!r} is not an integer worker count"
            ) from None
        if workers < 0:
            raise EnvConfigError(f"{name} must be >= 0, got {workers}")
        return workers
    label, choices = (
        ("executor", EXECUTOR_KINDS) if field == "kind"
        else ("kernel backend", KERNEL_BACKENDS)
    )
    if raw not in choices:
        raise EnvConfigError(
            f"{name}={raw!r} is not a valid {label}; "
            f"choose from {', '.join(choices)}"
        )
    return raw


def resolve_executor_config(cli=None, spec=None, *, environ=None):
    """The complete :class:`~repro.config.runspec.ExecutorConfig` to run with.

    ``cli`` (the typed flags) and ``spec`` (a spec's executor section) are
    ExecutorConfigs or None; each field resolves CLI > environment > spec >
    built-in default on its own.  The kernel backend comes back as a
    *request* (possibly ``auto``): mapping it onto a concrete backend, and
    erroring when ``compiled`` cannot build, is
    :func:`repro.core.kernel_compiled.resolve_backend`'s job.
    """
    from repro.config.runspec import ExecutorConfig

    environ = os.environ if environ is None else environ
    resolved = {}
    for field, (_, default) in _CHAIN.items():
        value = getattr(cli, field, None)
        if value is None:
            value = _from_env(field, environ)
        if value is None:
            value = getattr(spec, field, None)
        resolved[field] = default if value is None else value
    return ExecutorConfig(**resolved)
