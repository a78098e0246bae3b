"""Compiled (numba) backend for the fused particle-push hot loop.

:func:`repro.core.kernel.advance_arrays` is the repo's hottest code: a
blocked numpy implementation that tops out around 25M pushes/sec per
core because every step still pays 64 ufunc dispatches per block.  This
module provides a drop-in compiled implementation of the same loop — one
``numba.njit`` function, ``cache=True`` so the JIT cost is paid once per
machine, ``fastmath`` **off** so no algebraic rewrites are licensed — that
is *bitwise identical* to the numpy path.

Why bitwise identity holds (and is enforced, not assumed — see
``tests/core/backend_conformance.py`` and
``tests/core/test_kernel_backend_properties.py``):

* Without ``fastmath``, numba emits no LLVM fast-math/contract flags, so
  ``rx*rx + ry*ry`` cannot be contracted into an FMA; every ``+ - * /``
  is an individually rounded IEEE-754 double op, exactly like numpy's.
* The scalar loop reproduces the reference *operation order*: pairwise
  corner accumulation ``(f00 + f01) + (f10 + f11)`` (which preserves the
  §III-D exact vertical-force cancellation at ``ry == h/2``), the
  left-associated integrator ``x + (vx*dt + ax*half_dt2)``, and
  ``half_dt2 = 0.5*dt*dt`` evaluated left to right.
* ``math.sqrt``/``np.sqrt`` and ``np.floor`` lower to ``llvm.sqrt`` /
  ``llvm.floor`` — correctly rounded / exact, same results as numpy.
* numba's float ``%`` implements Python modulo semantics (fmod plus sign
  adjustment), which matches ``np.mod`` bit-for-bit, including the
  ``+0.0`` result on an exact-zero remainder; and ``np.mod(v, L) == v``
  for ``0 <= v < L``, so the conditional wrap below agrees with the
  reference's unconditional ``np.mod``.

Everything here degrades gracefully when numba is absent (it is an
optional dependency, installed via the ``repro[compiled]`` extra):
``HAVE_NUMBA`` is False, requesting ``kernel_backend=compiled`` raises
:class:`CompiledKernelUnavailable` naming the extra, and ``auto`` falls
back to the python backend with a single logged notice.
"""

from __future__ import annotations

import logging
import time

import numpy as np

from repro.core.mesh import Mesh

__all__ = [
    "KERNEL_BACKENDS",
    "DEFAULT_KERNEL_BACKEND",
    "COMPILED_EXTRA",
    "HAVE_NUMBA",
    "CompiledKernelUnavailable",
    "resolve_backend",
    "advance_arrays_compiled",
    "advance_compiled",
    "warmup",
]

#: The values ``RunSpec.executor.kernel_backend`` / ``--kernel-backend`` /
#: ``REPRO_KERNEL_BACKEND`` may take.  ``auto`` resolves to ``compiled``
#: when numba is importable and ``python`` otherwise.  This is the one
#: tuple of backend names; config, CLI and executor derive theirs from it.
KERNEL_BACKENDS = ("python", "compiled", "auto")

DEFAULT_KERNEL_BACKEND = "auto"

#: pip-install target that provides the compiled backend.
COMPILED_EXTRA = "repro[compiled]"

logger = logging.getLogger(__name__)

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the numba-less path is the tested one
    numba = None
    HAVE_NUMBA = False


class CompiledKernelUnavailable(RuntimeError):
    """``kernel_backend=compiled`` was requested but numba is not installed.

    Deliberately *not* a :class:`repro.config.ConfigError` subclass — the
    core package must stay importable without the config layer — but the
    CLI catches it alongside ConfigError for a clean exit-2 diagnostic.
    """

    def __init__(self, detail: str = "") -> None:
        msg = (
            "kernel_backend='compiled' requires numba, which is not "
            f"installed; pip install '{COMPILED_EXTRA}' to get it, or use "
            "kernel_backend='auto' to fall back to the python kernel"
        )
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)


_FALLBACK_LOGGED = False


def resolve_backend(name: str | None) -> str:
    """Resolve a backend request to a concrete backend.

    Concrete backends are ``python`` and ``compiled``.  ``auto`` (and
    None) picks ``compiled`` when numba is importable and otherwise falls
    back to ``python``, logging the fallback once per process.  An
    explicit ``compiled`` without numba raises
    :class:`CompiledKernelUnavailable` — asking for something that cannot
    run must be loud, only *auto* may degrade silently.
    """
    global _FALLBACK_LOGGED
    if name is None:
        name = DEFAULT_KERNEL_BACKEND
    if name not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r} "
            f"(choose from {', '.join(KERNEL_BACKENDS)})"
        )
    if name == "python":
        return "python"
    if name == "compiled":
        if not HAVE_NUMBA:
            raise CompiledKernelUnavailable()
        return name
    # auto
    if HAVE_NUMBA:
        return "compiled"
    if not _FALLBACK_LOGGED:
        logger.info(
            "kernel_backend=auto: numba not installed, using the python "
            "kernel (pip install '%s' for the compiled backend)",
            COMPILED_EXTRA,
        )
        _FALLBACK_LOGGED = True
    return "python"


if HAVE_NUMBA:  # pragma: no cover - requires the [compiled] extra

    @numba.njit(cache=True, fastmath=False, nogil=True)
    def _advance_numba(x, y, vx, vy, q, dt, h, mesh_q, L):
        # Scalar transliteration of kernel._advance_block /
        # kernel.advance_reference.  Operation ORDER is load-bearing:
        # every grouping below mirrors the numpy reference so each
        # intermediate rounds identically (module docstring has the full
        # bitwise argument).
        half_dt2 = 0.5 * dt * dt
        for i in range(x.shape[0]):
            xi = x[i]
            yi = y[i]
            cx = np.floor(xi / h)
            cy = np.floor(yi / h)
            rx = xi - cx * h
            ry = yi - cy * h
            # Charge parity: even columns attract left, odd repel.
            if (int(cx) & 1) == 0:
                ql = q[i] * mesh_q
            else:
                ql = q[i] * (-mesh_q)
            qr = -ql
            rxm = rx - h
            rym = ry - h
            r2 = rx * rx + ry * ry
            f = ql / (r2 * np.sqrt(r2))
            f00x = f * rx
            f00y = f * ry
            r2 = rx * rx + rym * rym
            f = ql / (r2 * np.sqrt(r2))
            f01x = f * rx
            f01y = f * rym
            r2 = rxm * rxm + ry * ry
            f = qr / (r2 * np.sqrt(r2))
            f10x = f * rxm
            f10y = f * ry
            r2 = rxm * rxm + rym * rym
            f = qr / (r2 * np.sqrt(r2))
            f11x = f * rxm
            f11y = f * rym
            ax = (f00x + f01x) + (f10x + f11x)
            ay = (f00y + f01y) + (f10y + f11y)
            xi = xi + (vx[i] * dt + ax * half_dt2)
            yi = yi + (vy[i] * dt + ay * half_dt2)
            vx[i] = vx[i] + ax * dt
            vy[i] = vy[i] + ay * dt
            if xi < 0.0 or xi >= L:
                xi = xi % L
            if yi < 0.0 or yi >= L:
                yi = yi % L
            x[i] = xi
            y[i] = yi


def advance_arrays_compiled(mesh, x, y, vx, vy, q, dt, workspace=None):
    """Compiled drop-in for :func:`repro.core.kernel.advance_arrays`.

    Same signature (``workspace`` is accepted and ignored — the compiled
    loop needs no scratch rows), same in-place semantics, bitwise-equal
    results.  Raises :class:`CompiledKernelUnavailable` without numba.
    """
    if not HAVE_NUMBA:
        raise CompiledKernelUnavailable("advance_arrays_compiled called")
    if x.shape[0] == 0:
        return
    _advance_numba(
        x, y, vx, vy, q,
        float(dt), float(mesh.h), float(mesh.q), float(mesh.L),
    )


def advance_compiled(mesh, particles, dt, workspace=None):
    """Compiled drop-in for :func:`repro.core.kernel.advance`."""
    advance_arrays_compiled(
        mesh, particles.x, particles.y, particles.vx, particles.vy,
        particles.q, dt, workspace,
    )


def warmup(backend: str, n: int = 256) -> float:
    """Force JIT compilation of the hot loop; returns the wall seconds spent.

    Worker processes call this before their ready handshake so the (first
    ever per machine, thanks to ``cache=True``) compilation latency lands
    in ``jit_warmup_s`` / ``pool_startup_s`` — never inside a timed step.
    For the python backend this is a no-op returning 0.0.
    """
    if backend != "compiled":
        return 0.0
    t0 = time.perf_counter()
    mesh = Mesh(cells=4)
    rng = np.random.default_rng(0)
    x = rng.uniform(0.1, mesh.L - 0.1, n)
    y = rng.uniform(0.1, mesh.L - 0.1, n)
    vx = np.zeros(n)
    vy = np.zeros(n)
    q = np.ones(n)
    advance_arrays_compiled(mesh, x, y, vx, vy, q, 1e-3)
    return time.perf_counter() - t0
