"""Compiled (C) backend for the fused particle-push hot loop.

:func:`repro.core.kernel.advance_arrays` is the repo's hottest code, and
as blocked numpy it still pays 44 ufunc dispatches per block on the PRK's
own populations (66 when a particle is off its row's axis).  This module
is the same loop as ~50 lines of C (:data:`_C_SOURCE`; it always computes
all four corners), built on first use
with the host's ``cc`` into a per-user cache directory, loaded through
:mod:`ctypes` and *bitwise identical* to the numpy path.  Nothing is
compiled, probed or loaded at import time or for a ``python`` request.

Why bitwise identity holds (and is enforced, not assumed — by the
self-check every load runs, ``tests/core/backend_conformance.py`` and
``tests/core/test_kernel_backend_properties.py``):

* ``-ffp-contract=off -fno-fast-math`` license no algebraic rewrite, so
  ``sx + sy`` cannot be contracted into an FMA; every ``+ - * /`` is an
  individually rounded IEEE-754 double op, exactly like numpy's.  The ISA
  flag (``-mavx2`` where ``/proc/cpuinfo`` lists it) moves speed, never a bit.
* The loop reproduces the reference *operation order*: pairwise corner
  accumulation ``(f00 + f01) + (f10 + f11)`` (which preserves the §III-D
  exact vertical-force cancellation at ``ry == h/2``), the
  left-associated integrator ``x + (vx*dt + ax*half_dt2)``, and
  ``half_dt2 = 0.5*dt*dt`` evaluated left to right.  A square shared by
  two corners is the same product whoever computes it.
* ``sqrt``/``floor`` are libm's under ``-fno-math-errno`` — correctly
  rounded / exact, same results as numpy.
* Column parity is branch-free, ``half = cx*0.5; odd = half != floor(half)``
  (halving moves only the exponent), and an odd column negates
  ``q*mesh_q``, which is ``q * (-mesh_q)`` exactly.
* The wrap pass is ``np.mod``: ``fmod``, ``+L`` on a negative remainder,
  ``+0.0`` on a zero one; ``np.mod(v, L) == v`` for ``0 < v < L``, so
  skipping those agrees with the reference's unconditional ``np.mod``.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
import time

import numpy as np

from repro.core import kernel
from repro.core.mesh import Mesh
from repro.core.particles import ParticleArray

__all__ = [
    "KERNEL_BACKENDS", "DEFAULT_KERNEL_BACKEND", "CompiledKernelUnavailable",
    "compiled_available", "resolve_backend", "advance_arrays_compiled", "warmup",
]

#: The values ``RunSpec.executor.kernel_backend`` / ``--kernel-backend`` /
#: ``REPRO_KERNEL_BACKEND`` may take.  ``auto`` resolves to ``compiled``
#: when the C kernel builds and loads and ``python`` otherwise.  This is the
#: one tuple of backend names; config, CLI and executor derive theirs from it.
KERNEL_BACKENDS = ("python", "compiled", "auto")

DEFAULT_KERNEL_BACKEND = "auto"

logger = logging.getLogger(__name__)

# Scalar transliteration of kernel.advance_reference; operation ORDER is
# load-bearing (module docstring).  The simd loop is branch-free so that it
# vectorises; the rare fmod wrap is a second pass over the still-hot block.
_C_SOURCE = r"""
#include <math.h>
#define BLOCK 1024
static double wrap(double v, double L) {
    if (v > 0.0 && v < L) return v;
    v = fmod(v, L);
    return v == 0.0 ? 0.0 : v < 0.0 ? v + L : v;
}
void repro_advance(long n, double *x, double *y, double *vx, double *vy,
                   const double *q, double dt, double h, double mesh_q, double L) {
    const double half_dt2 = 0.5 * dt * dt;
    for (long b = 0; b < n; b += BLOCK) {
        const long e = b + BLOCK < n ? b + BLOCK : n;
        #pragma omp simd
        for (long i = b; i < e; i++) {
            const double xi = x[i], yi = y[i];
            const double cx = floor(xi / h), cy = floor(yi / h);
            const double rx = xi - cx * h, ry = yi - cy * h;
            /* Charge parity: even columns attract left, odd repel. */
            const double half = cx * 0.5, qm = q[i] * mesh_q;
            const double ql = half != floor(half) ? -qm : qm, qr = -ql;
            const double rxm = rx - h, rym = ry - h;
            const double sx = rx * rx, sy = ry * ry;
            const double sxm = rxm * rxm, sym = rym * rym;
            double r2 = sx + sy, f = ql / (r2 * sqrt(r2));
            const double f00x = f * rx, f00y = f * ry;
            r2 = sx + sym;  f = ql / (r2 * sqrt(r2));
            const double f01x = f * rx, f01y = f * rym;
            r2 = sxm + sy;  f = qr / (r2 * sqrt(r2));
            const double f10x = f * rxm, f10y = f * ry;
            r2 = sxm + sym; f = qr / (r2 * sqrt(r2));
            const double f11x = f * rxm, f11y = f * rym;
            const double ax = (f00x + f01x) + (f10x + f11x);
            const double ay = (f00y + f01y) + (f10y + f11y);
            x[i] = xi + (vx[i] * dt + ax * half_dt2);
            y[i] = yi + (vy[i] * dt + ay * half_dt2);
            vx[i] = vx[i] + ax * dt;
            vy[i] = vy[i] + ay * dt;
        }
        for (long i = b; i < e; i++) {
            x[i] = wrap(x[i], L);
            y[i] = wrap(y[i], L);
        }
    }
}
"""

_CFLAGS = ("-O3 -fopenmp-simd -ffp-contract=off -fno-fast-math -fno-math-errno "
           "-fno-trapping-math -shared -fPIC").split()


class CompiledKernelUnavailable(RuntimeError):
    """``kernel_backend=compiled`` was requested but the C kernel cannot be
    built, loaded or trusted on this host; the message names what failed.
    Not a ``ConfigError`` (core imports without the config layer); the CLI
    catches both for a clean exit-2 diagnostic."""


def _cache_dir() -> str:
    """A directory only this user can write: the platform's per-user cache,
    or a private temp dir when that cannot be created, written or is not ours —
    never a predictable shared path another user could plant a library in."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    path = os.path.join(base, "repro")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.stat(path)
        ours = st.st_uid == os.getuid() and not st.st_mode & 0o022
        if ours and os.access(path, os.W_OK):
            return path
    except OSError:
        pass
    path = tempfile.mkdtemp(prefix="repro-kernel-")
    atexit.register(shutil.rmtree, path, ignore_errors=True)
    return path


def _build(cc: str, flags: list[str], path: str) -> None:
    """Compile beside ``path`` and rename: two racing workers both end with
    one valid library, and nothing half-written ever carries its name."""
    with tempfile.TemporaryDirectory(dir=os.path.dirname(path), suffix=".tmp") as tmp:
        out = os.path.join(tmp, "kernel.so")
        proc = subprocess.run(
            [cc, *flags, "-x", "c", "-", "-o", out, "-lm"],
            input=_C_SOURCE, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode:
            last = (proc.stderr.strip().splitlines() or ["no diagnostic"])[-1]
            raise CompiledKernelUnavailable(f"{cc} exited {proc.returncode}: {last}")
        os.replace(out, path)


def _load():
    """Find cached (or build), load and self-check the library; its entry point."""
    t0 = time.perf_counter()
    cc = shutil.which("cc")
    if cc is None:
        raise CompiledKernelUnavailable("no C compiler ('cc') on PATH")
    try:
        with open("/proc/cpuinfo") as f:
            flags = _CFLAGS + ["-mavx2"] * ("avx2" in f.read().split())
    except OSError:
        flags = _CFLAGS
    version = subprocess.run(
        [cc, "--version"], capture_output=True, text=True, timeout=30
    ).stdout
    key = hashlib.sha256("\0".join((_C_SOURCE, *flags, version)).encode())
    path = os.path.join(_cache_dir(), f"pic_kernel_{key.hexdigest()[:20]}.so")
    how = "cached"
    try:
        lib = ctypes.CDLL(path)
    except OSError:  # absent, or a truncated file under our name: build once
        how = "rebuilt" if os.path.exists(path) else "built"
        _build(cc, flags, path)
        lib = ctypes.CDLL(path)
    fn = lib.repro_advance
    fn.argtypes = [ctypes.c_long] + [ctypes.c_void_p] * 5 + [ctypes.c_double] * 4
    fn.restype = None
    # Self-check on a fixed population — both column parities, a wrap in each
    # direction on each axis, h, dt, q all != 1: a compiler that contracts to
    # FMA anyway makes the backend unavailable, never silently different.
    mesh, dt, n = Mesh(cells=4, h=0.73, q=2.5), 0.37, 64
    got = ParticleArray.empty(n)
    got.x[:], got.y[:] = np.random.default_rng(0).uniform(0.0, mesh.L, (2, n))
    got.vx[:] = np.tile([-30.0, 30.0, 0.1, -0.1], n // 4)
    got.vy[:] = np.tile([0.2, -0.2, -30.0, 30.0], n // 4)
    got.q[:] = np.tile([1.5, -1.5], n // 2)
    ref = got.copy()
    for _ in range(2):
        _call(fn, mesh, got.x, got.y, got.vx, got.vy, got.q, dt)
        kernel.advance_reference(mesh, ref, dt)
    if got.pack().tobytes() != ref.pack().tobytes():
        raise CompiledKernelUnavailable(
            f"self-check mismatch: {path} built by {cc} is not bitwise equal to "
            "the reference kernel")
    took = time.perf_counter() - t0
    logger.info("compiled kernel %s in %.3f s (%s): %s", how, took, cc, path)
    return fn


#: Memo of the one load attempt per process: None before it, then the
#: library's entry point or (a str) the reason there is none.
_LOADED = None


def _kernel():
    global _LOADED
    if _LOADED is None:
        try:
            _LOADED = _load()
        except (CompiledKernelUnavailable, OSError, subprocess.TimeoutExpired) as exc:
            _LOADED = str(exc)
            logger.info("compiled kernel unavailable (%s); kernel_backend=auto "
                        "uses the python kernel", _LOADED)
    if isinstance(_LOADED, str):
        raise CompiledKernelUnavailable(
            f"kernel_backend='compiled' is unavailable: {_LOADED}; use "
            "kernel_backend='auto' to fall back to the python kernel"
        )
    return _LOADED


def compiled_available() -> bool:
    """Whether the C kernel builds, loads and passes its self-check here."""
    return resolve_backend("auto") == "compiled"


def resolve_backend(name: str | None) -> str:
    """Resolve a backend request to a concrete one, ``python`` or ``compiled``.

    ``auto`` (and None) picks ``compiled`` when the library loads and falls
    back to ``python`` otherwise; the failed load logged its cause, once per
    process.  An explicit ``compiled`` that cannot be had raises
    :class:`CompiledKernelUnavailable` — only *auto* may degrade quietly.
    """
    if name is None:
        name = DEFAULT_KERNEL_BACKEND
    if name not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r} "
            f"(choose from {', '.join(KERNEL_BACKENDS)})"
        )
    if name != "python":
        try:
            _kernel()
            return "compiled"
        except CompiledKernelUnavailable:
            if name == "compiled":
                raise
    return "python"


def _call(fn, mesh, x, y, vx, vy, q, dt) -> None:
    n = x.shape[0]
    for a in (x, y, vx, vy, q):
        # A raw pointer carries no dtype, stride, length or write protection.
        ok = a.dtype == np.float64 and a.shape == (n,) and a.flags.c_contiguous
        if not ok or not (a.flags.writeable or a is q):
            raise ValueError(
                "the compiled kernel needs equal-length contiguous writable 1-D "
                f"float64 fields (got {a.dtype}, shape {a.shape}, strides "
                f"{a.strides}, writeable={a.flags.writeable})"
            )
    ptrs = [a.ctypes.data for a in (x, y, vx, vy, q)]
    fn(n, *ptrs, float(dt), float(mesh.h), float(mesh.q), float(mesh.L))


def advance_arrays_compiled(mesh, x, y, vx, vy, q, dt, workspace=None):
    """Compiled drop-in for :func:`repro.core.kernel.advance_arrays`: same
    signature (``workspace`` is ignored — the C loop needs no scratch rows),
    same in-place semantics, bitwise-equal results.  Raises
    :class:`CompiledKernelUnavailable` without a usable library and
    ``ValueError`` for a field it cannot take a pointer to."""
    _call(_kernel(), mesh, x, y, vx, vy, q, dt)


def warmup(backend: str) -> float:
    """Resolve ``backend`` (``auto`` too), loading the library — self-check
    push included — if it names one; returns the wall seconds, 0.0 for python.

    Worker processes call this before their ready handshake so the build
    (first ever per machine) or ``dlopen`` latency lands in
    ``jit_warmup_s`` / ``pool_startup_s`` — never inside a timed step.
    """
    if backend == "python":
        return 0.0
    t0 = time.perf_counter()
    resolve_backend(backend)
    return time.perf_counter() - t0
