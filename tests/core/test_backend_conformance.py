"""Cross-backend bitwise conformance suite (tentpole of the kernel-backend PR).

Built on :mod:`tests.core.backend_conformance`.  Four layers of claims:

1. **Kernel level** — the compiled ``advance_arrays`` is bit-for-bit
   equal to the python fused path *and* the textbook ``advance_reference``,
   across mesh spacings, velocity regimes, block seams and pooled
   (capacity-managed view) buffers.
2. **Full-run matrix** — every implementation (mpi-2d, mpi-2d-LB, ampi)
   under every executor (serial, batched, process) under every backend
   (python, compiled) produces identical positions,
   checksums, simulated clocks, golden traces and checkpoint files.
3. **Graceful degradation** — without numba, ``compiled`` fails loudly
   naming the ``repro[compiled]`` extra, ``auto`` falls back to python
   with exactly one logged notice, and the whole suite still passes
   (compiled legs skip).
4. **Identity exclusion** — ``kernel_backend`` does not participate in
   ``spec_hash``, and layers 1-2 are what make that exclusion sound.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from tests.core.backend_conformance import (
    BACKENDS,
    CKPT_EVERY,
    EXECUTORS,
    IMPLS,
    advance_arrays_backend,
    assert_bitwise_equal,
    assert_scenarios_identical,
    make_particles,
    requires_numba,
    run_scenario,
)
from repro.config import ConfigError
from repro.config.runspec import ExecutorConfig, ImplConfig, RunSpec
from repro.core import kernel, kernel_compiled
from repro.core.kernel_compiled import (
    COMPILED_EXTRA,
    HAVE_NUMBA,
    CompiledKernelUnavailable,
    resolve_backend,
)
from repro.core.mesh import Mesh
from repro.core.spec import PICSpec
from repro.runtime.executor import make_executor

B = kernel.KERNEL_BLOCK


# ----------------------------------------------------------------------
# 1. Kernel level
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("h", [1.0, 0.73])
@pytest.mark.parametrize("v_scale", [0.05, 4.0])
@pytest.mark.parametrize("n", [0, 1, 1000, B + 1])
class TestKernelConformance:
    def test_matches_reference_bitwise(self, backend, h, v_scale, n):
        mesh = Mesh(cells=32, h=h)
        got = make_particles(n, mesh, v_scale=v_scale)
        ref = make_particles(n, mesh, v_scale=v_scale)
        for step in range(5):
            advance_arrays_backend(
                backend, mesh, got.x, got.y, got.vx, got.vy, got.q, 0.05
            )
            kernel.advance_reference(mesh, ref, 0.05)
            assert_bitwise_equal(
                got, ref, f"({backend}, h={h}, n={n}, step={step})"
            )
        assert got.id_checksum() == ref.id_checksum()


@pytest.mark.parametrize("backend", BACKENDS)
def test_pooled_buffers_conform(backend):
    """The kernel must be exact on capacity-managed *views*, not just on
    freshly-allocated arrays: grow a container through the amortized-
    doubling path so every field is a prefix view into a larger backing
    array, then push through the backend under test."""
    mesh = Mesh(cells=16)
    pooled = make_particles(300, mesh, seed=3, v_scale=2.0)
    pooled.reserve(5000)  # capacity >> n: fields become prefix views
    pooled.extend(make_particles(137, mesh, seed=4, v_scale=2.0))
    ref = pooled.copy()  # compact owning arrays, same logical content
    for step in range(4):
        advance_arrays_backend(
            backend, mesh, pooled.x, pooled.y, pooled.vx, pooled.vy,
            pooled.q, 0.1,
        )
        kernel.advance_reference(mesh, ref, 0.1)
        assert_bitwise_equal(pooled, ref, f"({backend}, pooled, step={step})")


@pytest.mark.parametrize("backend", BACKENDS)
def test_workspace_argument_accepted(backend):
    """Both backends take (and the compiled one ignores) a workspace, so
    call sites can thread one unconditionally."""
    mesh = Mesh(cells=8)
    ws = kernel.KernelWorkspace()
    got = make_particles(500, mesh, seed=9)
    ref = make_particles(500, mesh, seed=9)
    advance_arrays_backend(
        backend, mesh, got.x, got.y, got.vx, got.vy, got.q, 0.05,
        workspace=ws,
    )
    kernel.advance_reference(mesh, ref, 0.05)
    assert_bitwise_equal(got, ref, f"({backend}, workspace)")


@requires_numba
def test_vertical_force_cancellation_compiled():
    """§III-D: the compiled pairwise accumulation must preserve the exact
    mirror-image cancellation at mid-cell height, like the fused path."""
    from repro.core.particles import ParticleArray

    mesh = Mesh(cells=8)
    p = ParticleArray.empty(3)
    p.x[:] = [4.5, 0.25, 7.9]
    p.y[:] = [4.5, 0.5, 2.5]  # all at ry == h/2
    p.q[:] = [1.0, -2.0, 3.0]
    p.vx[:] = 0.5
    for _ in range(20):
        kernel_compiled.advance_compiled(mesh, p, 0.05)
        assert np.array_equal(p.y, [4.5, 0.5, 2.5])  # exact, no tolerance
        assert np.array_equal(p.vy, [0.0, 0.0, 0.0])


# ----------------------------------------------------------------------
# 2. Full-run matrix
# ----------------------------------------------------------------------
_AVAILABLE = ["python"] + (["compiled"] if HAVE_NUMBA else [])

_MATRIX = [
    pytest.param(
        (impl_name, ex, workers, backend),
        id=f"{impl_name}-{ex}-{backend}",
        marks=() if backend == "python" else (requires_numba,),
    )
    for impl_name, _cls, _params in IMPLS
    for ex, workers in EXECUTORS
    for backend in ("python", "compiled")
]
#: Cells compared against their impl's serial/python reference cell.
_OTHER = [
    p
    for p in _MATRIX
    if (p.values[0][1], p.values[0][3]) != ("serial", "python")
]


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    out = {}
    for impl_name, cls, params in IMPLS:
        for ex, workers in EXECUTORS:
            for backend in _AVAILABLE:
                ckpt = tmp_path_factory.mktemp(
                    f"ckpt-{impl_name}-{ex}-{backend}"
                )
                out[(impl_name, ex, backend)] = run_scenario(
                    cls, params, ex, workers, backend, ckpt
                )
    return out


@pytest.mark.parametrize("cell", _OTHER)
def test_full_run_conforms_to_serial_python(matrix, cell):
    impl_name, ex, _workers, backend = cell
    ref = matrix[(impl_name, "serial", "python")]
    got = matrix[(impl_name, ex, backend)]
    assert_scenarios_identical(ref, got, f"in cell {cell}")


def test_verification_identical_across_implementations(matrix):
    """Same workload ⇒ same global verification regardless of topology or
    balancing strategy; pins that the matrix cells above really ran the
    same problem."""
    ref = matrix[(IMPLS[0][0], "serial", "python")]
    for impl_name, _cls, _params in IMPLS[1:]:
        got = matrix[(impl_name, "serial", "python")]
        for key in ("id_checksum", "n_particles", "max_abs_error"):
            assert got[key] == ref[key], f"{key} diverged for {impl_name}"


def test_auto_backend_end_to_end(matrix, tmp_path):
    """``auto`` must land bitwise on the reference whichever concrete
    backend it resolves to on this host."""
    impl_name, cls, params = IMPLS[0]
    got = run_scenario(cls, params, "serial", 0, "auto", tmp_path)
    assert_scenarios_identical(
        matrix[(impl_name, "serial", "python")], got, "in the auto cell"
    )


# ----------------------------------------------------------------------
# 3. Graceful degradation (both directions, via monkeypatched HAVE_NUMBA)
# ----------------------------------------------------------------------
class TestWithoutNumba:
    @pytest.fixture(autouse=True)
    def _no_numba(self, monkeypatch):
        monkeypatch.setattr(kernel_compiled, "HAVE_NUMBA", False)
        monkeypatch.setattr(kernel_compiled, "_FALLBACK_LOGGED", False)

    def test_explicit_compiled_raises_naming_the_extra(self):
        with pytest.raises(CompiledKernelUnavailable) as exc:
            resolve_backend("compiled")
        assert COMPILED_EXTRA in str(exc.value)
        assert "auto" in str(exc.value)  # points at the escape hatch

    def test_executor_construction_fails_eagerly(self):
        """A compiled request dies at make_executor time, not mid-run."""
        for name in ("serial", "batched", "process"):
            with pytest.raises(CompiledKernelUnavailable):
                make_executor(name, workers=2, kernel_backend="compiled")

    def test_advance_arrays_compiled_raises(self):
        mesh = Mesh(cells=8)
        p = make_particles(4, mesh)
        with pytest.raises(CompiledKernelUnavailable):
            kernel_compiled.advance_arrays_compiled(
                mesh, p.x, p.y, p.vx, p.vy, p.q, 0.05
            )

    def test_auto_falls_back_and_logs_exactly_once(self, caplog):
        with caplog.at_level(logging.INFO, logger=kernel_compiled.__name__):
            assert resolve_backend("auto") == "python"
            assert resolve_backend("auto") == "python"
            assert resolve_backend(None) == "python"
        notices = [r for r in caplog.records if COMPILED_EXTRA in r.message]
        assert len(notices) == 1

    def test_python_backend_unaffected(self):
        assert resolve_backend("python") == "python"


class TestWithNumba:
    @pytest.fixture(autouse=True)
    def _with_numba(self, monkeypatch):
        monkeypatch.setattr(kernel_compiled, "HAVE_NUMBA", True)

    def test_auto_resolves_to_compiled(self):
        assert resolve_backend("auto") == "compiled"
        assert resolve_backend(None) == "compiled"

    def test_explicit_requests_resolve_verbatim(self):
        assert resolve_backend("compiled") == "compiled"
        assert resolve_backend("python") == "python"


def test_unknown_backend_rejected():
    for name in ("fortran", "compiled-parallel"):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend(name)


def test_warmup_python_is_free():
    assert kernel_compiled.warmup("python") == 0.0


@requires_numba
def test_warmup_compiled_returns_wall_seconds():
    assert kernel_compiled.warmup("compiled") >= 0.0


# ----------------------------------------------------------------------
# 4. spec_hash exclusion
# ----------------------------------------------------------------------
def _runspec(**executor_kw):
    return RunSpec(
        workload=PICSpec(cells=32, n_particles=600, steps=8),
        impl=ImplConfig(name="mpi-2d", cores=4),
        executor=ExecutorConfig(**executor_kw),
    )


def test_kernel_backend_excluded_from_spec_hash():
    """The backend can never change what a run computes (layers 1-2 above),
    so it must not change the run's identity: cached results and
    checkpoints stay valid across backends."""
    hashes = {
        _runspec(kernel_backend=kb).spec_hash()
        for kb in (None, "python", "compiled", "auto")
    }
    assert len(hashes) == 1
    # ... while identity-relevant knobs do move the hash.
    base = _runspec(kernel_backend="python")
    different = RunSpec(
        workload=PICSpec(cells=32, n_particles=600, steps=9),
        impl=base.impl,
        executor=base.executor,
    )
    assert different.spec_hash() != base.spec_hash()


def test_kernel_backend_round_trips_through_runspec_doc():
    rs = _runspec(kind="process", workers=2, kernel_backend="compiled")
    doc = rs.to_dict()
    assert doc["executor"]["kernel_backend"] == "compiled"
    assert RunSpec.from_dict(doc).executor.kernel_backend == "compiled"
    assert "executor" not in rs.identity_dict()


def test_executor_config_validates_kernel_backend():
    with pytest.raises(ConfigError):
        ExecutorConfig(kernel_backend="fortran")
