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
3. **Graceful degradation** — with no C compiler, a failing one, a
   truncated cached library, an unwritable cache home or a self-check
   mismatch, ``compiled`` fails loudly naming the cause (or recovers),
   ``auto`` falls back to python with exactly one logged notice, and two
   processes racing to build end with one valid library.
4. **Identity exclusion** — ``kernel_backend`` does not participate in
   ``spec_hash``, and layers 1-2 are what make that exclusion sound.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import stat
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from tests.core.backend_conformance import (
    AVAILABLE_BACKENDS,
    BACKENDS,
    CKPT_EVERY,
    EXECUTORS,
    IMPLS,
    advance_arrays_backend,
    assert_bitwise_equal,
    assert_scenarios_identical,
    make_particles,
    requires_compiled,
    run_scenario,
)
from repro.config import ConfigError
from repro.config.runspec import ExecutorConfig, ImplConfig, RunSpec
from repro.core import kernel, kernel_compiled
from repro.core.kernel_compiled import (
    CompiledKernelUnavailable,
    compiled_available,
    resolve_backend,
)
from repro.core.mesh import Mesh
from repro.core.spec import PICSpec
from repro.runtime.executor import make_executor

B = kernel.KERNEL_BLOCK


# ----------------------------------------------------------------------
# 1. Kernel level
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mesh_q", [1.0, 2.5])
@pytest.mark.parametrize("dt", [0.05, 1.0])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("h", [1.0, 0.73])
@pytest.mark.parametrize("v_scale", [0.05, 4.0])
@pytest.mark.parametrize("n", [0, 1, 1000, B + 1])
class TestKernelConformance:
    def test_matches_reference_bitwise(self, backend, h, v_scale, n, dt, mesh_q):
        mesh = Mesh(cells=32, h=h, q=mesh_q)
        got = make_particles(n, mesh, v_scale=v_scale)
        ref = make_particles(n, mesh, v_scale=v_scale)
        for step in range(5):
            advance_arrays_backend(
                backend, mesh, got.x, got.y, got.vx, got.vy, got.q, dt
            )
            kernel.advance_reference(mesh, ref, dt)
            assert_bitwise_equal(
                got, ref,
                f"({backend}, h={h}, n={n}, dt={dt}, q={mesh_q}, step={step})",
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


@requires_compiled
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
        kernel_compiled.advance_arrays_compiled(
            mesh, p.x, p.y, p.vx, p.vy, p.q, 0.05
        )
        assert np.array_equal(p.y, [4.5, 0.5, 2.5])  # exact, no tolerance
        assert np.array_equal(p.vy, [0.0, 0.0, 0.0])


# ----------------------------------------------------------------------
# 2. Full-run matrix
# ----------------------------------------------------------------------
_MATRIX = [
    pytest.param(
        (impl_name, ex, workers, backend),
        id=f"{impl_name}-{ex}-{backend}",
        marks=() if backend == "python" else (requires_compiled,),
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
            for backend in AVAILABLE_BACKENDS:
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
# 3. Graceful degradation: real failures, on every host
# ----------------------------------------------------------------------
_MESH, _DT, _STEPS = Mesh(cells=8, h=0.73, q=2.5), 0.37, 3


def _pushed(compiled: bool) -> bytes:
    """One fixed population after ``_STEPS`` pushes, by either kernel."""
    p = make_particles(300, _MESH, seed=5, v_scale=4.0)
    for _ in range(_STEPS):
        if compiled:
            kernel_compiled.advance_arrays_compiled(
                _MESH, p.x, p.y, p.vx, p.vy, p.q, _DT
            )
        else:
            kernel.advance_reference(_MESH, p, _DT)
    return p.pack().tobytes()


def _push_matches_reference():
    assert _pushed(compiled=True) == _pushed(compiled=False)


def _loader_records(caplog):
    return [r for r in caplog.records if r.name == kernel_compiled.__name__]


def _assert_auto_falls_back_with_one_notice(caplog, cause):
    assert resolve_backend("auto") == "python"
    assert resolve_backend("auto") == "python"
    assert resolve_backend(None) == "python"
    assert not compiled_available()
    (notice,) = _loader_records(caplog)
    assert "compiled kernel unavailable" in notice.getMessage()
    assert cause in notice.getMessage()


@pytest.mark.usefixtures("no_compiler")
class TestWithoutCompiler:
    def test_explicit_compiled_names_the_cause(self):
        with pytest.raises(CompiledKernelUnavailable) as exc:
            resolve_backend("compiled")
        assert "no C compiler" in str(exc.value)
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
        _assert_auto_falls_back_with_one_notice(caplog, "no C compiler")

    def test_python_backend_unaffected(self):
        assert resolve_backend("python") == "python"


class TestBrokenBuilds:
    def test_failing_compiler_is_named_by_its_last_stderr_line(
        self, fresh_loader, monkeypatch, tmp_path, caplog
    ):
        cc = tmp_path / "bin" / "cc"
        cc.parent.mkdir()
        cc.write_text(
            "#!/bin/sh\n"
            '[ "$1" = --version ] && { echo "stub cc 1.0"; exit 0; }\n'
            'echo "stub: warming up" >&2\n'
            'echo "stub: cannot compile today" >&2\n'
            "exit 1\n"
        )
        cc.chmod(0o755)
        monkeypatch.setenv("PATH", str(cc.parent))
        with pytest.raises(CompiledKernelUnavailable) as exc:
            resolve_backend("compiled")
        assert "stub: cannot compile today" in str(exc.value)
        assert "warming up" not in str(exc.value)
        _assert_auto_falls_back_with_one_notice(caplog, "cannot compile today")
        assert not list(fresh_loader.glob("*.so"))

    @requires_compiled
    def test_truncated_cached_library_is_rebuilt_once(
        self, fresh_loader, monkeypatch, tmp_path, caplog
    ):
        """The truncated file is planted in a second cache directory under
        the name the first load produced — never truncate a library this
        process has mapped."""
        assert resolve_backend("compiled") == "compiled"
        (built,) = fresh_loader.glob("*.so")
        planted = tmp_path / "cache2" / "repro"
        planted.mkdir(parents=True, mode=0o700)
        (planted / built.name).write_bytes(built.read_bytes()[:100])
        monkeypatch.setattr(kernel_compiled, "_LOADED", None)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache2"))
        assert resolve_backend("compiled") == "compiled"
        _push_matches_reference()
        assert (planted / built.name).stat().st_size == built.stat().st_size
        monkeypatch.setattr(kernel_compiled, "_LOADED", None)
        assert resolve_backend("compiled") == "compiled"
        hows = [r.args[0] for r in _loader_records(caplog)]
        assert hows == ["built", "rebuilt", "cached"]

    @requires_compiled
    @pytest.mark.parametrize("how", ["cannot-be-created", "ours-but-read-only"])
    def test_unwritable_cache_home_uses_a_private_temp_dir(
        self, how, fresh_loader, monkeypatch, tmp_path, caplog
    ):
        if how == "cannot-be-created":
            blocker = tmp_path / "not-a-directory"
            blocker.write_text("")
            monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "cache"))
        else:
            # A read-only filesystem: access(2) says no even to root, whom a
            # mode-0o500 directory would not stop.
            fresh_loader.mkdir(parents=True, mode=0o700)
            access = os.access
            monkeypatch.setattr(
                os, "access",
                lambda p, mode, **kw: p != str(fresh_loader) and access(p, mode, **kw),
            )
        assert resolve_backend("auto") == "compiled"
        _push_matches_reference()
        (record,) = _loader_records(caplog)
        where = os.path.dirname(record.args[-1])
        assert record.args[0] == "built"
        assert os.path.dirname(where) == tempfile.gettempdir()
        st = os.stat(where)
        assert stat.S_IMODE(st.st_mode) == 0o700 and st.st_uid == os.getuid()

    @requires_compiled
    def test_cache_directory_is_private(self, fresh_loader):
        assert resolve_backend("compiled") == "compiled"
        assert stat.S_IMODE(fresh_loader.stat().st_mode) == 0o700
        assert len(list(fresh_loader.iterdir())) == 1

    @requires_compiled
    def test_self_check_mismatch_makes_the_backend_unavailable(
        self, fresh_loader, monkeypatch, caplog
    ):
        """Stand-in for a compiler that contracts to FMA anyway: the oracle
        the load compares against is nudged by one ulp."""
        reference = kernel.advance_reference

        def off_by_one_ulp(mesh, particles, dt):
            reference(mesh, particles, dt)
            particles.vx[0] = np.nextafter(particles.vx[0], np.inf)

        monkeypatch.setattr(kernel, "advance_reference", off_by_one_ulp)
        with pytest.raises(CompiledKernelUnavailable, match="self-check mismatch"):
            resolve_backend("compiled")
        with pytest.raises(CompiledKernelUnavailable, match="self-check mismatch"):
            make_executor("serial", kernel_backend="compiled")
        _assert_auto_falls_back_with_one_notice(caplog, "self-check mismatch")

    @requires_compiled
    def test_rejects_fields_it_cannot_take_a_pointer_to(self):
        mesh = Mesh(cells=8)
        p = make_particles(8, mesh)
        fields = dict(x=p.x, y=p.y, vx=p.vx, vy=p.vy, q=p.q)
        frozen = p.vx.copy()
        frozen.flags.writeable = False
        # strided, wrong dtype, shorter than the others, read-only
        for arr in (p.vx[::2], p.vx.astype(np.float32), p.vx[:4].copy(), frozen):
            with pytest.raises(ValueError, match="contiguous writable 1-D"):
                kernel_compiled.advance_arrays_compiled(
                    mesh, **{**fields, "vx": arr}, dt=0.05
                )


def _race_child(barrier, out):
    """One racing builder: load against the (empty) cache, push, report."""
    barrier.wait(timeout=30)
    out.put(_pushed(compiled=True))


@requires_compiled
def test_two_processes_racing_to_build_end_with_one_library(fresh_loader):
    # fork: the children inherit the forgotten memo and start at the barrier,
    # so both really reach the empty cache directory together (a spawned
    # child would load the library while importing this module).
    ctx = multiprocessing.get_context("fork")
    barrier, out = ctx.Barrier(2), ctx.Queue()
    procs = [ctx.Process(target=_race_child, args=(barrier, out)) for _ in range(2)]
    for proc in procs:
        proc.start()
    try:
        got = [out.get(timeout=60) for _ in procs]
    finally:
        for proc in procs:
            proc.join(timeout=30)
            if proc.is_alive():
                proc.kill()
    assert [proc.exitcode for proc in procs] == [0, 0]
    assert got == [_pushed(compiled=False)] * 2
    assert len(list(fresh_loader.glob("*.so"))) == 1
    assert [f.suffix for f in fresh_loader.iterdir()] == [".so"]


def test_python_requests_and_import_touch_no_compiler():
    """``import repro`` and every ``python`` path must neither spawn a
    process nor load a library: the layered workloads pin ``python``."""
    code = (
        "import ctypes, subprocess\n"
        "def boom(*a, **k): raise AssertionError('touched the compiler')\n"
        "subprocess.run = subprocess.Popen = ctypes.CDLL = boom\n"
        "import repro, repro.cli, repro.campaign.fabric\n"
        "from repro.core import kernel_compiled as kc\n"
        "from repro.runtime.executor import make_executor\n"
        "assert kc.resolve_backend('python') == 'python'\n"
        "assert kc.warmup('python') == 0.0\n"
        "make_executor('serial', kernel_backend='python').close()\n"
        "make_executor('serial').close()\n"
        "assert kc._LOADED is None\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


@requires_compiled
def test_auto_resolves_to_compiled():
    assert resolve_backend("auto") == "compiled"
    assert resolve_backend(None) == "compiled"


@requires_compiled
def test_explicit_requests_resolve_verbatim():
    assert resolve_backend("compiled") == "compiled"
    assert resolve_backend("python") == "python"


def test_unknown_backend_rejected():
    for name in ("fortran", "compiled-parallel"):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend(name)


def test_warmup_python_is_free():
    assert kernel_compiled.warmup("python") == 0.0


@requires_compiled
def test_warmup_compiled_returns_wall_seconds():
    assert kernel_compiled.warmup("compiled") >= 0.0


@requires_compiled
def test_warmup_auto_times_the_load_it_causes(fresh_loader, caplog):
    """The fabric worker's boot call: the build must land in ``jit_warmup_s``."""
    took = kernel_compiled.warmup("auto")
    (record,) = _loader_records(caplog)
    assert record.args[0] == "built" and took >= record.args[1] > 0.0


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
