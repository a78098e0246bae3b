"""Tests for REPRO_EXECUTOR / REPRO_WORKERS / REPRO_KERNEL_BACKEND and the
one precedence chain they sit in (``resolve_executor_config``)."""

import pytest

from repro.config import ExecutorConfig
from repro.config.env import EnvConfigError, resolve_executor_config


def _env(**variables):
    """The executor config the environment alone yields (nothing typed)."""
    return resolve_executor_config(environ=variables)


class TestEnvParsing:
    def test_unset_is_none(self):
        # Unset variables fall through to the spec, then the defaults.
        spec = ExecutorConfig(kind="process", workers=3)
        assert resolve_executor_config(None, spec, environ={}) == ExecutorConfig(
            kind="process", workers=3, kernel_backend="auto"
        )

    def test_empty_and_whitespace_are_none(self):
        assert _env(REPRO_EXECUTOR="").kind == "serial"
        assert _env(REPRO_EXECUTOR="  ").kind == "serial"
        assert _env(REPRO_WORKERS="").workers == 0

    def test_valid_values(self):
        for kind in ("serial", "batched", "process"):
            assert _env(REPRO_EXECUTOR=kind).kind == kind
        assert _env(REPRO_WORKERS="4").workers == 4
        assert _env(REPRO_WORKERS="0").workers == 0

    def test_invalid_executor_raises(self):
        with pytest.raises(EnvConfigError, match="gpu"):
            _env(REPRO_EXECUTOR="gpu")

    def test_invalid_workers_raise(self):
        with pytest.raises(EnvConfigError, match="integer"):
            _env(REPRO_WORKERS="many")
        with pytest.raises(EnvConfigError, match=">= 0"):
            _env(REPRO_WORKERS="-1")

    def test_default_executor_reads_process_environ(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "batched")
        assert resolve_executor_config().kind == "batched"


class TestPrecedence:
    """CLI > environment > spec > default, None falls through."""

    ENV = {"REPRO_EXECUTOR": "batched", "REPRO_WORKERS": "3"}

    def test_cli_wins_over_everything(self):
        cfg = resolve_executor_config(
            ExecutorConfig(kind="process", workers=7),
            ExecutorConfig(kind="serial", workers=1), environ=self.ENV,
        )
        assert (cfg.kind, cfg.workers) == ("process", 7)

    def test_env_wins_over_spec(self):
        cfg = resolve_executor_config(
            None, ExecutorConfig(kind="serial", workers=1), environ=self.ENV
        )
        assert (cfg.kind, cfg.workers) == ("batched", 3)

    def test_spec_wins_over_default(self):
        cfg = resolve_executor_config(
            None, ExecutorConfig(kind="process", workers=5), environ={}
        )
        assert (cfg.kind, cfg.workers) == ("process", 5)

    def test_default_when_nothing_set(self):
        assert resolve_executor_config(environ={}) == ExecutorConfig(
            kind="serial", workers=0, kernel_backend="auto"
        )

    def test_cli_zero_workers_is_explicit_not_fallthrough(self):
        cfg = resolve_executor_config(
            ExecutorConfig(workers=0), ExecutorConfig(workers=5), environ=self.ENV
        )
        assert cfg.workers == 0

    def test_typed_flag_shields_a_bad_environment_variable(self):
        cfg = resolve_executor_config(
            ExecutorConfig(kind="serial"), environ={"REPRO_EXECUTOR": "gpu"}
        )
        assert cfg.kind == "serial"


class TestKernelBackendChain:
    """Same CLI > env > spec > default chain for --kernel-backend."""

    ENV = {"REPRO_KERNEL_BACKEND": "compiled"}

    def test_env_parsing(self):
        assert _env().kernel_backend == "auto"
        assert _env(REPRO_KERNEL_BACKEND="  ").kernel_backend == "auto"
        for name in ("python", "compiled", "auto"):
            assert _env(REPRO_KERNEL_BACKEND=name).kernel_backend == name
        with pytest.raises(EnvConfigError, match="fortran"):
            _env(REPRO_KERNEL_BACKEND="fortran")
        # Removed backend: loud, and the message lists what is left.
        with pytest.raises(EnvConfigError, match="python, compiled, auto$"):
            _env(REPRO_KERNEL_BACKEND="compiled-parallel")

    def test_cli_wins(self):
        cfg = resolve_executor_config(
            ExecutorConfig(kernel_backend="python"),
            ExecutorConfig(kernel_backend="auto"), environ=self.ENV,
        )
        assert cfg.kernel_backend == "python"

    def test_env_wins_over_spec(self):
        cfg = resolve_executor_config(
            None, ExecutorConfig(kernel_backend="python"), environ=self.ENV
        )
        assert cfg.kernel_backend == "compiled"

    def test_spec_wins_over_default(self):
        cfg = resolve_executor_config(
            None, ExecutorConfig(kernel_backend="python"), environ={}
        )
        assert cfg.kernel_backend == "python"

    def test_default_is_auto(self):
        assert resolve_executor_config(environ={}).kernel_backend == "auto"

    def test_resolution_yields_a_request_not_a_backend(self):
        """The chain picks the *request* (possibly ``auto``); mapping auto
        to a concrete backend is kernel_compiled.resolve_backend's job, so
        the compiler probe happens exactly once, at executor construction."""
        cfg = resolve_executor_config(None, ExecutorConfig(), environ={})
        assert cfg.kernel_backend == "auto"


class TestDispatchChain:
    """The removed dispatch knobs: leftovers in the environment are unread."""

    def test_executor_construction_honours_env(self, monkeypatch):
        from repro.runtime.executor import ProcessExecutor

        clean = ProcessExecutor(workers=1)
        monkeypatch.setenv("REPRO_DISPATCH", "carrier-pigeon")
        monkeypatch.setenv("REPRO_RING_SLOTS", "carrier-pigeon")
        ex = ProcessExecutor(workers=1)
        try:
            assert ex.stats() == clean.stats()
        finally:
            ex.close()
            clean.close()


class TestDefaultExecutorUsesChain:
    def test_default_executor_honours_env(self, monkeypatch):
        from repro.runtime import executor as executor_mod

        monkeypatch.setattr(executor_mod, "_DEFAULT", None)
        monkeypatch.setenv("REPRO_EXECUTOR", "batched")
        ex = executor_mod.default_executor()
        assert type(ex).__name__ == "InProcessExecutor"
        ex.close()

    def test_default_executor_rejects_bad_env(self, monkeypatch):
        from repro.runtime import executor as executor_mod

        monkeypatch.setattr(executor_mod, "_DEFAULT", None)
        monkeypatch.setenv("REPRO_EXECUTOR", "quantum")
        with pytest.raises(EnvConfigError):
            executor_mod.default_executor()
