"""Tests for REPRO_EXECUTOR / REPRO_WORKERS / REPRO_KERNEL_BACKEND parsing."""

import pytest

from repro.config.env import (
    EnvConfigError,
    env_executor,
    env_kernel_backend,
    env_workers,
    resolve_executor,
    resolve_kernel_backend,
    resolve_workers,
)


class TestEnvParsing:
    def test_unset_is_none(self):
        assert env_executor({}) is None
        assert env_workers({}) is None

    def test_empty_and_whitespace_are_none(self):
        assert env_executor({"REPRO_EXECUTOR": ""}) is None
        assert env_executor({"REPRO_EXECUTOR": "  "}) is None
        assert env_workers({"REPRO_WORKERS": ""}) is None

    def test_valid_values(self):
        for kind in ("serial", "batched", "process"):
            assert env_executor({"REPRO_EXECUTOR": kind}) == kind
        assert env_workers({"REPRO_WORKERS": "4"}) == 4
        assert env_workers({"REPRO_WORKERS": "0"}) == 0

    def test_invalid_executor_raises(self):
        with pytest.raises(EnvConfigError, match="gpu"):
            env_executor({"REPRO_EXECUTOR": "gpu"})

    def test_invalid_workers_raise(self):
        with pytest.raises(EnvConfigError, match="integer"):
            env_workers({"REPRO_WORKERS": "many"})
        with pytest.raises(EnvConfigError, match=">= 0"):
            env_workers({"REPRO_WORKERS": "-1"})

    def test_default_executor_reads_process_environ(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "batched")
        assert env_executor() == "batched"


class TestPrecedence:
    """CLI > environment > spec > default, None falls through."""

    ENV = {"REPRO_EXECUTOR": "batched", "REPRO_WORKERS": "3"}

    def test_cli_wins_over_everything(self):
        assert resolve_executor("process", "serial", environ=self.ENV) == "process"
        assert resolve_workers(7, 1, environ=self.ENV) == 7

    def test_env_wins_over_spec(self):
        assert resolve_executor(None, "serial", environ=self.ENV) == "batched"
        assert resolve_workers(None, 1, environ=self.ENV) == 3

    def test_spec_wins_over_default(self):
        assert resolve_executor(None, "process", environ={}) == "process"
        assert resolve_workers(None, 5, environ={}) == 5

    def test_default_when_nothing_set(self):
        assert resolve_executor(environ={}) == "serial"
        assert resolve_workers(environ={}) == 0

    def test_cli_zero_workers_is_explicit_not_fallthrough(self):
        assert resolve_workers(0, 5, environ=self.ENV) == 0


class TestKernelBackendChain:
    """Same CLI > env > spec > default chain for --kernel-backend."""

    ENV = {"REPRO_KERNEL_BACKEND": "compiled"}

    def test_env_parsing(self):
        assert env_kernel_backend({}) is None
        assert env_kernel_backend({"REPRO_KERNEL_BACKEND": "  "}) is None
        for name in ("python", "compiled", "auto"):
            assert env_kernel_backend({"REPRO_KERNEL_BACKEND": name}) == name
        with pytest.raises(EnvConfigError, match="fortran"):
            env_kernel_backend({"REPRO_KERNEL_BACKEND": "fortran"})
        # Removed backend: loud, and the message lists what is left.
        with pytest.raises(EnvConfigError, match="python, compiled, auto$"):
            env_kernel_backend({"REPRO_KERNEL_BACKEND": "compiled-parallel"})

    def test_cli_wins(self):
        assert (
            resolve_kernel_backend("python", "auto", environ=self.ENV)
            == "python"
        )

    def test_env_wins_over_spec(self):
        assert (
            resolve_kernel_backend(None, "python", environ=self.ENV)
            == "compiled"
        )

    def test_spec_wins_over_default(self):
        assert resolve_kernel_backend(None, "python", environ={}) == "python"

    def test_default_is_auto(self):
        assert resolve_kernel_backend(environ={}) == "auto"

    def test_resolution_yields_a_request_not_a_backend(self):
        """The chain picks the *request* (possibly ``auto``); mapping auto
        to a concrete backend is kernel_compiled.resolve_backend's job, so
        the compiler probe happens exactly once, at executor construction."""
        assert resolve_kernel_backend(None, None, environ={}) == "auto"


class TestDispatchChain:
    """The removed dispatch knobs: leftovers in the environment are unread."""

    def test_executor_construction_honours_env(self, monkeypatch):
        from repro.runtime.executor import RING_SLOTS, ProcessExecutor

        monkeypatch.setenv("REPRO_DISPATCH", "carrier-pigeon")
        monkeypatch.setenv("REPRO_RING_SLOTS", "carrier-pigeon")
        ex = ProcessExecutor(workers=1)
        assert ex.stats()["ring_slots"] == RING_SLOTS
        ex.close()


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
