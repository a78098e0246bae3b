"""Suite-wide pytest configuration."""

import atexit
import logging
import os
import shutil
import tempfile
import time

import pytest
from hypothesis import settings

# Collection already builds the C kernel (``requires_compiled``): keep the suite
# out of the developer's real ``~/.cache/repro``.  Set before anything imports.
os.environ["XDG_CACHE_HOME"] = tempfile.mkdtemp(prefix="repro-test-cache-")
atexit.register(shutil.rmtree, os.environ["XDG_CACHE_HOME"], ignore_errors=True)

from repro.core import kernel_compiled  # noqa: E402

# Tier-1 must not flake: property tests draw the same examples on every run
# unless another profile is asked for (``--hypothesis-profile=default``
# restores hypothesis' random exploration).
settings.register_profile("ci", derandomize=True)


def pytest_configure(config):
    if not config.getoption("hypothesis_profile", None):
        settings.load_profile("ci")


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path, caplog):
    """Forget this process's load attempt (restored afterwards, so order
    cannot matter), point the cache at an empty private directory, capture
    the loader's log and hold the scenario to a bounded time."""
    monkeypatch.setattr(kernel_compiled, "_LOADED", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    caplog.set_level(logging.INFO, logger=kernel_compiled.__name__)
    t0 = time.monotonic()
    yield tmp_path / "cache" / "repro"
    assert time.monotonic() - t0 < 60.0
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.fixture
def no_compiler(fresh_loader, monkeypatch):
    """A host with no ``cc`` on PATH, whatever this one has."""
    monkeypatch.setattr(kernel_compiled.shutil, "which", lambda name: None)
