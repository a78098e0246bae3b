"""Suite-wide pytest configuration."""

from hypothesis import settings

# Tier-1 must not flake: property tests draw the same examples on every run
# unless another profile is asked for (``--hypothesis-profile=default``
# restores hypothesis' random exploration).
settings.register_profile("ci", derandomize=True)


def pytest_configure(config):
    if not config.getoption("hypothesis_profile", None):
        settings.load_profile("ci")
