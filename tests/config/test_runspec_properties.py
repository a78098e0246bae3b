"""Property tests for RunSpec: round-trip identity and hash stability.

Three properties the whole config layer rests on:

* spec -> JSON -> spec is the identity for every constructible spec;
* the content hash is stable across *process boundaries* (a fresh
  interpreter hashing the same document gets the same digest — nothing
  id()/order/PYTHONHASHSEED-dependent leaks in);
* documents with unknown or invalid fields are rejected, never silently
  dropped;
* canonicalisation — which builds nothing — resolves every section to
  exactly what the driver it names would derive for itself.
"""

import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    ConfigError,
    CostConfig,
    ImplConfig,
    MachineConfig,
    ResilienceSpec,
    RunSpec,
    canonical_json,
)
from repro.config import build
from repro.core.spec import PICSpec

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
workloads = st.builds(
    PICSpec,
    cells=st.sampled_from([16, 32, 64, 128]),
    n_particles=st.integers(min_value=1, max_value=10_000),
    steps=st.integers(min_value=1, max_value=200),
    r=st.floats(min_value=0.5, max_value=1.5, allow_nan=False),
    k=st.integers(min_value=0, max_value=3),
    m_vertical=st.integers(min_value=0, max_value=3),
    rotate90=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)

mpi2d_impls = st.builds(
    ImplConfig,
    name=st.just("mpi-2d"),
    cores=st.integers(min_value=1, max_value=512),
)

lb_impls = st.builds(
    ImplConfig,
    name=st.just("mpi-2d-LB"),
    cores=st.integers(min_value=1, max_value=512),
    lb_interval=st.one_of(st.none(), st.integers(min_value=1, max_value=100)),
    threshold_fraction=st.one_of(
        st.none(), st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    ),
    border_width=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
    axes=st.one_of(st.none(), st.sampled_from(["x", "y", "xy"])),
)

ampi_impls = st.builds(
    ImplConfig,
    name=st.just("ampi"),
    cores=st.integers(min_value=1, max_value=512),
    overdecomposition=st.one_of(st.none(), st.integers(min_value=1, max_value=32)),
    lb_interval=st.one_of(st.none(), st.integers(min_value=1, max_value=200)),
    strategy=st.one_of(
        st.none(),
        st.sampled_from(["NullLB", "GreedyLB", "GreedyTransferLB", "RefineLB"]),
    ),
)

specs = st.builds(
    RunSpec,
    workload=workloads,
    impl=st.one_of(mpi2d_impls, lb_impls, ampi_impls),
)


# ----------------------------------------------------------------------
# Round trip
# ----------------------------------------------------------------------
class TestRoundTripProperty:
    @given(rs=specs)
    @settings(max_examples=60, deadline=None)
    def test_json_round_trip_is_identity(self, rs):
        assert RunSpec.from_json(rs.to_json()) == rs

    @given(rs=specs)
    @settings(max_examples=60, deadline=None)
    def test_round_trip_preserves_hash(self, rs):
        assert RunSpec.from_dict(rs.to_dict()).spec_hash() == rs.spec_hash()

    @given(rs=specs)
    @settings(max_examples=30, deadline=None)
    def test_canonical_json_is_order_independent(self, rs):
        doc = rs.identity_dict()
        shuffled = json.loads(json.dumps(doc))  # dict order may differ
        assert canonical_json(doc) == canonical_json(shuffled)


# ----------------------------------------------------------------------
# The pure resolver against the driver's own derivation
# ----------------------------------------------------------------------
_DEFAULT_TIERS = {
    "self": {"latency": 5e-8, "bandwidth": 20e9},
    "socket": {"latency": 3e-7, "bandwidth": 8e9},
    "node": {"latency": 8e-7, "bandwidth": 5e9},
    "network": {"latency": 2.5e-6, "bandwidth": 2.5e9},
}

machines = st.one_of(
    st.just(MachineConfig()),
    st.builds(
        MachineConfig,
        cores_per_socket=st.integers(min_value=1, max_value=16),
        sockets_per_node=st.integers(min_value=1, max_value=4),
        name=st.sampled_from(["edison-like", "laptop"]),
    ),
    # Written-out tiers: equal to the defaults (canonical form: None),
    # and not, in a scrambled key order (canonical form: Tier order).
    st.just(MachineConfig.from_dict({"tiers": _DEFAULT_TIERS})),
    st.floats(min_value=1e-7, max_value=1e-4, allow_nan=False).map(
        lambda lat: MachineConfig.from_dict({"tiers": dict(reversed([
            *_DEFAULT_TIERS.items(),
            ("network", {"latency": lat, "bandwidth": 1e9}),
        ]))})
    ),
)

costs = st.builds(
    CostConfig,
    particle_push_s=st.floats(min_value=0.0, max_value=1e-5, allow_nan=False),
    pup_bandwidth=st.floats(min_value=1e6, max_value=1e10, allow_nan=False),
)

_FAULTS = {"seed": 7, "faults": [
    {"kind": "slowdown", "core": 0, "factor": 4.0, "start": 1},
    {"kind": "msg", "src": 0, "delay_s": 1e-4, "drop_prob": 0.05},
    {"kind": "crash", "rank": 0, "step": 0},
]}

resiliences = st.builds(
    ResilienceSpec,
    faults=st.sampled_from([None, _FAULTS, {"faults": []}]),
    watch=st.sampled_from([None, {}, {"alpha": 0.25}, {"threshold": 3.0,
                                                        "min_samples": 4}]),
    recovery=st.sampled_from([None, {}, {"backoff_s": 0.002}]),
    checkpoint_every=st.sampled_from([0, 0, 3]),
    checkpoint_dir=st.sampled_from(["checkpoints", "elsewhere"]),
)

full_specs = st.builds(
    RunSpec,
    workload=workloads,
    impl=st.one_of(mpi2d_impls, lb_impls, ampi_impls),
    machine=machines,
    cost=costs,
    resilience=resiliences,
).filter(lambda rs: rs.impl.threshold_fraction != 0.0)  # rejected, see below


class TestCanonicalResolverProperty:
    """``canonical_runspec`` equals ``build_impl(rs).runspec()``, and a
    written-out spec is a fixed point of it."""

    @given(rs=full_specs)
    @settings(max_examples=120, deadline=None)
    def test_resolver_matches_the_built_driver(self, rs):
        canon = build.canonical_runspec(rs)
        derived = build.build_impl(rs).runspec()
        for section in ("workload", "impl", "machine", "cost", "resilience"):
            assert getattr(canon, section) == getattr(derived, section), section
        # The identity-neutral section rides along from the input.
        assert canon.executor == rs.executor
        assert canon.spec_hash() == derived.spec_hash()

    @given(rs=full_specs)
    @settings(max_examples=60, deadline=None)
    def test_fully_written_spec_is_a_fixed_point(self, rs):
        canon = build.canonical_runspec(rs)
        assert build.canonical_runspec(canon) == canon
        written = RunSpec.from_dict(canon.to_dict())
        assert build.canonical_runspec(written) == canon

    @given(rs=full_specs)
    @settings(max_examples=60, deadline=None)
    def test_driver_defaults_come_from_the_resolver(self, rs):
        impl = build.build_impl(rs)
        resolved = type(impl).resolve_params(**rs.impl.params())
        resolved.pop("strategy", None)  # a live object on the driver
        assert {k: getattr(impl, k) for k in resolved} == resolved


class TestCanonicalResolverRejects:
    """What the driver, machine and cost-model constructors reject, the
    resolver rejects with the same error — without building them."""

    BASE = {"workload": {"cells": 32, "n_particles": 100, "steps": 2}}

    @pytest.mark.parametrize("section, fields", [
        ("impl", {"name": "ampi", "overdecomposition": 0}),
        ("impl", {"name": "ampi", "lb_interval": 0}),
        ("impl", {"name": "mpi-2d-LB", "lb_interval": 0}),
        ("impl", {"name": "mpi-2d-LB", "axes": "z"}),
        ("impl", {"name": "mpi-2d-LB", "border_width": 0}),
        ("impl", {"name": "mpi-2d-LB", "threshold_fraction": 0.0}),
        ("machine", {"cores_per_socket": 0}),
        ("machine", {"tiers": {"moon": {"latency": 1.0, "bandwidth": 1.0}}}),
        ("machine", {"tiers": {"self": {"latency": 1.0, "bandwidth": 1.0}}}),
        ("machine", {"tiers": dict(_DEFAULT_TIERS,
                                   node={"latency": -1.0, "bandwidth": 1.0})}),
        ("cost", {"particle_push_s": -1.0}),
        ("cost", {"cell_byte_scale": 0.0}),
        ("resilience", {"watch": {"alpha": 2.0}}),
        ("resilience", {"recovery": {"bogus": 1}}),
    ])
    def test_same_error_as_the_driver(self, section, fields):
        doc = {**self.BASE, "impl": {"name": "mpi-2d", "cores": 4}}
        doc[section] = {**doc.get(section, {}), **fields}
        rs = RunSpec.from_dict(doc)
        with pytest.raises(Exception) as built:
            build.build_impl(rs)
        with pytest.raises(type(built.value)) as resolved:
            build.canonical_runspec(rs)
        assert str(resolved.value) == str(built.value)


# ----------------------------------------------------------------------
# Hash stability across process boundaries
# ----------------------------------------------------------------------
class TestHashStability:
    def test_hash_stable_in_fresh_interpreter(self):
        rs = RunSpec(
            workload=PICSpec(cells=32, n_particles=400, steps=8),
            impl=ImplConfig(
                name="ampi", cores=4, overdecomposition=4,
                lb_interval=100, strategy="GreedyLB",
            ),
        )
        code = (
            "import sys, json\n"
            "from repro.config import RunSpec\n"
            "rs = RunSpec.from_json(sys.stdin.read())\n"
            "print(rs.spec_hash())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            input=rs.to_json(),
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == rs.spec_hash()

    def test_hash_ignores_pythonhashseed(self):
        rs = RunSpec(
            workload=PICSpec(cells=32, n_particles=400, steps=8),
            impl=ImplConfig(name="mpi-2d", cores=4),
        )
        code = (
            "import sys\n"
            "from repro.config import RunSpec\n"
            "print(RunSpec.from_json(sys.stdin.read()).spec_hash())\n"
        )
        digests = set()
        for seed in ("0", "1", "random"):
            out = subprocess.run(
                [sys.executable, "-c", code],
                input=rs.to_json(),
                capture_output=True,
                text=True,
                check=True,
                env={"PYTHONHASHSEED": seed, "PYTHONPATH": ":".join(sys.path)},
            )
            digests.add(out.stdout.strip())
        assert digests == {rs.spec_hash()}


# ----------------------------------------------------------------------
# Rejection of unknown / invalid fields
# ----------------------------------------------------------------------
SECTIONS = ("workload", "impl", "machine", "cost", "executor", "resilience")


class TestRejection:
    @given(section=st.sampled_from(SECTIONS), junk=st.text(min_size=1).filter(
        lambda s: s.isidentifier()))
    @settings(max_examples=40, deadline=None)
    def test_unknown_field_in_any_section_rejected(self, section, junk):
        rs = RunSpec(
            workload=PICSpec(cells=32, n_particles=100, steps=2),
            impl=ImplConfig(name="mpi-2d", cores=2),
        )
        doc = rs.to_dict()
        if junk in doc[section]:
            return
        doc[section][junk] = 1
        with pytest.raises(ConfigError):
            RunSpec.from_dict(doc)

    def test_non_numeric_cost_rejected(self):
        doc = RunSpec(
            workload=PICSpec(cells=32, n_particles=100, steps=2),
            impl=ImplConfig(name="mpi-2d", cores=2),
        ).to_dict()
        doc["cost"]["particle_push_s"] = "fast"
        with pytest.raises(ConfigError, match="number"):
            RunSpec.from_dict(doc)

    def test_zero_cores_rejected(self):
        with pytest.raises(ConfigError, match="cores"):
            ImplConfig(name="mpi-2d", cores=0)

    def test_nan_never_hashable(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})
