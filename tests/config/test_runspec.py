"""Unit tests for the declarative RunSpec layer (repro.config)."""

import json

import pytest

from repro.config import (
    ConfigError,
    CostConfig,
    ExecutorConfig,
    ImplConfig,
    MachineConfig,
    ResilienceSpec,
    RunSpec,
    apply_overrides,
    diff_docs,
)
from repro.core.spec import PICSpec


def small_spec(**impl) -> RunSpec:
    impl.setdefault("name", "mpi-2d")
    impl.setdefault("cores", 4)
    return RunSpec(
        workload=PICSpec(cells=32, n_particles=400, steps=8),
        impl=ImplConfig(**impl),
    )


class TestValidation:
    def test_unknown_top_level_field_rejected(self):
        doc = small_spec().to_dict()
        doc["extra"] = 1
        with pytest.raises(ConfigError, match="extra"):
            RunSpec.from_dict(doc)

    def test_unknown_impl_field_rejected(self):
        doc = small_spec().to_dict()
        doc["impl"]["bogus"] = 1
        with pytest.raises(ConfigError, match="bogus"):
            RunSpec.from_dict(doc)

    def test_unknown_workload_field_rejected(self):
        doc = small_spec().to_dict()
        doc["workload"]["gravity"] = 9.8
        with pytest.raises(ConfigError, match="gravity"):
            RunSpec.from_dict(doc)

    def test_param_must_apply_to_impl(self):
        with pytest.raises(ConfigError, match="does not apply"):
            ImplConfig(name="mpi-2d", overdecomposition=4)
        with pytest.raises(ConfigError, match="does not apply"):
            ImplConfig(name="mpi-2d-LB", strategy="GreedyLB")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError, match="UltraLB"):
            ImplConfig(name="ampi", strategy="UltraLB")

    def test_missing_required_sections(self):
        with pytest.raises(ConfigError, match="workload"):
            RunSpec.from_dict({"impl": {"name": "mpi-2d"}})
        with pytest.raises(ConfigError, match="impl"):
            RunSpec.from_dict({"workload": {"cells": 32}})

    def test_wrong_schema_rejected(self):
        doc = small_spec().to_dict()
        doc["schema"] = 99
        with pytest.raises(ConfigError, match="schema"):
            RunSpec.from_dict(doc)

    def test_executor_kind_validated(self):
        with pytest.raises(ConfigError, match="gpu"):
            ExecutorConfig(kind="gpu")

    def test_bad_fault_plan_rejected_eagerly(self):
        with pytest.raises(ConfigError, match="faults"):
            ResilienceSpec(faults={"seed": 1, "faults": [{"kind": "meteor"}]})

    def test_unknown_machine_tier_rejected(self):
        cfg = MachineConfig(tiers=(("warp", 1e-6, 1e9),))
        with pytest.raises(ConfigError, match="warp"):
            cfg.build()


class TestRoundTrip:
    def test_dict_round_trip_identity(self):
        rs = small_spec()
        assert RunSpec.from_dict(rs.to_dict()) == rs

    def test_json_round_trip_identity(self):
        rs = small_spec(
            name="ampi", overdecomposition=4, lb_interval=10, strategy="GreedyLB"
        )
        assert RunSpec.from_json(rs.to_json()) == rs

    def test_save_load_round_trip(self, tmp_path):
        rs = small_spec(name="mpi-2d-LB", lb_interval=5, border_width=2)
        path = str(tmp_path / "spec.json")
        rs.save(path)
        assert RunSpec.load(path) == rs

    def test_sparse_doc_fills_defaults(self):
        rs = RunSpec.from_dict(
            {"workload": {"cells": 32, "n_particles": 400, "steps": 8},
             "impl": {"name": "mpi-2d", "cores": 4}}
        )
        assert rs == small_spec()

    @pytest.mark.parametrize("value", [None, "ring", "pipe"])
    def test_removed_executor_dispatch_key_still_loads(self, value):
        """Specs and checkpoints written while the pool had two transports
        carry ``executor.dispatch``; it is read, validated and dropped."""
        doc = small_spec().to_dict()
        assert "dispatch" not in doc["executor"]
        doc["executor"]["dispatch"] = value
        rs = RunSpec.from_dict(doc)
        assert rs == small_spec()
        assert "dispatch" not in rs.to_dict()["executor"]

    def test_removed_executor_dispatch_key_still_validated(self):
        doc = small_spec().to_dict()
        doc["executor"]["dispatch"] = "carrier-pigeon"
        with pytest.raises(ConfigError, match="carrier-pigeon"):
            RunSpec.from_dict(doc)

    @pytest.mark.parametrize("value", [None, 32])
    def test_removed_executor_ring_slots_key_still_loads(self, value):
        """Same for ``executor.ring_slots``, written while the ring was
        sizable: read, validated, dropped."""
        doc = small_spec().to_dict()
        assert set(doc["executor"]) == {"kind", "workers", "kernel_backend"}
        doc["executor"]["ring_slots"] = value
        rs = RunSpec.from_dict(doc)
        assert rs == small_spec()
        assert rs.to_dict() == small_spec().to_dict()

    @pytest.mark.parametrize("value", [0, -4, "lots", 2.5])
    def test_removed_executor_ring_slots_key_still_validated(self, value):
        doc = small_spec().to_dict()
        doc["executor"]["ring_slots"] = value
        with pytest.raises(ConfigError, match="executor.ring_slots"):
            RunSpec.from_dict(doc)

    def test_removed_compiled_parallel_backend_reads_as_compiled(self):
        """A spec file written while the thread-parallel backend existed
        loads as ``compiled``; the name is never emitted again and is not
        a value code may construct."""
        doc = small_spec().to_dict()
        doc["executor"]["kernel_backend"] = "compiled-parallel"
        rs = RunSpec.from_dict(doc)
        assert rs.executor.kernel_backend == "compiled"
        assert "compiled-parallel" not in rs.to_json()
        assert rs.spec_hash() == small_spec().spec_hash()
        with pytest.raises(ConfigError, match="python/compiled/auto"):
            ExecutorConfig(kernel_backend="compiled-parallel")

    @pytest.mark.parametrize(
        "section", [{}, {"timeline": True}, {"timeline": False, "out": "trace/"}]
    )
    def test_removed_tracing_section_still_loads(self, section):
        """Spec files written while the spec had a ``tracing`` section
        (``timeline``/``out``, read by nothing) load; it is dropped."""
        doc = small_spec().to_dict()
        assert "tracing" not in doc
        doc["tracing"] = section
        rs = RunSpec.from_dict(doc)
        assert rs == small_spec()
        assert rs.to_dict() == small_spec().to_dict()

    def test_removed_tracing_section_still_validated(self):
        doc = small_spec().to_dict()
        doc["tracing"] = {"timeline": True, "bogus": 1}
        with pytest.raises(ConfigError, match=r"\['bogus'\] in tracing"):
            RunSpec.from_dict(doc)


class TestIdentityHash:
    def test_executor_and_tracing_are_not_identity(self):
        a = small_spec()
        b = a.with_overrides(executor=ExecutorConfig(kind="process", workers=4))
        assert a.spec_hash() == b.spec_hash()
        doc = a.to_dict()
        doc["tracing"] = {"timeline": True, "out": "trace/"}
        assert RunSpec.from_dict(doc).spec_hash() == a.spec_hash()

    def test_checkpoint_dir_is_not_identity(self):
        a = small_spec()
        b = a.with_overrides(
            resilience=ResilienceSpec(checkpoint_dir="/elsewhere")
        )
        assert a.spec_hash() == b.spec_hash()

    def test_checkpoint_every_is_identity(self):
        a = small_spec()
        b = a.with_overrides(resilience=ResilienceSpec(checkpoint_every=5))
        assert a.spec_hash() != b.spec_hash()

    def test_workload_change_changes_hash(self):
        a = small_spec()
        b = a.with_overrides(
            workload=PICSpec(cells=32, n_particles=401, steps=8)
        )
        assert a.spec_hash() != b.spec_hash()

    def test_diff_identity_names_the_field(self):
        a = small_spec(name="mpi-2d-LB", lb_interval=2)
        b = small_spec(name="mpi-2d-LB", lb_interval=5)
        diffs = a.diff_identity(b)
        assert diffs == ["impl.lb_interval: 2 != 5"]


class TestCanonicalization:
    def test_sparse_and_derived_hash_equal(self):
        from repro.config.build import canonical_hash

        sparse = small_spec(name="ampi")  # every ampi tunable defaulted
        full = small_spec(
            name="ampi", overdecomposition=4, lb_interval=100,
            strategy="GreedyTransferLB", stats_s_per_vp=4e-06,
        )
        assert canonical_hash(sparse) == canonical_hash(full)

    def test_driver_runspec_matches_canonical(self):
        from repro.config.build import build_impl, canonical_runspec

        rs = small_spec(name="mpi-2d-LB", lb_interval=5)
        assert build_impl(rs).runspec() == canonical_runspec(rs)


class TestOverrides:
    def test_apply_overrides_sets_nested_leaf(self):
        doc = apply_overrides({"impl": {"name": "mpi-2d"}}, {"impl.cores": 8})
        assert doc["impl"] == {"name": "mpi-2d", "cores": 8}

    def test_apply_overrides_does_not_mutate_input(self):
        base = {"impl": {"name": "mpi-2d"}}
        apply_overrides(base, {"impl.cores": 8})
        assert base == {"impl": {"name": "mpi-2d"}}

    def test_typoed_path_caught_by_from_dict(self):
        doc = apply_overrides(
            small_spec().to_dict(), {"impl.coress": 8}
        )
        with pytest.raises(ConfigError, match="coress"):
            RunSpec.from_dict(doc)


class TestDiffDocs:
    def test_absent_keys_reported(self):
        assert diff_docs({"a": 1}, {}) == ["a: 1 != <absent>"]
        assert diff_docs({}, {"a": 1}) == ["a: <absent> != 1"]

    def test_nested_path_reported(self):
        assert diff_docs({"a": {"b": 1}}, {"a": {"b": 2}}) == ["a.b: 1 != 2"]

    def test_equal_docs_empty(self):
        doc = small_spec().to_dict()
        assert diff_docs(doc, json.loads(json.dumps(doc))) == []


class TestBuildImplExecutor:
    """``build_impl(rs)`` without ``executor=`` runs on the spec's own."""

    @pytest.fixture(autouse=True)
    def _no_env(self, monkeypatch):
        for name in ("REPRO_EXECUTOR", "REPRO_WORKERS", "REPRO_KERNEL_BACKEND"):
            monkeypatch.delenv(name, raising=False)

    def test_python_kernel_backend_runs_the_python_push(self, monkeypatch):
        from repro.config.build import build_impl
        from repro.core import kernel

        blocks = []
        real = kernel._advance_block
        monkeypatch.setattr(
            kernel, "_advance_block",
            lambda *a: blocks.append(len(a[1])) or real(*a),
        )
        rs = small_spec().with_overrides(
            executor=ExecutorConfig(kind="serial", kernel_backend="python")
        )
        impl = build_impl(rs)
        assert impl.executor.kernel_backend == "python"
        assert impl.owns_executor
        assert impl.run().verification.ok
        assert sum(blocks) == 8 * 400

    def test_kind_and_workers_come_from_the_spec_and_are_reaped(self):
        from repro.config.build import build_impl
        from repro.runtime.executor import ProcessExecutor

        rs = small_spec().with_overrides(
            executor=ExecutorConfig(kind="process", workers=1,
                                    kernel_backend="python")
        )
        impl = build_impl(rs)
        assert isinstance(impl.executor, ProcessExecutor)
        assert impl.executor.workers == 1
        assert impl.run().verification.ok
        assert impl.executor._procs == []

    def test_a_passed_executor_stays_the_callers(self):
        from repro.config.build import build_impl
        from repro.runtime.executor import InProcessExecutor

        ex = InProcessExecutor()
        impl = build_impl(small_spec(), executor=ex)
        assert impl.executor is ex and not impl.owns_executor


class TestDriverTunables:
    """A spec accepts exactly the tunables its driver resolves."""

    def test_every_driver_has_a_params_row(self):
        from repro.config.runspec import _IMPL_PARAMS
        from repro.parallel import DRIVERS

        assert set(_IMPL_PARAMS) == set(DRIVERS) | {"serial"}

    @pytest.mark.parametrize("name", ["mpi-2d", "mpi-2d-LB", "ampi"])
    def test_params_row_is_the_drivers_defaults(self, name):
        from repro.config.runspec import _IMPL_PARAMS
        from repro.parallel import DRIVERS

        assert _IMPL_PARAMS[name] == tuple(DRIVERS[name].PARAM_DEFAULTS)
