"""The unified, declarative run configuration: :class:`RunSpec`.

One :class:`RunSpec` captures *everything* that defines a run — the
workload (:class:`~repro.core.spec.PICSpec`), the implementation and its
tunables, the machine model, the cost model, the compute-executor backend,
and the resilience setup (fault plan, straggler watch, recovery policy,
checkpointing) — as a typed dataclass tree with

* **schema validation**: :meth:`RunSpec.from_dict` rejects unknown fields
  at every level (with the dotted path in the error) and type/range
  violations surface through the underlying dataclass validation;
* **JSON round-trip**: ``RunSpec.from_dict(spec.to_dict()) == spec`` and
  the same through :meth:`to_json`/:meth:`from_json`/:meth:`load`/
  :meth:`save` (pinned by tests/config/test_runspec_properties.py);
* **a canonical content hash**: :meth:`spec_hash` is the SHA-256 of the
  canonical JSON of :meth:`identity_dict` — the subset of the spec that
  determines the *simulated* outcome.  Executor backend, worker count
  and the checkpoint directory are excluded: the determinism
  suites pin that they cannot change a single simulated bit, and
  excluding them lets the campaign result cache hit across machines and
  CI matrix legs.

Builders that resolve a RunSpec into live objects (MachineModel,
CostModel, implementation instances, executors, ResilienceConfig) live in
:mod:`repro.config.build`; this module is deliberately import-light so
the drivers in :mod:`repro.parallel.base` can derive a RunSpec from
themselves without an import cycle.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.config.env import EXECUTOR_KINDS, KERNEL_BACKENDS
from repro.core.spec import PICSpec, spec_from_dict, spec_to_dict
from repro.runtime.costmodel import CostModel
from repro.runtime.machine import MachineModel, Tier, TierCosts

SCHEMA_VERSION = 1

LB_STRATEGY_NAMES = (
    "NullLB",
    "GreedyLB",
    "GreedyTransferLB",
    "RefineLB",
    "HintedTransferLB",
)


class ConfigError(ValueError):
    """A RunSpec document is malformed (unknown field, bad type/value)."""


# ----------------------------------------------------------------------
# Validation helpers
# ----------------------------------------------------------------------
def _check_keys(doc: Mapping, allowed, where: str) -> None:
    if not isinstance(doc, Mapping):
        raise ConfigError(f"{where} must be an object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown field(s) {unknown} in {where}; allowed: {sorted(allowed)}"
        )


#: ``canonical_json(doc)``: deterministic JSON — sorted keys, no whitespace or NaN.
canonical_json = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
).encode


def diff_docs(a: Any, b: Any, prefix: str = "") -> list[str]:
    """Human-readable leaf differences between two (nested) documents."""
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        out: list[str] = []
        for key in sorted(set(a) | set(b)):
            path = f"{prefix}.{key}" if prefix else str(key)
            if key not in a:
                out.append(f"{path}: <absent> != {b[key]!r}")
            elif key not in b:
                out.append(f"{path}: {a[key]!r} != <absent>")
            else:
                out.extend(diff_docs(a[key], b[key], path))
        return out
    if a != b:
        return [f"{prefix or '<root>'}: {a!r} != {b!r}"]
    return []


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MachineConfig:
    """Geometry + (optional) tier-cost overrides of the machine model."""

    cores_per_socket: int = 12
    sockets_per_node: int = 2
    name: str = "edison-like"
    #: ``((tier_name, latency_s, bandwidth_Bps), ...)`` or None for the
    #: :class:`MachineModel` defaults.  Canonical form: None when equal to
    #: the defaults, so hand-written sparse specs hash identically to
    #: captured ones.
    tiers: tuple[tuple[str, float, float], ...] | None = None

    @classmethod
    def from_model(cls, machine: MachineModel) -> "MachineConfig":
        default = MachineModel(
            cores_per_socket=machine.cores_per_socket,
            sockets_per_node=machine.sockets_per_node,
            name=machine.name,
        )
        tiers = None
        if machine.tier_costs != default.tier_costs:
            tiers = tuple(
                (t.name.lower(), machine.tier_costs[t].latency,
                 machine.tier_costs[t].bandwidth)
                for t in Tier
            )
        return cls(
            cores_per_socket=machine.cores_per_socket,
            sockets_per_node=machine.sockets_per_node,
            name=machine.name,
            tiers=tiers,
        )

    def canonical(self) -> "MachineConfig":
        """Tiers in :class:`Tier` order, None when equal to the defaults.  Custom
        tiers (and a geometry to reject) go through the model, their validator."""
        if self.tiers is None and min(self.cores_per_socket, self.sockets_per_node) > 0:
            return self
        return MachineConfig.from_model(self.build())

    def build(self) -> MachineModel:
        kwargs: dict[str, Any] = dict(
            cores_per_socket=self.cores_per_socket,
            sockets_per_node=self.sockets_per_node,
            name=self.name,
        )
        if self.tiers is not None:
            costs = {}
            for tier_name, latency, bandwidth in self.tiers:
                try:
                    tier = Tier[tier_name.upper()]
                except KeyError:
                    raise ConfigError(f"unknown machine tier {tier_name!r}")
                costs[tier] = TierCosts(latency=latency, bandwidth=bandwidth)
            kwargs["tier_costs"] = costs
        return MachineModel(**kwargs)

    def to_dict(self) -> dict:
        return {
            "cores_per_socket": self.cores_per_socket,
            "sockets_per_node": self.sockets_per_node,
            "name": self.name,
            "tiers": None
            if self.tiers is None
            else {
                t: {"latency": lat, "bandwidth": bw} for t, lat, bw in self.tiers
            },
        }

    @classmethod
    def from_dict(cls, doc: Mapping, where: str = "machine") -> "MachineConfig":
        _check_keys(
            doc, ("cores_per_socket", "sockets_per_node", "name", "tiers"), where
        )
        tiers_doc = doc.get("tiers")
        tiers = None
        if tiers_doc is not None:
            if not isinstance(tiers_doc, Mapping):
                raise ConfigError(f"{where}.tiers must be an object")
            tiers = []
            for tier_name, costs in tiers_doc.items():
                _check_keys(
                    costs, ("latency", "bandwidth"), f"{where}.tiers.{tier_name}"
                )
                tiers.append(
                    (str(tier_name), float(costs["latency"]),
                     float(costs["bandwidth"]))
                )
            tiers = tuple(tiers)
        return cls(
            cores_per_socket=int(doc.get("cores_per_socket", 12)),
            sockets_per_node=int(doc.get("sockets_per_node", 2)),
            name=str(doc.get("name", "edison-like")),
            tiers=tiers,
        )


_COST_FIELDS = (
    "particle_push_s",
    "particle_pack_s",
    "cell_handling_s",
    "message_overhead_s",
    "vp_scheduling_s",
    "particle_byte_scale",
    "cell_byte_scale",
    "pup_bandwidth",
)


@dataclass(frozen=True)
class CostConfig:
    """The per-operation rates of :class:`CostModel` (machine-independent)."""

    particle_push_s: float = 1.4e-7
    particle_pack_s: float = 1.5e-8
    cell_handling_s: float = 4.0e-9
    message_overhead_s: float = 2.0e-6
    vp_scheduling_s: float = 3.0e-6
    particle_byte_scale: float = 1.0
    cell_byte_scale: float = 1.0
    pup_bandwidth: float = 2.0e8

    @classmethod
    def from_model(cls, cost: CostModel) -> "CostConfig":
        return cls(**{name: getattr(cost, name) for name in _COST_FIELDS})

    def build(self, machine: MachineModel) -> CostModel:
        return CostModel(
            machine=machine,
            **{name: getattr(self, name) for name in _COST_FIELDS},
        )

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in _COST_FIELDS}

    @classmethod
    def from_dict(cls, doc: Mapping, where: str = "cost") -> "CostConfig":
        _check_keys(doc, _COST_FIELDS, where)
        kwargs = {}
        for name in _COST_FIELDS:
            if name in doc:
                value = doc[name]
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise ConfigError(f"{where}.{name} must be a number")
                kwargs[name] = float(value)
        return cls(**kwargs)


#: Parameters each implementation accepts beyond (name, cores, dims).
_IMPL_PARAMS: dict[str, tuple[str, ...]] = {
    "serial": (),
    "mpi-2d": (),
    "mpi-2d-LB": (
        "lb_interval",
        "threshold_fraction",
        "border_width",
        "axes",
        "min_width",
    ),
    "ampi": ("overdecomposition", "lb_interval", "strategy", "stats_s_per_vp"),
}

_IMPL_FIELDS = (
    "name",
    "cores",
    "dims",
    "lb_interval",
    "threshold_fraction",
    "border_width",
    "axes",
    "min_width",
    "overdecomposition",
    "strategy",
    "stats_s_per_vp",
)


@dataclass(frozen=True)
class ImplConfig:
    """Which implementation runs, on how many cores, with which tunables.

    Tunables left at ``None`` fall through to the implementation
    constructor's defaults; fields that do not apply to the named
    implementation are rejected (``overdecomposition`` on ``mpi-2d``
    is a spec bug, not a silent no-op).
    """

    name: str
    cores: int = 1
    #: Explicit processor grid (e.g. ``(P, 1)``), or None for near-square.
    dims: tuple[int, int] | None = None
    # mpi-2d-LB and ampi
    lb_interval: int | None = None
    # mpi-2d-LB
    threshold_fraction: float | None = None
    border_width: int | None = None
    axes: str | None = None
    min_width: int | None = None
    # ampi
    overdecomposition: int | None = None
    strategy: str | None = None
    stats_s_per_vp: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("impl.name must be non-empty")
        if self.cores < 1:
            raise ConfigError(f"impl.cores must be >= 1, got {self.cores}")
        if self.dims is not None and (
            len(self.dims) != 2 or any(d < 1 for d in self.dims)
        ):
            raise ConfigError(f"impl.dims must be two positive ints, got {self.dims}")
        if self.strategy is not None and self.strategy not in LB_STRATEGY_NAMES:
            raise ConfigError(
                f"unknown impl.strategy {self.strategy!r}; "
                f"choose from {', '.join(LB_STRATEGY_NAMES)}"
            )
        if self.name in _IMPL_PARAMS:
            allowed = set(_IMPL_PARAMS[self.name])
            for param in set(_IMPL_FIELDS) - {"name", "cores", "dims"}:
                if getattr(self, param) is not None and param not in allowed:
                    raise ConfigError(
                        f"impl.{param} does not apply to impl.name={self.name!r}"
                    )

    def params(self) -> dict[str, Any]:
        """The non-None tunables, as constructor kwargs (strategy as name)."""
        return {
            key: getattr(self, key)
            for key in _IMPL_PARAMS.get(self.name, ())
            if getattr(self, key) is not None
        }

    def with_params(self, **params) -> "ImplConfig":
        """Copy with tunables filled in (used by driver derivation)."""
        return replace(self, **params)

    def to_dict(self) -> dict:
        doc: dict[str, Any] = {
            key: getattr(self, key) for key in _IMPL_FIELDS
        }
        doc["dims"] = None if self.dims is None else list(self.dims)
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping, where: str = "impl") -> "ImplConfig":
        _check_keys(doc, _IMPL_FIELDS, where)
        if "name" not in doc:
            raise ConfigError(f"{where}.name is required")
        kwargs = dict(doc)
        if kwargs.get("dims") is not None:
            kwargs["dims"] = tuple(int(d) for d in kwargs["dims"])
        try:
            return cls(**kwargs)
        except TypeError as exc:  # pragma: no cover - guarded by _check_keys
            raise ConfigError(f"bad {where} section: {exc}") from None


@dataclass(frozen=True)
class ExecutorConfig:
    """Compute-executor backend selection (wall-clock only, never identity).

    ``kernel_backend`` rides in this section *because* it is excluded from
    :meth:`RunSpec.identity_dict`: the compiled kernel is bitwise-identical
    to the python one (tests/core/backend_conformance.py), so the choice
    can never change what a run computes — only how fast it runs.  The
    exclusion's safety is itself pinned by tests (a checkpoint written
    under one backend resumes bit-for-bit under the other).
    """

    kind: str | None = None  # serial | batched | process | None = inherit
    workers: int | None = None
    # python | compiled | auto | None = inherit
    kernel_backend: str | None = None

    def __post_init__(self) -> None:
        if self.kind is not None and self.kind not in EXECUTOR_KINDS:
            raise ConfigError(
                f"executor.kind must be {'/'.join(EXECUTOR_KINDS)}, "
                f"got {self.kind!r}"
            )
        if self.workers is not None and self.workers < 0:
            raise ConfigError("executor.workers must be >= 0")
        if (
            self.kernel_backend is not None
            and self.kernel_backend not in KERNEL_BACKENDS
        ):
            raise ConfigError(
                f"executor.kernel_backend must be {'/'.join(KERNEL_BACKENDS)}, "
                f"got {self.kernel_backend!r}"
            )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "workers": self.workers,
            "kernel_backend": self.kernel_backend,
        }

    @classmethod
    def from_dict(cls, doc: Mapping, where: str = "executor") -> "ExecutorConfig":
        _check_keys(
            doc,
            ("kind", "workers", "kernel_backend", "dispatch", "ring_slots"),
            where,
        )
        # Both read for compatibility, then dropped: checkpoints and specs
        # written while the pool had two transports and a sizable ring
        # carry the keys.  Likewise "compiled-parallel", the thread-parallel
        # twin of the compiled kernel, is read as "compiled".
        if doc.get("dispatch") not in (None, "ring", "pipe"):
            raise ConfigError(
                f"{where}.dispatch must be ring/pipe, got {doc['dispatch']!r}"
            )
        ring_slots = doc.get("ring_slots")
        if ring_slots is not None and not (
            isinstance(ring_slots, int) and ring_slots >= 1
        ):
            raise ConfigError(
                f"{where}.ring_slots must be an int >= 1, got {ring_slots!r}"
            )
        workers = doc.get("workers")
        backend = doc.get("kernel_backend")
        return cls(
            kind=doc.get("kind"),
            workers=None if workers is None else int(workers),
            kernel_backend="compiled" if backend == "compiled-parallel" else backend,
        )


@dataclass(frozen=True)
class ResilienceSpec:
    """Fault plan, straggler watch, recovery and checkpointing knobs.

    All of these (except ``checkpoint_dir``, which is an IO location)
    perturb *simulated* time deterministically, so they are part of the
    spec's identity hash.
    """

    #: Inline :class:`~repro.resilience.FaultPlan` document, or None.
    faults: dict | None = None
    #: :class:`~repro.resilience.StragglerWatch` parameters; ``{}`` arms
    #: the watch with defaults, None leaves it off.
    watch: dict | None = None
    #: :class:`~repro.resilience.RecoveryPolicy` kwargs; ``{}`` = defaults.
    recovery: dict | None = None
    checkpoint_every: int = 0
    checkpoint_dir: str = "checkpoints"

    def __post_init__(self) -> None:
        if self.checkpoint_every < 0:
            raise ConfigError("resilience.checkpoint_every must be >= 0")
        if self.faults is not None:
            # Validate the plan document eagerly (round-trip through the
            # real parser) so a campaign fails at expansion, not mid-sweep.
            from repro.resilience.faults import FaultPlan

            try:
                object.__setattr__(
                    self, "faults", FaultPlan.from_dict(self.faults).to_dict()
                )
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad resilience.faults plan: {exc}") from None

    @classmethod
    def from_config(cls, res) -> "ResilienceSpec":
        """A live ``ResilienceConfig`` (or None) written out, defaults filled in."""
        if res is None:
            return cls()
        ckpt = res.checkpointer
        return cls(
            faults=None if res.plan is None else res.plan.to_dict(),
            watch=None if res.watch is None else res.watch.params_dict(),
            recovery=None if res.recovery is None else dataclasses.asdict(res.recovery),
            checkpoint_every=0 if ckpt is None else ckpt.every,
            checkpoint_dir="checkpoints" if ckpt is None else ckpt.directory,
        )

    def active(self) -> bool:
        return (
            self.faults is not None
            or self.watch is not None
            or self.recovery is not None
            or self.checkpoint_every > 0
        )

    def to_dict(self) -> dict:
        return {
            "faults": self.faults,
            "watch": self.watch,
            "recovery": self.recovery,
            "checkpoint_every": self.checkpoint_every,
            "checkpoint_dir": self.checkpoint_dir,
        }

    @classmethod
    def from_dict(cls, doc: Mapping, where: str = "resilience") -> "ResilienceSpec":
        _check_keys(
            doc,
            ("faults", "watch", "recovery", "checkpoint_every", "checkpoint_dir"),
            where,
        )
        return cls(
            faults=None if doc.get("faults") is None else dict(doc["faults"]),
            watch=None if doc.get("watch") is None else dict(doc["watch"]),
            recovery=None if doc.get("recovery") is None else dict(doc["recovery"]),
            checkpoint_every=int(doc.get("checkpoint_every", 0)),
            checkpoint_dir=str(doc.get("checkpoint_dir", "checkpoints")),
        )


# ----------------------------------------------------------------------
# The top-level RunSpec
# ----------------------------------------------------------------------
def _workload_from_dict(doc: Mapping) -> PICSpec:
    try:
        return spec_from_dict(doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad workload section: {exc}") from None


#: Section -> parser of its document, in validation order; campaign expansion
#: shares it to re-parse only the sections a point's overrides touch.
SECTION_PARSERS = {
    "workload": _workload_from_dict,
    "impl": ImplConfig.from_dict,
    "machine": MachineConfig.from_dict,
    "cost": CostConfig.from_dict,
    "executor": ExecutorConfig.from_dict,
    "resilience": ResilienceSpec.from_dict,
}


@dataclass(frozen=True)
class RunSpec:
    """One fully-specified run. See the module docstring."""

    workload: PICSpec
    impl: ImplConfig
    machine: MachineConfig = field(default_factory=MachineConfig)
    cost: CostConfig = field(default_factory=CostConfig)
    executor: ExecutorConfig = field(default_factory=ExecutorConfig)
    resilience: ResilienceSpec = field(default_factory=ResilienceSpec)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        """The fully-resolved canonical document (every field present)."""
        return {
            "schema": SCHEMA_VERSION,
            "workload": spec_to_dict(self.workload),
            "impl": self.impl.to_dict(),
            "machine": self.machine.to_dict(),
            "cost": self.cost.to_dict(),
            "executor": self.executor.to_dict(),
            "resilience": self.resilience.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "RunSpec":
        _check_keys(doc, ("schema", "tracing", *SECTION_PARSERS), "runspec")
        schema = doc.get("schema", SCHEMA_VERSION)
        if schema != SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported runspec schema {schema!r} (expected {SCHEMA_VERSION})"
            )
        if "workload" not in doc:
            raise ConfigError("runspec.workload is required")
        if "impl" not in doc:
            raise ConfigError("runspec.impl is required")
        spec = cls(**{
            name: parse(doc.get(name, {})) for name, parse in SECTION_PARSERS.items()
        })
        # Read for compatibility, then dropped: spec files written while
        # the spec had a tracing section (switches nothing read) carry it.
        _check_keys(doc.get("tracing", {}), ("timeline", "out"), "tracing")
        return spec

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"runspec is not valid JSON: {exc}") from None
        return cls.from_dict(doc)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "RunSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    # -- identity ------------------------------------------------------
    def identity_dict(self) -> dict:
        """The hash-relevant subset: what determines the simulated outcome.

        Excludes the executor section and the checkpoint *directory* —
        both pinned bitwise-irrelevant by the determinism suites — so a
        result cached under this hash is valid no matter which backend
        later recomputes it.
        """
        doc = self.to_dict()
        del doc["executor"]
        del doc["resilience"]["checkpoint_dir"]
        return doc

    def spec_hash(self) -> str:
        """SHA-256 hex digest of the canonical identity document."""
        return hashlib.sha256(
            canonical_json(self.identity_dict()).encode("utf-8")
        ).hexdigest()

    def diff_identity(self, other: "RunSpec") -> list[str]:
        """Leaf-level identity differences vs ``other`` (empty if same hash)."""
        return diff_docs(self.identity_dict(), other.identity_dict())

    # -- convenience ---------------------------------------------------
    def with_overrides(self, **sections) -> "RunSpec":
        """``dataclasses.replace`` passthrough, for fluent construction."""
        return replace(self, **sections)

    def describe(self) -> str:
        impl = self.impl
        bits = [f"{impl.name} on {impl.cores} cores", self.workload.describe()]
        params = impl.params()
        if params:
            bits.append(
                ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
            )
        return " | ".join(bits)


def apply_overrides(doc: dict, overrides: Mapping[str, Any]) -> dict:
    """Apply ``{"dotted.path": value}`` overrides to a nested document.

    Returns a new document; the input is not mutated (the objects along
    each path are copied, untouched subtrees are shared).  Intermediate
    objects are created as needed; the result still goes through
    :meth:`RunSpec.from_dict`, so a typo'd path is caught as an unknown
    field rather than silently ignored.
    """
    out = dict(doc)
    for path, value in overrides.items():
        *parents, leaf = path.split(".")
        node = out
        for part in parents:
            nxt = node.get(part)
            node[part] = node = dict(nxt) if isinstance(nxt, dict) else {}
        node[leaf] = value
    return out
