"""Campaign declarations: a sweep over RunSpecs, declaratively.

A campaign document is JSON with four parts::

    {
      "schema": 1,
      "campaign": "fig6-single-node",
      "base":  { ...sparse RunSpec document... },
      "axes":  [ {"axis": "cores", "path": "impl.cores",
                  "values": [1, 4, 8]},
                 {"axis": "impl",
                  "values": [ {"label": "mpi-2d",
                               "set": {"impl.name": "mpi-2d"}},
                              {"label": "ampi",
                               "set": {"impl.name": "ampi",
                                       "impl.overdecomposition": 8}} ]} ],
      "points": [ {"labels": {...}, "set": {...}}, ... ]   # optional
    }

``base`` is any (possibly sparse) RunSpec document.  Each **axis** either
sweeps one dotted path over scalar values, or enumerates structured
variants that each set several paths at once.  The matrix is the
Cartesian product with the *first axis outermost* (so a cores-then-impl
declaration enumerates in the cores-outer order the fig6 scripts used).
Alternatively an explicit ``points`` list names every point directly —
used where axes are coupled (fig5's two concatenated sweeps, fig7's
cores-dependent particle counts).  ``axes`` and ``points`` are mutually
exclusive.

Expansion applies each point's overrides to ``base`` and validates the
result as :meth:`RunSpec.from_dict` would, so a typo'd path fails the whole
campaign at expansion time — before anything runs.  ``base`` is validated
once; a point re-validates the sections its overrides touch, or the whole
document if ``base`` is not valid by itself (``impl.name`` set by an axis).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.config.runspec import SECTION_PARSERS, ConfigError, RunSpec, apply_overrides


@dataclass(frozen=True)
class CampaignPoint:
    """One expanded point: its labels and its fully-validated RunSpec."""

    index: int
    labels: dict[str, Any]
    spec: RunSpec


@dataclass(frozen=True)
class CampaignSpec:
    """A validated campaign declaration (see the module docstring)."""

    name: str
    base: dict
    axes: tuple[dict, ...] = ()
    points: tuple[dict, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("campaign name must be non-empty")
        if self.axes and self.points:
            raise ConfigError("campaign takes either axes or points, not both")
        if not self.axes and not self.points:
            raise ConfigError("campaign needs at least one axis or point")

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, doc: Mapping) -> "CampaignSpec":
        if not isinstance(doc, Mapping):
            raise ConfigError("campaign document must be an object")
        unknown = sorted(set(doc) - {"schema", "campaign", "base", "axes", "points"})
        if unknown:
            raise ConfigError(f"unknown campaign field(s) {unknown}")
        schema = doc.get("schema", 1)
        if schema != 1:
            raise ConfigError(f"unsupported campaign schema {schema!r}")
        if "campaign" not in doc:
            raise ConfigError("campaign.campaign (the name) is required")
        if "base" not in doc:
            raise ConfigError("campaign.base (a RunSpec document) is required")
        return cls(
            name=str(doc["campaign"]),
            base=dict(doc["base"]),
            axes=tuple(dict(a) for a in doc.get("axes", ())),
            points=tuple(dict(p) for p in doc.get("points", ())),
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"campaign is not valid JSON: {exc}") from None
        return cls.from_dict(doc)

    @classmethod
    def load(cls, path: str) -> "CampaignSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def to_dict(self) -> dict:
        doc: dict[str, Any] = {
            "schema": 1,
            "campaign": self.name,
            "base": self.base,
        }
        if self.axes:
            doc["axes"] = list(self.axes)
        if self.points:
            doc["points"] = list(self.points)
        return doc

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def _axis_variants(self, axis: Mapping) -> list[tuple[dict, dict]]:
        """One axis as ``(labels, overrides)`` pairs."""
        unknown = sorted(set(axis) - {"axis", "path", "values"})
        if unknown:
            raise ConfigError(f"unknown axis field(s) {unknown}")
        name = axis.get("axis")
        if not name:
            raise ConfigError("every axis needs an 'axis' name")
        values = axis.get("values")
        if not values:
            raise ConfigError(f"axis {name!r} needs non-empty 'values'")
        path = axis.get("path")
        out: list[tuple[dict, dict]] = []
        for value in values:
            if isinstance(value, Mapping):
                bad = sorted(set(value) - {"label", "set", "labels"})
                if bad:
                    raise ConfigError(
                        f"unknown variant field(s) {bad} in axis {name!r}"
                    )
                if "set" not in value:
                    raise ConfigError(
                        f"structured variant in axis {name!r} needs 'set'"
                    )
                labels = {name: value.get("label", "?")}
                labels.update(value.get("labels", {}))
                out.append((labels, dict(value["set"])))
            else:
                if not path:
                    raise ConfigError(
                        f"scalar axis {name!r} needs a 'path' to sweep"
                    )
                out.append(({name: value}, {path: value}))
        return out

    def expand(self) -> list[CampaignPoint]:
        """The full point matrix, each with a validated RunSpec.

        Axis order is significant: the first axis is the outermost loop.
        """
        if self.points:
            combos = []
            for p in self.points:
                bad = sorted(set(p) - {"labels", "set"})
                if bad:
                    raise ConfigError(f"unknown point field(s) {bad}")
                combos.append((dict(p.get("labels", {})), dict(p.get("set", {}))))
        else:
            per_axis = [self._axis_variants(a) for a in self.axes]
            combos = []
            for combo in itertools.product(*per_axis):
                labels: dict[str, Any] = {}
                overrides: dict[str, Any] = {}
                for lab, over in combo:
                    labels.update(lab)
                    overrides.update(over)
                combos.append((labels, overrides))

        try:
            base_spec = RunSpec.from_dict(self.base)
            parsed = {name: getattr(base_spec, name) for name in SECTION_PARSERS}
        except ConfigError:
            parsed = None
        out: list[CampaignPoint] = []
        for index, (labels, overrides) in enumerate(combos):
            try:
                spec = _point_spec(self.base, parsed, overrides)
            except ConfigError as exc:
                raise ConfigError(
                    f"campaign {self.name!r} point {index} ({labels}): {exc}"
                ) from None
            out.append(CampaignPoint(index=index, labels=labels, spec=spec))
        return out


def _point_spec(base: dict, parsed: dict | None, overrides: Mapping) -> RunSpec:
    """``RunSpec.from_dict(apply_overrides(base, overrides))``; given ``parsed``,
    the sections of a valid ``base``, only the touched ones are parsed again."""
    by_section: dict[str, dict] = {}
    for path, value in overrides.items():
        section, _, rest = path.partition(".")
        if parsed is None or section not in parsed or not rest:
            return RunSpec.from_dict(apply_overrides(base, overrides))
        by_section.setdefault(section, {})[rest] = value
    return RunSpec(**{
        section: parse(apply_overrides(base.get(section, {}), by_section[section]))
        if section in by_section
        else parsed[section]
        for section, parse in SECTION_PARSERS.items()
    })
