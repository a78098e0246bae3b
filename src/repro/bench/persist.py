"""Persistence of benchmark records.

The figure drivers print tables and ASCII plots; this module additionally
writes the raw :class:`repro.bench.runner.RunRecord` lists as JSON so
successive runs can be diffed — the simulated times are fully
deterministic, so any change between two runs of the same commit is a bug,
and changes across commits quantify the effect of a code change.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

from repro.bench.runner import RunRecord

#: Bump when the serialized shape changes.
SCHEMA_VERSION = 1


def _jsonable(value):
    """Coerce params to JSON-safe values (e.g. strategy objects -> names)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    name = getattr(value, "name", None)
    if isinstance(name, str):
        return name
    return repr(value)


def save_records(records: Sequence[RunRecord], path: str | Path) -> Path:
    """Write records to ``path`` as a self-describing JSON document."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": SCHEMA_VERSION,
        "records": [
            {
                **{k: v for k, v in asdict(r).items() if k != "params"},
                "params": {k: _jsonable(v) for k, v in r.params.items()},
            }
            for r in records
        ],
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path
