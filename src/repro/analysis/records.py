"""Persist experiment records as JSON.

Sweeps and comparisons produce plain dataclass records; this module gives
them a stable on-disk form so experiment outputs can be archived, diffed
between library versions, and loaded back without re-running simulations.
The format is intentionally boring: a top-level object with a ``format``
tag, the generating parameters echo, and a list of record dicts.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Sequence

from repro.analysis.sweep import SweepRecord
from repro.errors import ConfigurationError

_FORMAT = "repro-sweep-records-v1"


def records_to_json(
    records: Sequence[SweepRecord],
    *,
    metadata: Mapping[str, object] | None = None,
) -> str:
    """Serialise sweep records (plus free-form metadata) to JSON text."""
    payload = {
        "format": _FORMAT,
        "metadata": dict(metadata or {}),
        "records": [
            {
                "protocol": record.protocol,
                "parameters": dict(record.parameters),
                "cost_per_reference": record.cost_per_reference,
                "total_bits": record.total_bits,
                "events": dict(record.events),
            }
            for record in records
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def records_from_json(text: str) -> tuple[list[SweepRecord], dict]:
    """Parse JSON text back into records and their metadata."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"malformed record file: {error}") from None
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        raise ConfigurationError(
            f"not a {_FORMAT} document "
            f"(format={payload.get('format') if isinstance(payload, dict) else None!r})"
        )
    try:
        records = [
            SweepRecord(
                protocol=item["protocol"],
                parameters=tuple(sorted(item["parameters"].items())),
                cost_per_reference=float(item["cost_per_reference"]),
                total_bits=int(item["total_bits"]),
                events=tuple(sorted(item["events"].items())),
            )
            for item in payload["records"]
        ]
        metadata = dict(payload.get("metadata", {}))
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        raise ConfigurationError(f"malformed record file: {error!r}") from None
    return records, metadata


def save_records(
    records: Sequence[SweepRecord],
    path: str | Path,
    *,
    metadata: Mapping[str, object] | None = None,
) -> None:
    """Write records to ``path``."""
    Path(path).write_text(
        records_to_json(records, metadata=metadata) + "\n",
        encoding="utf-8",
    )


def load_records(path: str | Path) -> tuple[list[SweepRecord], dict]:
    """Read records from ``path``."""
    return records_from_json(Path(path).read_text(encoding="utf-8"))
