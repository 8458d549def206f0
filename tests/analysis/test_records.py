"""Tests for the JSON experiment-record format."""

import json

import pytest

from repro.analysis.records import (
    load_records,
    records_from_json,
    records_to_json,
    save_records,
)
from repro.analysis.sweep import SweepRecord
from repro.errors import ConfigurationError


def sample_records():
    return [
        SweepRecord(
            protocol="two-mode",
            parameters=(("n_sharers", 4),),
            cost_per_reference=12.5,
            total_bits=1000,
            events=(("reads", 70), ("writes", 10)),
        ),
        SweepRecord(
            protocol="no-cache",
            parameters=(("n_sharers", 4),),
            cost_per_reference=40.0,
            total_bits=3200,
            events=(("reads", 70), ("writes", 10)),
        ),
    ]


class TestRoundTrip:
    def test_json_roundtrip_preserves_records(self):
        originals = sample_records()
        text = records_to_json(originals, metadata={"w": 0.3})
        parsed, metadata = records_from_json(text)
        assert parsed == originals
        assert metadata == {"w": 0.3}

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "records.json"
        save_records(sample_records(), path, metadata={"note": "t"})
        parsed, metadata = load_records(path)
        assert parsed == sample_records()
        assert metadata["note"] == "t"

    def test_output_is_deterministic(self):
        first = records_to_json(sample_records())
        second = records_to_json(sample_records())
        assert first == second


class TestValidation:
    def test_malformed_json_rejected(self):
        with pytest.raises(ConfigurationError):
            records_from_json("{not json")

    def test_wrong_format_tag_rejected(self):
        with pytest.raises(ConfigurationError):
            records_from_json('{"format": "something-else", "records": []}')

    def test_non_object_rejected(self):
        with pytest.raises(ConfigurationError):
            records_from_json("[1, 2, 3]")

    @staticmethod
    def _torn(tear):
        """A valid document with ``tear(payload)`` applied to it."""
        payload = json.loads(records_to_json(sample_records()))
        tear(payload)
        return json.dumps(payload)

    def test_missing_records_rejected(self):
        text = self._torn(lambda payload: payload.pop("records"))
        with pytest.raises(ConfigurationError, match="malformed record"):
            records_from_json(text)

    def test_record_missing_parameters_rejected(self):
        text = self._torn(lambda doc: doc["records"][0].pop("parameters"))
        with pytest.raises(ConfigurationError, match="malformed record"):
            records_from_json(text)

    def test_parameters_as_a_list_rejected(self):
        def tear(payload):
            payload["records"][0]["parameters"] = [["n_sharers", 4]]

        with pytest.raises(ConfigurationError, match="malformed record"):
            records_from_json(self._torn(tear))


class TestEndToEnd:
    def test_real_sweep_survives_the_roundtrip(self, tmp_path):
        from repro.analysis.sweep import sharer_sweep

        records = sharer_sweep(
            [2, 4], 0.3, n_nodes=8, references=200, seed=1
        )
        path = tmp_path / "sweep.json"
        save_records(records, path)
        loaded, _ = load_records(path)
        assert loaded == records
