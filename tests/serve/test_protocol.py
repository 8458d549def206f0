"""Wire protocol: framing round trips, limits, submit validation."""

import io
import struct

import pytest

from repro.errors import ConfigurationError, FrameError
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    decode_payload,
    encode_frame,
    parse_submit_cells,
    peek_frame_type,
    peek_spec_hash,
    read_frame_sync,
    route_submit_cells,
    write_frame_sync,
)


def frame_bytes(payload: dict) -> io.BytesIO:
    return io.BytesIO(encode_frame(payload))


class TestFraming:
    def test_round_trip(self):
        payload = {"op": "submit", "cells": [1, 2], "näme": "ünïcode"}
        stream = io.BytesIO()
        write_frame_sync(stream, payload)
        stream.seek(0)
        assert read_frame_sync(stream) == payload

    def test_multiple_frames_back_to_back(self):
        stream = io.BytesIO()
        write_frame_sync(stream, {"n": 1})
        write_frame_sync(stream, {"n": 2})
        stream.seek(0)
        assert read_frame_sync(stream) == {"n": 1}
        assert read_frame_sync(stream) == {"n": 2}
        assert read_frame_sync(stream) is None  # clean EOF

    def test_non_object_payload_is_rejected(self):
        with pytest.raises(FrameError):
            encode_frame(["not", "an", "object"])
        body = b"[1, 2]"
        with pytest.raises(FrameError):
            decode_payload(body)

    def test_invalid_json_is_rejected(self):
        with pytest.raises(FrameError):
            decode_payload(b"{ not json")

    def test_announced_length_beyond_ceiling_is_rejected(self):
        header = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameError):
            read_frame_sync(io.BytesIO(header))

    def test_truncated_header_is_an_error(self):
        with pytest.raises(FrameError):
            read_frame_sync(io.BytesIO(b"\x00\x00"))

    def test_truncated_body_is_an_error(self):
        whole = encode_frame({"op": "ping"})
        with pytest.raises(FrameError):
            read_frame_sync(io.BytesIO(whole[:-3]))

    def test_asyncio_flavour_matches_sync(self):
        import asyncio

        from repro.serve.protocol import read_frame

        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"op": "status"}))
            reader.feed_eof()
            first = await read_frame(reader)
            second = await read_frame(reader)
            return first, second

        first, second = asyncio.run(scenario())
        assert first == {"op": "status"}
        assert second is None

    def test_asyncio_mid_frame_close_is_an_error(self):
        import asyncio

        from repro.serve.protocol import read_frame

        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"op": "ping"})[:-2])
            reader.feed_eof()
            await read_frame(reader)

        with pytest.raises(FrameError):
            asyncio.run(scenario())

    def test_asyncio_mid_header_close_is_an_error(self):
        import asyncio

        from repro.serve.protocol import read_frame

        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"op": "ping"})[:2])
            reader.feed_eof()
            await read_frame(reader)

        with pytest.raises(FrameError, match="mid-header"):
            asyncio.run(scenario())


def spec_dict(seed=0) -> dict:
    from repro.runner.spec import ExperimentSpec, WorkloadSpec
    from repro.sim.system import SystemConfig

    return ExperimentSpec(
        protocol="no-cache",
        workload=WorkloadSpec(
            kind="markov",
            n_nodes=4,
            n_references=40,
            write_fraction=0.3,
            seed=seed,
            tasks=(0, 1),
        ),
        config=SystemConfig(n_nodes=4),
    ).to_dict()


class TestParseSubmitCells:
    def test_valid_cells_round_trip(self):
        name, specs = parse_submit_cells(
            {"name": "demo", "cells": [spec_dict(0), spec_dict(1)]}
        )
        assert name == "demo"
        assert [spec.workload.seed for spec in specs] == [0, 1]
        assert specs[0].to_dict() == spec_dict(0)

    def test_name_defaults(self):
        name, _ = parse_submit_cells({"cells": [spec_dict()]})
        assert name == "submit"

    def test_empty_name_is_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_submit_cells({"name": "", "cells": [spec_dict()]})

    def test_missing_or_empty_cells_are_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_submit_cells({"name": "demo"})
        with pytest.raises(ConfigurationError):
            parse_submit_cells({"name": "demo", "cells": []})

    def test_non_object_cell_names_its_index(self):
        with pytest.raises(ConfigurationError, match="cell 1"):
            parse_submit_cells({"cells": [spec_dict(), "nope"]})

    def test_invalid_spec_names_its_index(self):
        broken = spec_dict()
        broken["workload"]["kind"] = "no-such-generator"
        with pytest.raises(ConfigurationError, match="cell 0"):
            parse_submit_cells({"cells": [broken]})


class TestRouteSubmitCells:
    def test_hashes_match_the_spec_hash(self):
        from repro.runner.spec import ExperimentSpec

        cells = [spec_dict(0), spec_dict(1)]
        name, routed, hashes = route_submit_cells(
            {"name": "demo", "cells": cells}
        )
        assert name == "demo"
        assert routed is cells  # forwarded verbatim, never rebuilt
        assert hashes == [
            ExperimentSpec.from_dict(cell).spec_hash for cell in cells
        ]

    def test_shape_errors_match_full_validation(self):
        with pytest.raises(ConfigurationError, match="name"):
            route_submit_cells({"name": "", "cells": [spec_dict()]})
        with pytest.raises(ConfigurationError, match="cells"):
            route_submit_cells({"name": "demo", "cells": []})

    def test_malformed_cell_is_not_its_problem(self):
        # Routing hashes whatever it is given; the owning shard is the
        # validation authority and will refuse the cell itself.
        _, _, hashes = route_submit_cells(
            {"cells": [{"not": "a spec"}]}
        )
        assert len(hashes) == 1


class TestPeeks:
    def test_peek_type_matches_decode_for_streamed_frames(self):
        frames = [
            {"type": "event", "event": "task_hot", "task": "ab"},
            {
                "type": "result",
                "task": "ab",
                "spec_hash": "a" * 64,
                "source": "hot",
                "report": {"total_bits": 1, "zz": {"type": "nested"}},
            },
            {"type": "error", "task": "ab", "spec_hash": "b" * 64,
             "error": "boom"},
            {"type": "done", "id": None, "name": "x", "tasks": 2,
             "queued": 0, "coalesced": 0, "cached": 2, "failed": 0},
            {"type": "artifact", "task": "ab", "spec_hash": "c" * 64,
             "heatmaps": {}},
        ]
        for payload in frames:
            raw = encode_frame(payload)
            assert peek_frame_type(raw) == payload["type"]

    def test_peek_type_falls_back_when_type_is_not_last(self):
        # "unique" sorts after "type", so the accepted frame cannot be
        # classified from its tail -- peek must say so, not guess.
        raw = encode_frame({"type": "accepted", "unique": 4})
        assert peek_frame_type(raw) is None

    def test_peek_spec_hash_ignores_nested_occurrences(self):
        decoy = {"spec_hash": "0" * 64, "text": '"spec_hash": "fake'}
        raw = encode_frame(
            {
                "type": "result",
                "task": "ab",
                "spec_hash": "f" * 64,
                "source": "hot",
                "report": decoy,
            }
        )
        assert peek_spec_hash(raw) == "f" * 64

    def test_peek_spec_hash_absent(self):
        raw = encode_frame({"type": "done", "failed": 0})
        assert peek_spec_hash(raw) is None
