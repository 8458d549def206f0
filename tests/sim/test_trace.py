"""Unit tests for hand-written traces and the one trace file format."""

import io

import pytest

from repro.errors import TraceError
from repro.sim.trace import (
    Trace,
    dump_trace,
    load_trace,
    parse_trace,
    save_trace,
)
from repro.types import Address, Op, Reference


def sample_trace():
    return Trace(
        [
            Reference(0, Op.WRITE, Address(3, 1), 42),
            Reference(2, Op.READ, Address(3, 1)),
            Reference(1, Op.READ, Address(0, 0)),
        ],
        n_nodes=4,
        block_size_words=2,
    )


class TestValidation:
    def test_valid_trace_constructs(self):
        assert len(sample_trace()) == 3

    def test_node_out_of_range_rejected(self):
        with pytest.raises(TraceError):
            Trace(
                [Reference(4, Op.READ, Address(0, 0))],
                n_nodes=4,
                block_size_words=2,
            )

    def test_offset_out_of_range_rejected(self):
        with pytest.raises(TraceError):
            Trace(
                [Reference(0, Op.READ, Address(0, 2))],
                n_nodes=4,
                block_size_words=2,
            )

    def test_negative_block_rejected(self):
        with pytest.raises(TraceError):
            Trace(
                [Reference(0, Op.READ, Address(-1, 0))],
                n_nodes=4,
                block_size_words=2,
            )

    def test_bad_geometry_rejected(self):
        with pytest.raises(TraceError):
            Trace([], n_nodes=0, block_size_words=2)


class TestStatistics:
    def test_write_fraction(self):
        assert sample_trace().write_fraction == pytest.approx(1 / 3)

    def test_write_fraction_of_empty_trace(self):
        assert Trace([], n_nodes=2).write_fraction == 0.0

    def test_nodes_touching(self):
        assert sample_trace().nodes_touching(3) == {0, 2}
        assert sample_trace().nodes_touching(9) == frozenset()


class TestSerialisation:
    def test_stream_roundtrip(self):
        trace = sample_trace()
        buffer = io.StringIO()
        dump_trace(trace.compile(), buffer)
        parsed = parse_trace(io.StringIO(buffer.getvalue()))
        assert list(parsed) == trace.references
        assert parsed.n_nodes == trace.n_nodes
        assert parsed.block_size_words == trace.block_size_words

    def test_file_roundtrip(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "t.trace"
        save_trace(trace.compile(), path)
        assert list(load_trace(path)) == trace.references

    def test_comments_and_blanks_ignored(self):
        text = (
            "# repro-trace v1 n_nodes=4 block_size=2\n"
            "\n"
            "# a comment\n"
            "0 W 3:1 42\n"
        )
        parsed = parse_trace(io.StringIO(text))
        assert len(parsed) == 1

    def test_missing_header_rejected(self):
        with pytest.raises(TraceError):
            parse_trace(io.StringIO("0 W 3:1 42\n"))

    def test_empty_file_rejected(self):
        with pytest.raises(TraceError):
            parse_trace(io.StringIO(""))

    def test_malformed_line_rejected(self):
        text = "# repro-trace v1 n_nodes=4 block_size=2\n0 W 3 42\n"
        with pytest.raises(TraceError, match="line 2"):
            parse_trace(io.StringIO(text))

    def test_unknown_op_rejected(self):
        text = "# repro-trace v1 n_nodes=4 block_size=2\n0 Z 3:1 42\n"
        with pytest.raises(TraceError, match="unknown operation"):
            parse_trace(io.StringIO(text))

    @pytest.mark.parametrize(
        "line",
        [
            "9223372036854775808 R 0:0 0",
            "0 R 9223372036854775808:0 0",
            "0 W 0:0 -9223372036854775809",
        ],
        ids=["node", "block", "value"],
    )
    def test_field_outside_int64_rejected(self, tmp_path, line):
        path = tmp_path / "huge.trace"
        path.write_text(f"# repro-trace v1 n_nodes=4 block_size=2\n{line}\n")
        with pytest.raises(TraceError, match="line 2: .* outside int64"):
            load_trace(path)

    def test_header_missing_fields_rejected(self):
        with pytest.raises(TraceError):
            parse_trace(io.StringIO("# repro-trace v1 n_nodes=4\n"))
