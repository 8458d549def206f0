"""Unit and property tests for columnar compiled traces.

The load-bearing guarantee is at the bottom: for *every* workload
generator, the compiled trace and its rows handed over as plain
``Reference`` items describe the identical stream and replay to
bit-identical ``SimulationReport`` dictionaries -- through both the
verifying loop and the batched kernel.
"""

import io
from array import array

import pytest

from repro.analysis.compare import default_factories
from repro.errors import TraceError
from repro.sim.ctrace import CompiledTrace, CompiledTraceBuilder
from repro.sim.engine import run_trace
from repro.sim.system import System, SystemConfig
from repro.sim.trace import (
    Trace,
    dump_trace,
    load_trace,
    parse_trace,
    save_trace,
)
from repro.types import Address, Op, Reference
from repro.workloads.locks import spinlock_trace
from repro.workloads.markov import markov_block_trace, shared_structure_trace
from repro.workloads.matrix import jacobi_trace, matrix_multiply_trace
from repro.workloads.sharing import (
    migratory_trace,
    ping_pong_trace,
    producer_consumer_trace,
)
from repro.workloads.synthetic import random_trace


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


def columns(*rows):
    """``(node, op, block, offset, value)`` rows -> five ``array('q')``."""
    return tuple(array("q", column) for column in zip(*rows)) or tuple(
        array("q") for _ in range(5)
    )


class TestRoundTrip:
    def test_compile_preserves_stream(self):
        trace = sample_trace()
        compiled = trace.compile()
        assert len(compiled) == len(trace)
        assert list(compiled) == trace.references
        assert compiled.n_nodes == trace.n_nodes
        assert compiled.block_size_words == trace.block_size_words

    def test_write_fraction_matches(self):
        trace = sample_trace()
        assert trace.compile().write_fraction == trace.write_fraction

    def test_empty_write_fraction(self):
        empty = Trace([], n_nodes=2, block_size_words=2).compile()
        assert empty.write_fraction == 0.0


class TestSequenceBehaviour:
    def test_indexing_yields_references(self):
        compiled = sample_trace().compile()
        assert compiled[0] == Reference(0, Op.WRITE, Address(3, 1), 42)
        assert compiled[-1] == Reference(1, Op.READ, Address(0, 0))

    def test_slicing_yields_compiled_trace(self):
        compiled = sample_trace().compile()
        tail = compiled[1:]
        assert isinstance(tail, CompiledTrace)
        assert len(tail) == 2
        assert list(tail) == sample_trace().references[1:]
        assert tail.n_nodes == compiled.n_nodes
        assert tail.block_size_words == compiled.block_size_words

    def test_equality_distinguishes_geometry(self):
        compiled = sample_trace().compile()
        other = CompiledTrace(
            compiled.nodes,
            compiled.ops,
            compiled.blocks,
            compiled.offsets,
            compiled.values,
            compiled.n_nodes + 4,
            compiled.block_size_words,
        )
        assert compiled != other
        assert compiled == sample_trace().compile()


def _fold(trace, n_nodes, block_size_words):
    """The folded column's definition, row by row."""
    return [
        ((ref.address.block * n_nodes + ref.node) * 2 + ref.is_write)
        * block_size_words
        + ref.address.offset
        for ref in trace
    ]


class TestProofAndFold:
    """What a trace establishes once and its slices inherit."""

    def _root(self):
        return CompiledTrace(
            *columns(
                *(
                    (row % 4, row % 2, row // 3, row % 2, row)
                    for row in range(10)
                )
            ),
            4,
            2,
        )

    def test_a_slice_of_everything_is_the_trace_itself(self):
        root = self._root()
        assert root[:] is root
        assert root[0:] is root
        assert root[0:99] is root
        assert root[-99:] is root
        empty = CompiledTrace(*columns(), 4, 2)
        assert empty[:] is empty
        assert root[1:] is not root
        assert root[::1] is root
        assert root[::-1] is not root

    def test_slices_share_the_roots_fold(self):
        root = self._root()
        column, start = root.folded(8, 4)
        assert start == 0
        assert list(column) == _fold(root, 8, 4)
        outer = root[2:9]
        inner = outer[1:4]
        assert list(inner) == list(root)[3:6]
        for piece, first in ((outer, 2), (inner, 3), (inner[1:], 4)):
            shared, start = piece.folded(8, 4)
            assert shared is column
            assert start == first
            assert list(shared[start : start + len(piece)]) == _fold(
                piece, 8, 4
            )

    def test_a_stepped_slice_folds_for_itself(self):
        root = self._root()
        column, _ = root.folded(8, 4)
        stepped = root[1::2]
        own, start = stepped.folded(8, 4)
        assert own is not column
        assert start == 0
        assert list(own) == _fold(stepped, 8, 4)
        # ... and a contiguous slice of it shares *its* column.
        assert stepped[2:].folded(8, 4) == (own, 2)

    def test_an_empty_slice(self):
        root = self._root()
        for empty in (root[5:2], root[10:], root[3:3]):
            assert len(empty) == 0
            assert empty.fits(4, 2)
            column, start = empty.folded(4, 2)
            assert len(column[start : start + len(empty)]) == 0

    def test_another_geometry_refolds(self):
        root = self._root()
        first, _ = root.folded(4, 2)
        assert root.folded(4, 2)[0] is first
        second, _ = root.folded(8, 4)
        assert list(second) == _fold(root, 8, 4) != list(first)
        # One column is kept, for the geometry asked last.
        assert root[1:].folded(4, 2)[0] is not first
        assert list(root.folded(4, 2)[0]) == _fold(root, 4, 2)

    def test_the_proof_covers_systems_at_least_as_large(self):
        root = self._root()
        assert root.fits(4, 2) and root.fits(1024, 8)
        assert not root.fits(2, 2)
        assert not root.fits(4, 1)
        assert root[2:7].fits(4, 2) and root[::3].fits(4, 2)

    def test_a_fold_past_int64_stays_exact(self):
        huge = CompiledTrace(*columns((1, 1, 2**62, 1, 7)), 4, 2)
        column, _ = huge.folded(4, 2)
        assert list(column) == _fold(huge, 4, 2)
        (keys, counts), _ = huge._window(0, 1)
        assert list(keys) == [column[0] // 2] and list(counts) == [1]


def _window_statistics(fold, block_size):
    """What a window's two statistics hold, by definition."""
    counts = {}
    last = {}
    for row, value in enumerate(fold):
        key = value // block_size
        counts[key] = counts.get(key, 0) + 1
        last.pop(value, None)
        last[value] = row
    return (
        (list(counts), list(counts.values())),
        (list(last), list(last.values())),
    )


class TestWindowStatistics:
    """A window of the folded column is counted once, on the root."""

    def _root(self):
        return CompiledTrace(
            *columns(
                *(
                    (row % 3, row % 2, row // 5, row % 4, row)
                    for row in range(40)
                )
            ),
            4,
            4,
        )

    def test_statistics_match_their_definition(self):
        root = self._root()
        column, _ = root.folded(4, 4)
        for start, stop in ((0, 40), (3, 17), (39, 40)):
            counts, fresh = root._window(start, stop)
            last, _ = root._window(start, stop, last=True)
            assert fresh
            assert (
                (list(counts[0]), list(counts[1])),
                (list(last[0]), list(last[1])),
            ) == _window_statistics(column[start:stop], 4)

    def test_every_slice_reads_the_roots_copy(self):
        root = self._root()
        root.folded(4, 4)
        counts, fresh = root[5:30]._window(8, 16)
        assert fresh
        for piece in (root, root[8:], root[2:20][3:]):
            again, fresh = piece._window(8, 16)
            assert again is counts and not fresh
        # A window is its (start, stop): another stop is another window.
        assert root._window(8, 15)[1]

    def test_statistics_are_immutable(self):
        root = self._root()
        root.folded(4, 4)
        for last in (False, True):
            for sequence in root._window(0, 10, last=last)[0]:
                with pytest.raises(TypeError):
                    sequence[0] = 0

    def test_a_refold_drops_them(self):
        root = self._root()
        root.folded(4, 4)
        first, _ = root._window(0, 10)
        root.folded(4, 4)
        assert root._window(0, 10) == (first, False)
        column, _ = root.folded(8, 4)
        counts, fresh = root._window(0, 10)
        assert fresh and counts is not first
        assert list(counts[0]) == _window_statistics(column[:10], 4)[0][0]


FORMS = ("Trace", "CompiledTrace", "load_trace")
BAD_TRACES = {
    # name: (rows, error, forms that can hold the rows)
    # The earliest failing row wins over an earlier-checked field.
    "earliest-row": (
        [(0, 0, 0, 0, 0), (0, 1, 0, 9, 1), (7, 0, 0, 0, 0)],
        "reference 1: offset 9 outside block of 4 words",
        FORMS,
    ),
    # Within a row: node, then block, then offset.
    "block-before-offset": (
        [(0, 0, 0, 0, 0), (0, 0, -1, 9, 0), (7, 0, 0, 0, 0)],
        "reference 1: negative block -1",
        FORMS,
    ),
    "node-first": (
        [(0, 0, 0, 0, 0), (7, 0, -1, 9, 0)],
        "reference 1: node 7 outside 0..3",
        FORMS,
    ),
    # An op outside {0, 1}: only raw columns can hold one.
    "op-2": (
        [(0, 0, 0, 0, 0), (1, 2, 0, 1, 0)],
        "reference 1: op column holds 2, expected 0 (read) or 1 (write)",
        ("CompiledTrace",),
    ),
    "op-minus-1": (
        [(0, 1, 0, 0, 5), (1, -1, 0, 1, 0)],
        "reference 1: op column holds -1, expected 0 (read) or 1 (write)",
        ("CompiledTrace",),
    ),
}


class TestValidation:
    def test_node_out_of_range_rejected(self):
        with pytest.raises(TraceError, match="node 4"):
            CompiledTrace(*columns((4, 0, 0, 0, 0)), 4, 2)

    def test_negative_block_rejected(self):
        with pytest.raises(TraceError, match="negative block"):
            CompiledTrace(*columns((0, 0, -1, 0, 0)), 4, 2)

    def test_offset_out_of_range_rejected(self):
        with pytest.raises(TraceError, match="offset 2"):
            CompiledTrace(*columns((0, 0, 0, 2, 0)), 4, 2)

    def test_bad_op_rejected(self):
        with pytest.raises(TraceError, match="op column"):
            CompiledTrace(*columns((0, 7, 0, 0, 0)), 4, 2)

    def test_ragged_columns_rejected(self):
        good = columns((0, 0, 0, 0, 0), (1, 1, 0, 1, 9))
        with pytest.raises(TraceError, match="ragged"):
            CompiledTrace(
                good[0][:1], good[1], good[2], good[3], good[4], 4, 2
            )

    def test_bad_geometry_rejected(self):
        with pytest.raises(TraceError):
            CompiledTrace(*columns(), 0, 2)
        with pytest.raises(TraceError):
            CompiledTrace(*columns(), 4, 0)

    def test_error_names_offending_index(self):
        with pytest.raises(TraceError, match="reference 1"):
            CompiledTrace(
                *columns((0, 0, 0, 0, 0), (9, 0, 0, 0, 0)), 4, 2
            )

    @pytest.mark.parametrize(
        "rows, error, form",
        [
            (rows, error, form)
            for rows, error, forms in BAD_TRACES.values()
            for form in forms
        ],
        ids=[
            f"{form}-{name}"
            for name, (_, _, forms) in BAD_TRACES.items()
            for form in forms
        ],
    )
    def test_both_forms_and_loaders_name_the_same_row(
        self, tmp_path, rows, error, form
    ):
        path = tmp_path / "bad.trace"
        path.write_text(
            "# repro-trace v1 n_nodes=4 block_size=4\n"
            + "".join(
                f"{node} {'W' if op else 'R'} {block}:{offset} {value}\n"
                for node, op, block, offset, value in rows
            )
        )
        make = {
            "Trace": lambda: Trace(
                [
                    Reference(
                        node, Op.WRITE if op else Op.READ,
                        Address(block, offset), value,
                    )
                    for node, op, block, offset, value in rows
                ],
                4,
                4,
            ),
            "CompiledTrace": lambda: CompiledTrace(*columns(*rows), 4, 4),
            "load_trace": lambda: load_trace(path),
        }[form]
        with pytest.raises(TraceError) as raised:
            make()
        assert str(raised.value) == error

    def test_the_op_is_checked_after_the_address(self):
        with pytest.raises(TraceError, match="reference 0: offset 9"):
            CompiledTrace(*columns((0, 5, 0, 9, 0)), 4, 4)


class TestBuilders:
    def test_builder_emits_the_stream_it_was_fed(self):
        builder = CompiledTraceBuilder(4, 2)
        builder.write(0, 3, 1, 42)
        builder.read(2, 3, 1)
        builder.read(1, 0, 0)
        built = builder.build()
        assert built == sample_trace().compile()
        assert list(built) == sample_trace().references

    def test_build_hands_the_columns_over(self):
        # A trace's columns are immutable (its bounds proof and folded
        # column rely on it): what the builder takes after build() lands
        # in fresh arrays, never in the trace already handed out.
        builder = CompiledTraceBuilder(4, 2)
        builder.write(0, 3, 1, 42)
        first = builder.build()
        builder.read(2, 3, 1)
        second = builder.build()
        assert len(first) == 1 and first[0].value == 42
        assert len(second) == 1 and second[0].node == 2
        assert len(builder.build()) == 0

    def test_builder_output_validates(self):
        builder = CompiledTraceBuilder(2, 2)
        builder.read(5, 0, 0)
        with pytest.raises(TraceError):
            builder.build()


class TestTextFormat:
    def test_compiled_stream_round_trip(self):
        compiled = sample_trace().compile()
        buffer = io.StringIO()
        dump_trace(compiled, buffer)
        assert parse_trace(buffer.getvalue().splitlines()) == compiled

    def test_dump_trace_accepts_compiled_form(self):
        buffer = io.StringIO()
        dump_trace(sample_trace().compile(), buffer)
        assert buffer.getvalue() == (
            "# repro-trace v1 n_nodes=4 block_size=2\n"
            "0 W 3:1 42\n"
            "2 R 3:1 0\n"
            "1 R 0:0 0\n"
        )

    def test_file_round_trip_across_forms(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "stream.trace"
        save_trace(trace.compile(), path)
        assert list(load_trace(path)) == trace.references
        assert load_trace(path) == trace.compile()

    def test_comments_and_blanks_ignored(self):
        text = [
            "# repro-trace v1 n_nodes=4 block_size=2",
            "",
            "# a comment",
            "0 W 3:1 42",
        ]
        compiled = parse_trace(text)
        assert list(compiled) == [Reference(0, Op.WRITE, Address(3, 1), 42)]

    def test_empty_file_rejected(self):
        with pytest.raises(TraceError, match="empty"):
            parse_trace([])

    def test_malformed_line_rejected(self):
        header = "# repro-trace v1 n_nodes=4 block_size=2"
        with pytest.raises(TraceError, match="line 2"):
            parse_trace([header, "0 W 3:1"])
        with pytest.raises(TraceError, match="unknown operation"):
            parse_trace([header, "0 X 3:1 0"])
        with pytest.raises(TraceError, match="malformed"):
            parse_trace([header, "0 W three:1 0"])


# ----------------------------------------------------------------------
# Property tests: every generator, both inputs, identical replays
# ----------------------------------------------------------------------

# name -> builder(n_nodes) covering every workload generator.
GENERATORS = {
    "markov": lambda n: markov_block_trace(
        n, tasks=list(range(min(n, 6))), write_fraction=0.3,
        n_references=300, seed=11,
    ),
    "shared-structure": lambda n: shared_structure_trace(
        n, tasks=list(range(min(n, 6))), write_fraction=0.4,
        n_references=300, n_blocks=5, seed=13,
    ),
    "random": lambda n: random_trace(
        n, 300, n_blocks=6, write_fraction=0.25, seed=17,
    ),
    "spinlock": lambda n: spinlock_trace(
        n, tasks=list(range(min(n, 4))), n_acquisitions=20,
    ),
    "producer-consumer": lambda n: producer_consumer_trace(
        n, producer=0, consumers=list(range(1, min(n, 5))), n_rounds=15,
    ),
    "migratory": lambda n: migratory_trace(
        n, tasks=list(range(min(n, 5))), n_rounds=15,
    ),
    "ping-pong": lambda n: ping_pong_trace(
        n, first=0, second=1, n_rounds=25,
    ),
    "jacobi": lambda n: jacobi_trace(
        n, tasks=list(range(min(n, 4))), rows=8, sweeps=1,
    ),
    "matrix-multiply": lambda n: matrix_multiply_trace(
        n, tasks=list(range(min(n, 4))), size=4,
    ),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
@pytest.mark.parametrize("n_nodes", [8, 16])
def test_generator_forms_describe_identical_streams(name, n_nodes):
    compiled = GENERATORS[name](n_nodes)
    assert isinstance(compiled, CompiledTrace)
    # The columns and the Reference items they yield are one stream ...
    references = list(compiled)
    assert Trace(references, n_nodes, compiled.block_size_words).compile() == (
        compiled
    )
    assert [compiled[row] for row in range(len(compiled))] == references
    # ... and survive the text format.
    buffer = io.StringIO()
    dump_trace(compiled, buffer)
    assert parse_trace(buffer.getvalue().splitlines()) == compiled


def _replay(trace, n_nodes, *, verify, memoise=True):
    system = System(SystemConfig(n_nodes=n_nodes))
    protocol = default_factories()["two-mode"](system)
    if not memoise:  # walk every send cold, one by one
        system.network.route_plans = None
        protocol.enable_message_log()
    return run_trace(
        protocol,
        trace,
        verify=verify,
        check_invariants_every=100 if verify else 0,
    )


@pytest.mark.parametrize("name", sorted(GENERATORS))
@pytest.mark.parametrize("n_nodes", [8, 16])
def test_generator_forms_replay_identically(name, n_nodes):
    build = GENERATORS[name]
    reference_report = _replay(list(build(n_nodes)), n_nodes, verify=False)
    # The batched kernel (all per-reference checks off) ...
    fast_report = _replay(build(n_nodes), n_nodes, verify=False)
    assert fast_report.to_dict() == reference_report.to_dict()
    # ... and the verifying column loop must agree with the checked loop.
    verified_columns = _replay(build(n_nodes), n_nodes, verify=True)
    verified_reference = _replay(list(build(n_nodes)), n_nodes, verify=True)
    assert verified_columns.to_dict() == verified_reference.to_dict()
    # Route-plan memoisation and the message ledger change nothing: the
    # same references with every send walked switch by switch.
    cold_report = _replay(
        list(build(n_nodes)), n_nodes, verify=False, memoise=False,
    )
    assert cold_report.to_dict() == reference_report.to_dict()
