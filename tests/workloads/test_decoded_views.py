"""A generated trace's ``nodes``/``ops``/``blocks``/``offsets`` are views
decoded from its folded column; they must read exactly as the columns
the generators used to emit.

The three seeded generators hand over the fold and ``values`` alone.
The columns they used to append are redrawn here with one
``rng.randrange`` per bounded draw, in each generator's documented draw
order (docs/WORKLOADS.md), and every view -- of the trace, of its slices,
past int64, combined, through the text codec -- must equal them.  A
kernel replay reads the fold and ``values`` only, so it must leave the
views undecoded.

Plain pytest on purpose (CI's ``no-extras`` job runs it): nothing here
may need numpy or hypothesis.
"""

import io
import random

import pytest

from repro.analysis.compare import default_factories
from repro.sim.ctrace import CompiledTrace
from repro.sim.engine import run_trace
from repro.sim.system import System, SystemConfig
from repro.sim.trace import dump_trace, parse_trace
from repro.workloads import (
    markov_block_trace,
    random_trace,
    shared_structure_trace,
)

from tests.workloads.cases import CASES


def _markov(n_nodes, tasks, write_fraction, n_references, *, block=0,
            block_size_words=4, writer=None, seed=0):
    rng = random.Random(seed)
    writer = tasks[0] if writer is None else writer
    rows, written = [], 0
    for _ in range(n_references):
        offset = rng.randrange(block_size_words)
        if rng.random() < write_fraction:
            written += 1
            rows.append((writer, 1, block, offset, written))
        else:
            reader = tasks[rng.randrange(len(tasks))]
            rows.append((reader, 0, block, offset, 0))
    return rows


def _shared(n_nodes, tasks, write_fraction, n_references, *, n_blocks=8,
            first_block=0, block_size_words=4, seed=0):
    rng = random.Random(seed)
    rows, written = [], 0
    for _ in range(n_references):
        index = rng.randrange(n_blocks)
        offset = rng.randrange(block_size_words)
        if rng.random() < write_fraction:
            written += 1
            rows.append((
                tasks[index % len(tasks)], 1, first_block + index, offset,
                written,
            ))
        else:
            reader = tasks[rng.randrange(len(tasks))]
            rows.append((reader, 0, first_block + index, offset, 0))
    return rows


def _random(n_nodes, n_references, *, n_blocks=8, block_size_words=4,
            write_fraction=0.3, locality=0.5, nodes=None, seed=0):
    rng = random.Random(seed)
    nodes = list(range(n_nodes)) if nodes is None else list(nodes)
    last, rows, written = {}, [], 0
    for _ in range(n_references):
        node = nodes[rng.randrange(len(nodes))]
        if node in last and rng.random() < locality:
            block = last[node]
        else:
            block = last[node] = rng.randrange(n_blocks)
        offset = rng.randrange(block_size_words)
        if rng.random() < write_fraction:
            written += 1
            rows.append((node, 1, block, offset, written))
        else:
            rows.append((node, 0, block, offset, 0))
    return rows


#: The seeded generators, each beside the columns it used to append.
REDRAWN = {
    markov_block_trace: _markov,
    shared_structure_trace: _shared,
    random_trace: _random,
}

NAMES = ("nodes", "ops", "blocks", "offsets", "values")


def _expected(case):
    """``(trace, rows)``: a case's trace and its rows as five-tuples --
    redrawn for a seeded generator, the builder's own columns (kept as
    given) otherwise."""
    generator, args, kwargs = CASES[case]
    trace = generator(*args, **kwargs)
    redraw = REDRAWN.get(generator)
    if redraw is None:
        assert trace._columns is not None  # a builder keeps its columns
        rows = list(zip(*(getattr(trace, name) for name in NAMES)))
    else:
        assert trace._columns is None  # handed over as the fold alone
        rows = redraw(*args, **kwargs)
    return trace, rows


def _row(reference):
    """A :class:`~repro.types.Reference` as a five-tuple row."""
    return (
        reference.node, int(reference.is_write), *reference.address,
        reference.value,
    )


def _assert_views(trace, rows):
    """Every column of ``trace`` reads as ``rows`` (five-tuples)."""
    columns = list(zip(*rows)) or [()] * 5
    for name, column in zip(NAMES, columns):
        assert list(getattr(trace, name)) == list(column), name
    assert list(map(_row, trace)) == rows
    assert len(trace) == len(rows)


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_views_are_the_emitted_columns(case):
    trace, rows = _expected(case)
    _assert_views(trace, rows)
    # Decoding the fold of a builder's columns gives the columns back.
    geometry = (trace.n_nodes, trace.block_size_words)
    refolded = CompiledTrace._from_fold(
        trace.folded(*geometry)[0], trace.values, *geometry, proven=True
    )
    _assert_views(refolded, rows)
    assert refolded == trace


@pytest.mark.parametrize("case", sorted(CASES))
def test_slices_read_their_own_rows(case):
    trace, rows = _expected(case)
    folded = trace._columns is None
    n = len(rows)
    warmup = n // 10
    bounds = [
        (warmup, n), (0, warmup), (n // 3, 2 * n // 3), (n - 1, n), (n, n)
    ]
    for start, stop in bounds:
        piece = trace[start:stop]
        assert [
            (*row, value) for row, value in zip(piece._rows(), piece.values)
        ] == rows[start:stop]
        if len(piece):
            assert _row(piece[0]) == rows[start]
            assert _row(piece[-1]) == rows[stop - 1]
    # What the slow loop reads of a slice, and indexing, decode those
    # rows alone; a view decodes the root once, for every slice.
    assert (trace._columns is None) == folded
    for start, stop in bounds:
        piece = trace[start:stop]
        _assert_views(piece, rows[start:stop])
        _assert_views(piece[1:], rows[start + 1 : stop])
    _assert_views(trace[::3], rows[::3])
    _assert_views(trace[::-1], rows[::-1])
    _assert_views(trace, rows)


@pytest.mark.parametrize(
    "make, redraw",
    [
        (
            lambda: markov_block_trace(
                16, [0, 3, 5], 0.3, 400, block=2**62, seed=1
            ),
            lambda: _markov(16, [0, 3, 5], 0.3, 400, block=2**62, seed=1),
        ),
        (
            lambda: shared_structure_trace(
                16, [0, 3, 5], 0.3, 400, first_block=2**62, n_blocks=5,
                seed=1,
            ),
            lambda: _shared(
                16, [0, 3, 5], 0.3, 400, first_block=2**62, n_blocks=5,
                seed=1,
            ),
        ),
    ],
    ids=["markov", "shared-structure"],
)
def test_views_of_a_fold_past_int64(make, redraw):
    trace, rows = make(), redraw()
    assert type(trace._fold[1]) is list
    _assert_views(trace[100:], rows[100:])
    _assert_views(trace, rows)


@pytest.mark.parametrize("verb", ["concatenate", "interleave"])
def test_combined_traces_read_their_parts_views(verb):
    parts = [
        markov_block_trace(16, [0, 3, 5], 0.3, 90, seed=4),
        random_trace(8, 60, n_blocks=5, seed=9),
        shared_structure_trace(16, [1, 2], 0.6, 75, n_blocks=3, seed=2),
    ]
    combined = getattr(CompiledTrace, verb)(parts)
    rows = [
        _markov(16, [0, 3, 5], 0.3, 90, seed=4),
        _random(8, 60, n_blocks=5, seed=9),
        _shared(16, [1, 2], 0.6, 75, n_blocks=3, seed=2),
    ]
    if verb == "concatenate":
        expected = [row for part in rows for row in part]
    else:
        expected = [
            part[at] for at in range(90) for part in rows if at < len(part)
        ]
    _assert_views(combined, expected)
    assert combined.n_nodes == 16


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_text_codec_round_trips_the_views(case):
    trace, rows = _expected(case)
    for piece in (trace, trace[len(rows) // 4 :]):
        text = io.StringIO()
        dump_trace(piece, text)
        text.seek(0)
        parsed = parse_trace(text)
        assert parsed == piece
        _assert_views(parsed, rows[len(rows) - len(piece) :])


@pytest.mark.parametrize("warmup", [0, 700])
@pytest.mark.parametrize(
    "protocol", ["distributed-write", "global-read", "two-mode"]
)
def test_a_kernel_replay_leaves_the_views_undecoded(protocol, warmup):
    trace = markov_block_trace(
        64, list(range(0, 64, 4)), 0.3, 6000, seed=1989
    )
    system = System(SystemConfig(n_nodes=64))
    stenstrom = default_factories()[protocol](system)
    for piece in (trace[:warmup], trace[warmup:]):
        run_trace(
            stenstrom, piece, verify=False, check_invariants_every=0
        )
    kernel = stenstrom.batched_kernel()
    assert kernel.batched_refs > 5000 and kernel.fallback_refs > 0
    assert trace._columns is None
