"""What every generator hands over: the bounds proof and the folded column.

The seeded generators emit the folded column and the ``values`` column in
their draw loop and attach the proof from the ranges their argument
checks already bound; the five builder generators append the fold per
row and still validate.  Either way the trace must be exactly what
``validate()`` and ``_build_fold`` would have made of its rows, so the
kernel cannot tell the two apart.

Plain pytest on purpose (CI's ``no-extras`` job runs it): generation is
on every cold cell, and nothing here may need numpy or hypothesis.
"""

import sys
import tracemalloc
from itertools import accumulate
from operator import mul

import pytest

from repro.errors import TraceError
from repro.protocol.stenstrom import StenstromProtocol
from repro.sim.ctrace import CompiledTrace
from repro.sim.engine import run_trace
from repro.sim.system import System, SystemConfig
from repro.workloads import markov_block_trace, shared_structure_trace

from tests.workloads.cases import CASES

SEEDED = {"markov_block_trace", "shared_structure_trace", "random_trace"}


@pytest.fixture
def validations(monkeypatch):
    """How many times ``CompiledTrace.validate`` ran."""
    calls = []
    validate = CompiledTrace.validate

    def counting_validate(trace):
        calls.append(len(trace))
        return validate(trace)

    monkeypatch.setattr(CompiledTrace, "validate", counting_validate)
    return calls


def _handed_over(trace):
    """The trace's own fold, checked to be for its declared geometry."""
    geometry, fold = trace._fold
    assert geometry == (trace.n_nodes, trace.block_size_words)
    column, start = trace.folded(*geometry)
    assert column is fold and start == 0
    return fold


@pytest.mark.parametrize("case", sorted(CASES))
def test_emitted_proof_and_fold_equal_validate_and_build_fold(
    case, validations
):
    generator, args, kwargs = CASES[case]
    trace = generator(*args, **kwargs)
    seeded = generator.__name__ in SEEDED
    # Seeded rows are proven by their draws; builder rows by validate().
    assert validations == ([] if seeded else [len(trace)])
    fold = _handed_over(trace)
    geometry = (trace.n_nodes, trace.block_size_words)
    expected = trace._build_fold(*geometry)
    assert type(fold) is type(expected)
    assert list(fold) == list(expected)
    assert trace.fits(*geometry)
    trace.validate()
    written = accumulate(trace.ops)
    assert list(trace.values) == list(map(mul, written, trace.ops))


class TestEdges:
    """Where the argument checks cannot prove a range, or int64 ends."""

    def test_a_negative_block_still_fails_validation(self):
        with pytest.raises(
            TraceError, match=r"^reference 0: negative block -1$"
        ):
            markov_block_trace(16, [0, 3], 0.3, 5, block=-1)

    def test_a_negative_first_block_fails_at_its_first_row(self):
        # Blocks are first_block + index with the index drawn first, so
        # the draws (and the first negative row) do not depend on it.
        kwargs = dict(n_blocks=6, seed=7)
        drawn = shared_structure_trace(16, [0, 3], 0.3, 50, **kwargs).blocks
        index = next(i for i, block in enumerate(drawn) if block < 3)
        with pytest.raises(
            TraceError,
            match=rf"^reference {index}: negative block {drawn[index] - 3}$",
        ):
            shared_structure_trace(
                16, [0, 3], 0.3, 50, first_block=-3, **kwargs
            )

    def test_an_empty_trace_with_a_negative_block_is_valid(self):
        trace = markov_block_trace(16, [0], 0.5, 0, block=-1)
        assert len(trace) == 0 and trace.fits(16, 4)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: markov_block_trace(
                16, [0, 3, 5], 0.3, 400, block=2**62, seed=1,
            ),
            lambda: shared_structure_trace(
                16, [0, 3, 5], 0.3, 400, first_block=2**62, n_blocks=5,
                seed=1,
            ),
        ],
        ids=["markov", "shared-structure"],
    )
    def test_a_fold_past_int64_stays_exact_and_replays_alike(self, make):
        trace = make()
        fold = _handed_over(trace)
        assert type(fold) is list
        assert fold == trace._build_fold(16, 4)
        reports = []
        for references in (trace, list(make())):
            protocol = StenstromProtocol(System(SystemConfig(n_nodes=16)))
            reports.append(
                run_trace(
                    protocol, references, verify=False,
                    check_invariants_every=0,
                ).to_dict()
            )
            batched = protocol.batched_kernel().batched_refs
            assert (batched > 0) == (references is trace)
        assert reports[0] == reports[1]


def test_generation_peaks_near_its_own_columns():
    # The fold and values columns are appended to array('q') in the draw
    # loop; as lists they would hold a boxed pointer per row on top
    # (measured 2.48x), and folding after the loop 1.62x.
    tracemalloc.start()
    try:
        trace = markov_block_trace(
            1024, list(range(0, 1024, 16)), 0.3, 100_000, seed=1989,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    columns = (
        trace.nodes, trace.ops, trace.blocks, trace.offsets, trace.values,
        _handed_over(trace),
    )
    assert peak <= 1.6 * sum(map(sys.getsizeof, columns))
