"""Unit and property tests for the workload generators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.workloads.markov import markov_block_trace, shared_structure_trace
from repro.workloads.matrix import jacobi_trace, matrix_multiply_trace
from repro.workloads.sharing import (
    migratory_trace,
    ping_pong_trace,
    producer_consumer_trace,
)
from repro.workloads.synthetic import random_trace


class TestMarkovBlockTrace:
    def test_write_fraction_is_respected(self):
        trace = markov_block_trace(
            8, tasks=[0, 1, 2, 3], write_fraction=0.25,
            n_references=8000, seed=1,
        )
        assert trace.write_fraction == pytest.approx(0.25, abs=0.02)

    def test_single_writer_model(self):
        trace = markov_block_trace(
            8, tasks=[2, 3, 4], write_fraction=0.5, n_references=500,
            seed=2,
        )
        writers = {ref.node for ref in trace if ref.is_write}
        assert writers == {2}

    def test_readers_are_only_tasks(self):
        trace = markov_block_trace(
            8, tasks=[5, 6], write_fraction=0.1, n_references=500, seed=3
        )
        assert {ref.node for ref in trace} <= {5, 6}

    def test_deterministic_by_seed(self):
        kwargs = dict(write_fraction=0.3, n_references=100, seed=7)
        first = markov_block_trace(8, [0, 1], **kwargs)
        second = markov_block_trace(8, [0, 1], **kwargs)
        assert list(first) == list(second)

    def test_written_values_are_unique(self):
        trace = markov_block_trace(
            8, tasks=[0, 1], write_fraction=0.5, n_references=400, seed=4
        )
        values = [ref.value for ref in trace if ref.is_write]
        assert len(values) == len(set(values))

    def test_explicit_writer(self):
        trace = markov_block_trace(
            8, tasks=[0, 1, 2], write_fraction=1.0, n_references=10,
            writer=2,
        )
        assert {ref.node for ref in trace} == {2}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            markov_block_trace(8, [], 0.5, 10)
        with pytest.raises(ConfigurationError):
            markov_block_trace(8, [9], 0.5, 10)
        with pytest.raises(ConfigurationError):
            markov_block_trace(8, [0, 0], 0.5, 10)
        with pytest.raises(ConfigurationError):
            markov_block_trace(8, [0], 1.5, 10)
        with pytest.raises(ConfigurationError):
            markov_block_trace(8, [0, 1], 0.5, 10, writer=5)


class TestSharedStructureTrace:
    def test_each_block_has_one_writer(self):
        trace = shared_structure_trace(
            8, tasks=[0, 1, 2], write_fraction=0.4, n_references=2000,
            n_blocks=6, seed=5,
        )
        writers_per_block = {}
        for ref in trace:
            if ref.is_write:
                writers_per_block.setdefault(
                    ref.address.block, set()
                ).add(ref.node)
        assert all(len(w) == 1 for w in writers_per_block.values())

    def test_blocks_are_in_declared_range(self):
        trace = shared_structure_trace(
            8, [0, 1], 0.3, 500, n_blocks=4, first_block=10, seed=6
        )
        blocks = {ref.address.block for ref in trace}
        assert blocks <= set(range(10, 14))


class TestSharingPatterns:
    def test_producer_consumer_roles(self):
        trace = producer_consumer_trace(8, 0, [1, 2], 3)
        assert {r.node for r in trace if r.is_write} == {0}
        assert {r.node for r in trace if r.is_read} == {1, 2}

    def test_producer_consumer_round_structure(self):
        trace = producer_consumer_trace(
            8, 0, [1], 2, block_size_words=4
        )
        # Per round: 4 writes + 4 reads.
        assert len(trace) == 2 * (4 + 4)

    def test_migratory_every_task_writes(self):
        trace = migratory_trace(8, [0, 1, 2], 2)
        assert {r.node for r in trace if r.is_write} == {0, 1, 2}

    def test_migratory_read_precedes_write(self):
        trace = migratory_trace(8, [3, 4], 1)
        ops = [(r.node, r.op.value) for r in trace]
        assert ops == [(3, "R"), (3, "W"), (4, "R"), (4, "W")]

    def test_ping_pong_alternates(self):
        trace = ping_pong_trace(8, 0, 1, 2)
        nodes = [r.node for r in trace]
        assert nodes == [0, 0, 1, 1, 0, 0, 1, 1]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            producer_consumer_trace(8, 0, [1], -1)
        with pytest.raises(ConfigurationError):
            migratory_trace(8, [0, 8], 1)


class TestMatrixWorkloads:
    def test_jacobi_rows_have_single_writers(self):
        trace = jacobi_trace(
            8, tasks=[0, 1, 2, 3], rows=8, row_words=4, sweeps=2,
            block_size_words=2,
        )
        writers = {}
        for ref in trace:
            if ref.is_write:
                writers.setdefault(ref.address.block, set()).add(ref.node)
        assert all(len(w) == 1 for w in writers.values())

    def test_jacobi_reads_cross_band_boundaries(self):
        trace = jacobi_trace(
            8, tasks=[0, 1], rows=4, row_words=2, sweeps=1,
            block_size_words=2,
        )
        # Task 1 must read task 0's boundary row (row 1 -> block 1).
        assert any(
            ref.node == 1 and ref.is_read and ref.address.block == 1
            for ref in trace
        )

    def test_matmul_b_matrix_is_read_only(self):
        trace = matrix_multiply_trace(
            8, tasks=[0, 1], size=4, block_size_words=2
        )
        per_row = 2  # 4 words / 2 per block
        b_blocks = set(range(4 * per_row, 8 * per_row))
        written = {r.address.block for r in trace if r.is_write}
        assert written.isdisjoint(b_blocks)

    def test_matmul_c_rows_partitioned(self):
        trace = matrix_multiply_trace(
            8, tasks=[0, 1], size=4, block_size_words=2
        )
        writers = {}
        for ref in trace:
            if ref.is_write:
                writers.setdefault(ref.address.block, set()).add(ref.node)
        assert all(len(w) == 1 for w in writers.values())

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            jacobi_trace(8, [], rows=4)
        with pytest.raises(ConfigurationError):
            jacobi_trace(8, [0, 1, 2], rows=2)
        with pytest.raises(ConfigurationError):
            matrix_multiply_trace(8, [], size=4)
        with pytest.raises(ConfigurationError):
            matrix_multiply_trace(8, [0, 1, 2], size=2)
        with pytest.raises(ConfigurationError):
            jacobi_trace(8, [0, 9], rows=4)


class TestRandomTrace:
    @settings(max_examples=25, deadline=None)
    @given(
        w=st.floats(0, 1),
        locality=st.floats(0, 1),
        seed=st.integers(0, 100),
    )
    def test_always_valid(self, w, locality, seed):
        trace = random_trace(
            8, 200, n_blocks=5, write_fraction=w, locality=locality,
            seed=seed,
        )
        trace.validate()
        assert len(trace) == 200

    def test_locality_increases_repeats(self):
        def repeat_rate(locality):
            trace = random_trace(
                8, 4000, n_blocks=16, locality=locality, seed=1
            )
            last = {}
            repeats = 0
            for ref in trace:
                if last.get(ref.node) == ref.address.block:
                    repeats += 1
                last[ref.node] = ref.address.block
            return repeats / len(trace)

        assert repeat_rate(0.9) > repeat_rate(0.0) + 0.2

    def test_restricted_node_set(self):
        trace = random_trace(8, 100, nodes=[2, 5], seed=2)
        assert {ref.node for ref in trace} <= {2, 5}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            random_trace(8, -1)
        with pytest.raises(ConfigurationError):
            random_trace(8, 10, n_blocks=0)
        with pytest.raises(ConfigurationError):
            random_trace(8, 10, write_fraction=2.0)
        with pytest.raises(ConfigurationError):
            random_trace(8, 10, nodes=[8])
