"""Seed determinism across independent generator instantiations.

The runner's deterministic sharding (parallel results bit-identical to
sequential) rests on one property: rebuilding a workload from the same
parameters and seed -- in another call, another process, another machine
-- yields the *identical* reference stream.  These tests pin that down
for the generators the runner dispatches to.
"""

from repro.workloads.markov import (
    markov_block_trace,
    shared_structure_trace,
)
from repro.workloads.synthetic import random_trace


class TestMarkovDeterminism:
    def test_same_seed_identical_trace(self):
        kwargs = dict(
            tasks=[0, 2, 5],
            write_fraction=0.35,
            n_references=400,
            seed=21,
        )
        first = markov_block_trace(8, **kwargs)
        second = markov_block_trace(8, **kwargs)
        assert list(first) == list(second)

    def test_different_seed_different_trace(self):
        kwargs = dict(tasks=[0, 1], write_fraction=0.5, n_references=400)
        assert (
            list(markov_block_trace(8, seed=1, **kwargs))
            != list(markov_block_trace(8, seed=2, **kwargs))
        )

    def test_shared_structure_same_seed_identical_trace(self):
        kwargs = dict(
            tasks=[0, 1, 2],
            write_fraction=0.2,
            n_references=400,
            n_blocks=6,
            seed=9,
        )
        first = shared_structure_trace(8, **kwargs)
        second = shared_structure_trace(8, **kwargs)
        assert list(first) == list(second)


class TestSyntheticDeterminism:
    def test_same_seed_identical_trace(self):
        kwargs = dict(
            n_blocks=16,
            write_fraction=0.4,
            locality=0.6,
            seed=33,
        )
        first = random_trace(8, 400, **kwargs)
        second = random_trace(8, 400, **kwargs)
        assert list(first) == list(second)

    def test_different_seed_different_trace(self):
        assert (
            list(random_trace(8, 400, seed=1))
            != list(random_trace(8, 400, seed=2))
        )

    def test_restricted_node_set_still_deterministic(self):
        first = random_trace(8, 300, nodes=[1, 3, 5], seed=7)
        second = random_trace(8, 300, nodes=[1, 3, 5], seed=7)
        assert list(first) == list(second)
