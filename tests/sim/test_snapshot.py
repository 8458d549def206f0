"""Tests for coherence-state snapshots and trace combinators."""

import pytest

from repro.cache.state import Mode
from repro.errors import TraceError
from repro.protocol.stenstrom import StenstromProtocol
from repro.sim.ctrace import CompiledTrace
from repro.sim.snapshot import (
    block_snapshot,
    blocks_in_play,
    system_snapshot,
)
from repro.sim.system import System, SystemConfig
from repro.sim.trace import Trace
from repro.types import Address, Op, Reference
from repro.workloads.markov import markov_block_trace


def shared_block_setup():
    system = System(SystemConfig(n_nodes=8))
    protocol = StenstromProtocol(
        system, default_mode=Mode.DISTRIBUTED_WRITE
    )
    protocol.write(0, Address(0, 0), 10)
    protocol.read(1, Address(0, 0))
    return system, protocol


class TestBlockSnapshot:
    def test_figure2_style_picture(self):
        system, _ = shared_block_setup()
        snapshot = block_snapshot(system, 0)
        assert snapshot.recorded_owner == 0
        caches = {row[0] for row in snapshot.rows}
        assert caches == {0, 1}
        text = snapshot.render()
        assert "block 0" in text
        assert "Owned NonExclusively" in text
        assert "UnOwned" in text

    def test_uncached_block(self):
        system = System(SystemConfig(n_nodes=8))
        snapshot = block_snapshot(system, 5)
        assert snapshot.recorded_owner is None
        assert snapshot.rows == ()
        assert "uncached" in snapshot.render()


class TestSystemSnapshot:
    def test_lists_every_block_in_play(self):
        system, protocol = shared_block_setup()
        protocol.write(2, Address(7, 0), 3)
        assert blocks_in_play(system) == [0, 7]
        text = system_snapshot(system)
        assert "block 0" in text and "block 7" in text

    def test_empty_system(self):
        system = System(SystemConfig(n_nodes=8))
        assert system_snapshot(system) == "(no blocks cached)"


class TestTraceCombinators:
    def _traces(self):
        first = markov_block_trace(
            8, [0, 1], 0.5, 10, block=0, seed=1
        )
        second = markov_block_trace(
            8, [2, 3], 0.5, 6, block=1, seed=2
        )
        return first, second

    def test_concatenate_orders_phases(self):
        first, second = self._traces()
        combined = CompiledTrace.concatenate([first, second])
        assert len(combined) == 16
        assert list(combined[:10]) == list(first)
        assert list(combined[10:]) == list(second)

    def test_interleave_round_robins(self):
        first, second = self._traces()
        combined = CompiledTrace.interleave([first, second])
        assert len(combined) == 16
        assert combined[0] == first[0]
        assert combined[1] == second[0]
        # After the shorter runs out, the longer continues.
        assert combined[-1] == first[-1]

    def test_combined_traces_still_validate(self):
        first, second = self._traces()
        CompiledTrace.interleave([first, second]).validate()
        CompiledTrace.concatenate([first, second]).validate()

    def test_mismatched_block_sizes_rejected(self):
        a = Trace([], n_nodes=4, block_size_words=2).compile()
        b = Trace([], n_nodes=4, block_size_words=4).compile()
        with pytest.raises(TraceError):
            CompiledTrace.concatenate([a, b])
        with pytest.raises(TraceError):
            CompiledTrace.interleave([a, b])

    def test_empty_input_rejected(self):
        with pytest.raises(TraceError):
            CompiledTrace.concatenate([])
        with pytest.raises(TraceError):
            CompiledTrace.interleave([])

    def test_node_count_is_the_maximum(self):
        a = Trace(
            [Reference(0, Op.READ, Address(0, 0))],
            n_nodes=2,
            block_size_words=2,
        ).compile()
        b = Trace(
            [Reference(7, Op.READ, Address(0, 0))],
            n_nodes=8,
            block_size_words=2,
        ).compile()
        assert CompiledTrace.concatenate([a, b]).n_nodes == 8
