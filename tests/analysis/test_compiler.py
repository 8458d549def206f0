"""Tests for the §5 compiler-style profiler and static mode assignment."""

import pytest

from repro.analysis.compiler import (
    profile_summary,
    profile_trace,
    recommend_modes,
)
from repro.cache.state import Mode
from repro.protocol.modes import PerBlockModePolicy, StaticModePolicy
from repro.protocol.stenstrom import StenstromProtocol
from repro.sim.ctrace import CompiledTrace
from repro.sim.engine import run_trace
from repro.sim.system import System, SystemConfig
from repro.types import Address, Op, Reference
from repro.workloads.markov import markov_block_trace


class TestProfileTrace:
    def test_counts_and_sets(self):
        refs = [
            Reference(0, Op.WRITE, Address(3, 0), 1),
            Reference(1, Op.READ, Address(3, 0)),
            Reference(2, Op.READ, Address(3, 0)),
            Reference(0, Op.READ, Address(7, 0)),
        ]
        profiles = profile_trace(refs)
        block3 = profiles[3]
        assert block3.references == 3
        assert block3.writes == 1
        assert block3.write_fraction == pytest.approx(1 / 3)
        assert block3.writers == {0}
        assert block3.readers == {1, 2}
        assert block3.sharers == {0, 1, 2}
        assert block3.single_writer

    def test_multi_writer_detection(self):
        refs = [
            Reference(0, Op.WRITE, Address(0, 0), 1),
            Reference(1, Op.WRITE, Address(0, 0), 2),
        ]
        assert not profile_trace(refs)[0].single_writer

    def test_empty_trace(self):
        assert profile_trace([]) == {}


class TestRecommendModes:
    def test_read_mostly_block_gets_distributed_write(self):
        trace = markov_block_trace(
            8, tasks=[0, 1, 2, 3], write_fraction=0.05,
            n_references=1000, seed=1,
        )
        modes = recommend_modes(trace)
        assert modes[0] is Mode.DISTRIBUTED_WRITE

    def test_write_heavy_block_gets_global_read(self):
        trace = markov_block_trace(
            8, tasks=[0, 1, 2, 3], write_fraction=0.9,
            n_references=1000, seed=2,
        )
        modes = recommend_modes(trace)
        assert modes[0] is Mode.GLOBAL_READ

    def test_threshold_uses_the_block_sharer_count(self):
        # Two sharers: w1 = 0.5, so w = 0.4 still recommends DW even
        # though it would be GR territory for many sharers.
        trace = markov_block_trace(
            8, tasks=[0, 1], write_fraction=0.4,
            n_references=2000, seed=3,
        )
        assert recommend_modes(trace)[0] is (
            Mode.DISTRIBUTED_WRITE
        )

    def test_summary_rows(self):
        trace = markov_block_trace(
            8, tasks=[0, 1], write_fraction=0.2, n_references=100,
            seed=4,
        )
        rows = profile_summary(profile_trace(trace))
        assert len(rows) == 1
        block, refs, w, sharers, single, mode = rows[0]
        assert refs == 100
        assert single == "yes"
        assert mode in ("DW", "GR")


class TestCompilerAssignedModesInTheMachine:
    def _mixed_trace(self):
        read_mostly = markov_block_trace(
            16, list(range(8)), 0.03, 1500, block=0, seed=5
        )
        write_heavy = markov_block_trace(
            16, list(range(8)), 0.85, 1500, block=1, seed=6
        )
        return CompiledTrace.interleave([read_mostly, write_heavy])

    def _cost(self, policy):
        protocol = StenstromProtocol(
            System(SystemConfig(n_nodes=16)), mode_policy=policy
        )
        report = run_trace(
            protocol, self._mixed_trace(), verify=True,
            check_invariants_every=500,
        )
        return report.cost_per_reference

    def test_compiler_modes_beat_both_statics(self):
        modes = recommend_modes(self._mixed_trace())
        assert modes[0] is Mode.DISTRIBUTED_WRITE
        assert modes[1] is Mode.GLOBAL_READ
        compiled = self._cost(PerBlockModePolicy(modes))
        static_dw = self._cost(
            StaticModePolicy(Mode.DISTRIBUTED_WRITE)
        )
        static_gr = self._cost(StaticModePolicy(Mode.GLOBAL_READ))
        assert compiled < min(static_dw, static_gr)

    def test_compiler_modes_match_oracle_closely(self):
        from repro.protocol.modes import OracleModePolicy

        modes = recommend_modes(self._mixed_trace())
        compiled = self._cost(PerBlockModePolicy(modes))
        oracle = self._cost(OracleModePolicy(window=64))
        # The static assignment knows the whole trace up front; it should
        # be at least as good as the windowed oracle, within noise.
        assert compiled <= oracle * 1.1
