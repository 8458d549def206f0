"""Tests for the end-to-end protocol comparison harness."""

import pytest

from repro.analysis.compare import (
    compare_protocols,
    default_factories,
    simulated_cost_curve,
)
from repro.errors import ConfigurationError
from repro.sim.system import SystemConfig
from repro.workloads.markov import markov_block_trace


class TestCompareProtocols:
    def test_all_default_protocols_run(self):
        trace = markov_block_trace(
            8, tasks=[0, 1, 2], write_fraction=0.2, n_references=400,
            seed=1,
        )
        comparison = compare_protocols(trace, SystemConfig(n_nodes=8))
        assert set(comparison.reports) == set(default_factories())
        assert comparison.trace_length == 400

    def test_winner_has_lowest_cost(self):
        trace = markov_block_trace(
            8, tasks=[0, 1, 2, 3], write_fraction=0.05,
            n_references=600, seed=2,
        )
        comparison = compare_protocols(trace, SystemConfig(n_nodes=8))
        costs = comparison.cost_per_reference()
        assert costs[comparison.winner()] == min(costs.values())

    def test_render_sorts_by_cost(self):
        trace = markov_block_trace(
            8, tasks=[0, 1], write_fraction=0.3, n_references=200, seed=3
        )
        comparison = compare_protocols(trace, SystemConfig(n_nodes=8))
        text = comparison.render()
        assert "protocol comparison" in text
        assert comparison.winner() in text

    def test_read_heavy_workload_favours_caching(self):
        """At very low write fractions, the two-mode protocol must beat
        the uncached baseline (the whole point of Figure 8)."""
        trace = markov_block_trace(
            8, tasks=[0, 1, 2, 3], write_fraction=0.02,
            n_references=2000, seed=4,
        )
        comparison = compare_protocols(trace, SystemConfig(n_nodes=8))
        costs = comparison.cost_per_reference()
        assert costs["two-mode"] < costs["no-cache"]
        assert costs["distributed-write"] < costs["no-cache"]


class TestSimulatedCostCurve:
    def test_curve_shapes_match_figure8(self):
        """Empirical Figure 8 on the real simulator: global-read falls
        with w, distributed-write rises with w, two-mode tracks the lower
        envelope (within simulation noise)."""
        curves = simulated_cost_curve(
            (0.05, 0.5, 0.95),
            n_sharers=4,
            n_nodes=8,
            references=1500,
            warmup=300,
            seed=5,
        )
        gr = [y for _, y in curves["global-read"]]
        dw = [y for _, y in curves["distributed-write"]]
        assert gr[0] > gr[-1]  # remote reads dominate at low w
        assert dw[0] < dw[-1]  # multicast writes dominate at high w
        two = dict(curves["two-mode"])
        assert two[0.05] <= gr[0] * 1.1
        assert two[0.95] <= dw[-1] * 1.1

    def test_no_cache_curve_matches_eq9(self):
        curves = simulated_cost_curve(
            (0.0, 0.5, 1.0),
            n_sharers=4,
            n_nodes=8,
            references=1000,
            warmup=100,
            seed=6,
        )
        for w, normalized in curves["no-cache"]:
            observed_w = w  # the generator realises w statistically
            assert normalized == pytest.approx(
                2 - observed_w, abs=0.1
            )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            simulated_cost_curve((0.5,), n_sharers=0)
        with pytest.raises(ConfigurationError):
            simulated_cost_curve((0.5,), n_sharers=4, references=0)
