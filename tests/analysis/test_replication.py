"""Tests for seed replication and confidence intervals."""

import pytest
from scipy import stats as scipy_stats

from repro.analysis.replication import (
    ReplicatedMeasurement,
    replicate,
    replicated_cost,
)
from repro.errors import ConfigurationError
from repro.runner import WorkloadSpec
from repro.sim.system import SystemConfig


class TestReplicate:
    def test_constant_measure_has_zero_width(self):
        result = replicate(lambda seed: 5.0, [1, 2, 3, 4])
        assert result.mean == 5.0
        assert result.half_width == 0.0

    def test_interval_matches_scipy_reference(self):
        values = {1: 10.0, 2: 12.0, 3: 9.0, 4: 13.0, 5: 11.0}
        result = replicate(values.get, list(values))
        low, high = scipy_stats.t.interval(
            0.95,
            df=4,
            loc=result.mean,
            scale=result.std / 5**0.5,
        )
        assert result.ci_low == pytest.approx(low)
        assert result.ci_high == pytest.approx(high)

    def test_wider_confidence_widens_interval(self):
        values = {1: 10.0, 2: 12.0, 3: 9.0}
        narrow = replicate(values.get, [1, 2, 3], confidence=0.8)
        wide = replicate(values.get, [1, 2, 3], confidence=0.99)
        assert wide.half_width > narrow.half_width

    def test_overlap_detection(self):
        a = ReplicatedMeasurement(10, 1, 9, 11, 5, 0.95)
        b = ReplicatedMeasurement(10.5, 1, 9.5, 11.5, 5, 0.95)
        c = ReplicatedMeasurement(20, 1, 19, 21, 5, 0.95)
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c) and not c.overlaps(a)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            replicate(lambda seed: 1.0, [1])
        with pytest.raises(ConfigurationError):
            replicate(lambda seed: 1.0, [1, 2], confidence=1.5)


class TestReplicatedCost:
    def _workload(self, w):
        return WorkloadSpec(
            kind="markov", n_nodes=8, n_references=800,
            write_fraction=w, tasks=(0, 1, 2, 3),
        )

    def test_protocols_separate_significantly(self):
        """At w = 0.05 the DW protocol beats no-cache by far more than
        seed noise: the confidence intervals must not overlap."""
        config = SystemConfig(n_nodes=8)
        seeds = list(range(5))
        dw = replicated_cost(
            "distributed-write", self._workload(0.05), config, seeds
        )
        uncached = replicated_cost(
            "no-cache", self._workload(0.05), config, seeds
        )
        assert dw.mean < uncached.mean
        assert not dw.overlaps(uncached)

    def test_replicates_have_modest_spread(self):
        config = SystemConfig(n_nodes=8)
        result = replicated_cost(
            "no-cache", self._workload(0.3), config, list(range(4))
        )
        assert result.half_width < 0.1 * result.mean
