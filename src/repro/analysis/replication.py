"""Replication across seeds with confidence intervals.

Single-seed measurements of a stochastic workload are point samples; a
reproduction worth trusting states its uncertainty.  :func:`replicate`
runs any seed-parameterised measurement over several seeds and returns
the mean with a Student-t confidence interval (scipy);
:func:`replicated_cost` packages the common case -- cost per reference of
a protocol on a seeded workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import ConfigurationError
from repro.protocol.base import CoherenceProtocol
from repro.sim.engine import run_trace
from repro.sim.system import System, SystemConfig


@dataclass(frozen=True)
class ReplicatedMeasurement:
    """Mean and t-based confidence interval over seed replicates."""

    mean: float
    std: float
    ci_low: float
    ci_high: float
    n_replicates: int
    confidence: float

    @property
    def half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0

    def overlaps(self, other: "ReplicatedMeasurement") -> bool:
        """Whether the two intervals overlap (a quick significance read:
        non-overlap implies a significant difference at this level)."""
        return not (
            self.ci_high < other.ci_low or other.ci_high < self.ci_low
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.mean:.2f} ± {self.half_width:.2f} "
            f"({self.confidence:.0%} CI, n={self.n_replicates})"
        )


def replicate(
    measure: Callable[[int], float],
    seeds: Sequence[int],
    *,
    confidence: float = 0.95,
) -> ReplicatedMeasurement:
    """Run ``measure(seed)`` for every seed and summarise."""
    if len(seeds) < 2:
        raise ConfigurationError(
            f"need at least two seeds for an interval, got {len(seeds)}"
        )
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    # Imported here, not at module level: the runner and the CLI import
    # this package, so its import is on every process's cold-start path.
    try:
        from scipy import stats as scipy_stats
    except ImportError as error:
        raise ConfigurationError(
            "replicate needs scipy: install the 'analysis' extra "
            "(pip install repro[analysis])"
        ) from error
    values = [float(measure(seed)) for seed in seeds]
    n = len(values)
    mean = sum(values) / n
    variance = sum((value - mean) ** 2 for value in values) / (n - 1)
    std = math.sqrt(variance)
    t_critical = float(scipy_stats.t.ppf((1 + confidence) / 2, df=n - 1))
    half = t_critical * std / math.sqrt(n)
    return ReplicatedMeasurement(
        mean=mean,
        std=std,
        ci_low=mean - half,
        ci_high=mean + half,
        n_replicates=n,
        confidence=confidence,
    )


def replicated_cost(
    protocol_factory: Callable[[System], CoherenceProtocol],
    trace_factory: Callable[[int], object],
    config: SystemConfig,
    seeds: Sequence[int],
    *,
    confidence: float = 0.95,
) -> ReplicatedMeasurement:
    """Cost per reference, replicated over workload seeds."""

    def measure(seed: int) -> float:
        protocol = protocol_factory(System(config))
        report = run_trace(
            protocol,
            trace_factory(seed),
            verify=False,
            check_invariants_every=0,
        )
        return report.cost_per_reference

    return replicate(measure, seeds, confidence=confidence)
