"""End-to-end protocol comparisons on the trace-driven simulator.

Where :mod:`repro.analysis.figures` evaluates the paper's *formulas*, this
module runs the actual protocol machines over traces and measures what the
network carried -- the empirical counterpart of Figure 8 and the basis of
the extension benchmarks (mode policies, multicast-scheme ablation).

The analytic §4 model counts only steady-state consistency traffic; the
simulator also pays cold-start block loads and bookkeeping messages, so
:func:`simulated_cost_curve` runs a warm-up segment before measuring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.analysis.report import render_table
from repro.analysis.sweep import fig8_grid, series_by_protocol, sweep_records
from repro.cache.state import Mode
from repro.protocol.base import CoherenceProtocol
from repro.protocol.costs import one_traversal
from repro.protocol.full_map import FullMapProtocol
from repro.protocol.modes import OracleModePolicy
from repro.protocol.no_cache import NoCacheProtocol
from repro.protocol.stenstrom import StenstromProtocol
from repro.protocol.write_once import WriteOnceProtocol
from repro.sim.ctrace import CompiledTrace
from repro.sim.engine import SimulationReport, run_trace
from repro.sim.system import System, SystemConfig

ProtocolFactory = Callable[[System], CoherenceProtocol]


def default_factories() -> dict[str, ProtocolFactory]:
    """The standard comparison set (the §4 protocols plus full-map)."""
    return {
        "no-cache": NoCacheProtocol,
        "write-once": WriteOnceProtocol,
        "full-map": FullMapProtocol,
        "distributed-write": lambda system: StenstromProtocol(
            system, default_mode=Mode.DISTRIBUTED_WRITE
        ),
        "global-read": lambda system: StenstromProtocol(
            system, default_mode=Mode.GLOBAL_READ
        ),
        "two-mode": lambda system: StenstromProtocol(
            system, mode_policy=OracleModePolicy(window=32)
        ),
    }


@dataclass(frozen=True)
class ProtocolComparison:
    """Per-protocol reports for one trace."""

    trace_length: int
    reports: Mapping[str, SimulationReport]

    def cost_per_reference(self) -> dict[str, float]:
        return {
            name: report.cost_per_reference
            for name, report in self.reports.items()
        }

    def winner(self) -> str:
        """Protocol with the least traffic per reference."""
        return min(
            self.reports, key=lambda name: self.reports[name].cost_per_reference
        )

    def render(self) -> str:
        rows = [
            (
                name,
                report.network_total_bits,
                f"{report.cost_per_reference:.1f}",
            )
            for name, report in sorted(
                self.reports.items(),
                key=lambda item: item[1].cost_per_reference,
            )
        ]
        return render_table(
            ("protocol", "total bits", "bits/reference"),
            rows,
            title=f"protocol comparison over {self.trace_length} references",
        )


def compare_protocols(
    trace: CompiledTrace,
    config: SystemConfig,
    factories: Mapping[str, ProtocolFactory] | None = None,
    *,
    verify: bool = True,
) -> ProtocolComparison:
    """Run ``trace`` through each protocol on a fresh system and compare."""
    if factories is None:
        factories = default_factories()
    reports = {}
    for name, factory in factories.items():
        system = System(config)
        protocol = factory(system)
        reports[name] = run_trace(protocol, trace, verify=verify)
    return ProtocolComparison(len(trace), reports)


def simulated_cost_curve(
    write_fractions: Sequence[float],
    n_sharers: int,
    *,
    n_nodes: int = 16,
    message_bits: int = 20,
    references: int = 4000,
    warmup: int = 500,
    seed: int = 0,
) -> dict[str, list[tuple[float, float]]]:
    """Empirical Figure 8: normalized measured cost vs write fraction.

    Runs :func:`~repro.analysis.sweep.fig8_grid` and divides each
    protocol's measured steady-state traffic per reference by ``CC1(1)``
    so the curves land on Figure 8's axes.
    """
    from repro.runner import Executor

    sweep = fig8_grid(
        "simulated-cost-curve", write_fractions, n_sharers, n_nodes=n_nodes,
        message_bits=message_bits, references=references, warmup=warmup,
        seed=seed,
    )
    pairs = [(result.spec, result.report) for result in Executor().run(sweep)]
    series = series_by_protocol(
        sweep_records(pairs, "write_fraction"), "write_fraction"
    )
    unit = one_traversal(n_nodes, message_bits)
    return {
        name: [(w, cost / unit) for w, cost in points]
        for name, points in series.items()
    }
