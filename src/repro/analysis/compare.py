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
from repro.cache.state import Mode
from repro.errors import ConfigurationError
from repro.protocol.base import CoherenceProtocol
from repro.protocol.costs import one_traversal
from repro.protocol.full_map import FullMapProtocol
from repro.protocol.messages import MessageCosts
from repro.protocol.modes import OracleModePolicy
from repro.protocol.no_cache import NoCacheProtocol
from repro.protocol.stenstrom import StenstromProtocol
from repro.protocol.write_once import WriteOnceProtocol
from repro.sim.ctrace import CompiledTrace
from repro.sim.engine import SimulationReport, run_trace
from repro.sim.system import System, SystemConfig
from repro.workloads.markov import markov_block_trace

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
    factories: Mapping[str, ProtocolFactory] | None = None,
    seed: int = 0,
) -> dict[str, list[tuple[float, float]]]:
    """Empirical Figure 8: normalized measured cost vs write fraction.

    For each ``w``, a §4 Markov trace (``n_sharers`` tasks, one writer,
    one shared block) runs through each protocol under the *uniform*
    message-cost model; the measured steady-state traffic per reference is
    divided by ``CC1(1)`` so the curves land on Figure 8's axes.
    """
    if n_sharers < 1 or n_sharers > n_nodes:
        raise ConfigurationError(
            f"need 1 <= n_sharers <= n_nodes, "
            f"got {n_sharers} of {n_nodes}"
        )
    if warmup < 0 or references <= 0:
        raise ConfigurationError(
            f"need warmup >= 0 and references > 0, "
            f"got {warmup} and {references}"
        )
    if factories is None:
        factories = default_factories()
    config = SystemConfig(
        n_nodes=n_nodes,
        costs=MessageCosts.uniform(message_bits),
    )
    unit = one_traversal(n_nodes, message_bits)
    curves: dict[str, list[tuple[float, float]]] = {
        name: [] for name in factories
    }
    tasks = list(range(n_sharers))
    for w in write_fractions:
        trace = markov_block_trace(
            n_nodes,
            tasks,
            w,
            warmup + references,
            block_size_words=config.block_size_words,
            seed=seed,
        )
        for name, factory in factories.items():
            system = System(config)
            protocol = factory(system)
            run_trace(
                protocol,
                trace[:warmup],
                verify=False,
                check_invariants_every=0,
            )
            report = run_trace(
                protocol,
                trace[warmup:],
                verify=False,
                check_invariants_every=0,
            )
            curves[name].append((w, report.cost_per_reference / unit))
    return curves
