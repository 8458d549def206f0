"""The paper's two empirical grids, declared once and run on the runner.

:func:`fig8_grid` sweeps the write fraction ``w`` (Figure 8) and
:func:`sharer_grid` the sharer count ``n`` at fixed ``w`` (§4: eq. 10 grows
write-once like ``w(1-w)(n+2)``, eqs. 11/12 cap two-mode at
``min(wn, 2(1-w))``).  Callers run them on
:class:`~repro.runner.executor.Executor`, then :func:`sweep_records` and
:func:`series_by_protocol`.  The runner imports this package, so the
function bodies import the runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import ConfigurationError
from repro.protocol.messages import MessageCosts
from repro.sim.system import SystemConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner.spec import ExperimentSpec, SweepSpec
    from repro.sim.engine import SimulationReport

#: How :func:`sweep_records` reads each grid's swept parameter off a cell.
_PARAMETERS = {
    "n_sharers": lambda spec: len(spec.workload.tasks),
    "write_fraction": lambda spec: spec.workload.write_fraction,
}


@dataclass(frozen=True)
class SweepRecord:
    """One (parameter point, protocol) measurement."""

    protocol: str
    parameters: tuple[tuple[str, object], ...]
    cost_per_reference: float
    total_bits: int
    events: tuple[tuple[str, int], ...]

    def parameter(self, name: str) -> object:
        return dict(self.parameters)[name]


def _markov_grid(
    name, points, n_nodes, message_bits, references, seed, warmup=0
) -> SweepSpec:
    """Every default protocol, sorted, at each ``(w, n_sharers)`` point."""
    from repro.analysis.compare import default_factories
    from repro.runner import SweepSpec, WorkloadSpec

    for _, n in points:
        if not 1 <= n <= n_nodes:
            raise ConfigurationError(
                f"sharer count {n} outside 1..{n_nodes}"
            )
    workloads = [
        WorkloadSpec(
            kind="markov",
            n_nodes=n_nodes,
            n_references=warmup + references,
            write_fraction=w,
            seed=seed,
            tasks=tuple(range(n)),
        )
        for w, n in points
    ]
    costs = MessageCosts.uniform(message_bits)
    return SweepSpec.from_grid(
        name,
        protocols=sorted(default_factories()),
        workloads=workloads,
        configs=[SystemConfig(n_nodes=n_nodes, costs=costs)],
        warmup=warmup,
    )


def fig8_grid(
    name: str,
    write_fractions: Sequence[float],
    n_sharers: int,
    *,
    n_nodes: int = 16,
    message_bits: int = 20,
    references: int = 4000,
    warmup: int = 500,
    seed: int = 0,
) -> SweepSpec:
    """Figure 8's grid: per ``w``, a ``warmup + references`` trace whose
    first ``warmup`` references run unmeasured (steady-state traffic)."""
    if references <= 0:
        raise ConfigurationError(f"need references > 0, got {references}")
    points = [(w, n_sharers) for w in write_fractions]
    return _markov_grid(
        name, points, n_nodes, message_bits, references, seed, warmup
    )


def sharer_grid(
    name: str,
    sharer_counts: Sequence[int],
    write_fraction: float,
    *,
    n_nodes: int = 64,
    references: int = 2500,
    message_bits: int = 20,
    seed: int = 0,
) -> SweepSpec:
    """The sharer sweep's grid: one workload per ``n``, every protocol."""
    points = [(write_fraction, n) for n in sharer_counts]
    return _markov_grid(name, points, n_nodes, message_bits, references, seed)


def sweep_records(
    results: Iterable[tuple[ExperimentSpec, SimulationReport]],
    parameter: str,
) -> list[SweepRecord]:
    """``(spec, report)`` pairs -> one record per cell, carrying the
    swept ``parameter``: ``"n_sharers"`` or ``"write_fraction"``."""
    value_of = _PARAMETERS[parameter]
    return [
        SweepRecord(
            protocol=spec.protocol,
            parameters=((parameter, value_of(spec)),),
            cost_per_reference=report.cost_per_reference,
            total_bits=report.network_total_bits,
            events=tuple(sorted(report.stats.events.items())),
        )
        for spec, report in results
    ]


def sharer_sweep(
    sharer_counts: Sequence[int],
    write_fraction: float,
    *,
    n_nodes: int = 64,
    references: int = 2500,
    message_bits: int = 20,
    seed: int = 0,
) -> list[SweepRecord]:
    """Measured cost per reference vs the number of sharers ``n``."""
    from repro.runner import Executor

    sweep = sharer_grid(
        "sharer-sweep", sharer_counts, write_fraction, n_nodes=n_nodes,
        references=references, message_bits=message_bits, seed=seed,
    )
    pairs = [(result.spec, result.report) for result in Executor().run(sweep)]
    return sweep_records(pairs, "n_sharers")


def series_by_protocol(
    records: Sequence[SweepRecord], parameter: str
) -> dict[str, list[tuple[object, float]]]:
    """Pivot sweep records into per-protocol ``(x, cost)`` series."""
    series: dict[str, list[tuple[object, float]]] = {}
    for record in records:
        series.setdefault(record.protocol, []).append(
            (record.parameter(parameter), record.cost_per_reference)
        )
    for points in series.values():
        points.sort()
    return series
