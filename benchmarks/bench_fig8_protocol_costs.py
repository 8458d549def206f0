"""Figure 8: normalized communication cost per reference vs write fraction.

Two layers:

* the analytic curves exactly as in the paper (no-cache bold reference,
  write-once dashed, two-mode solid, for several sharer counts), with the
  §4 claims asserted on the data;
* an *empirical* Figure 8 (extension): the same workloads run through the
  actual protocol machines on the simulated network, normalized the same
  way -- who-wins and crossover locations must agree with the analysis.
  The empirical grid is :func:`repro.analysis.sweep.fig8_grid` (write
  fraction x protocol, with the cold-start warm-up split), executed
  through the runner, asserting the parallel fan-out equals the
  sequential reference path.
"""

import json

import pytest
from conftest import save_exhibit

from repro.analysis.figures import fig8_data
from repro.analysis.report import render_series
from repro.analysis.sweep import fig8_grid, series_by_protocol, sweep_records
from repro.protocol.costs import (
    normalized_no_cache,
    normalized_two_mode,
    normalized_write_once,
    one_traversal,
    two_mode_peak,
)
from repro.protocol.modes import write_fraction_threshold
from repro.runner import Executor

N_VALUES = (4, 16, 64)


def test_fig8_analytic(benchmark):
    data = benchmark(fig8_data, N_VALUES)
    reference = dict(data["no cache"])
    for n in N_VALUES:
        two_mode = dict(data[f"two-mode n={n}"])
        write_once = dict(data[f"write-once n={n}"])
        for w in reference:
            # The §4 claims: two-mode below no-cache and write-once.
            assert two_mode[w] <= reference[w] + 1e-12
            assert two_mode[w] <= write_once[w] + 1e-12
        assert max(two_mode.values()) <= two_mode_peak(n) + 1e-12
    chart = render_series(
        {
            key: value
            for key, value in data.items()
            if "n=16" in key or key == "no cache"
        },
        title="Figure 8 (n=16): normalized CC per reference vs w",
    )
    peaks = "\n".join(
        f"n={n:3d}: w1={write_fraction_threshold(n):.3f}, "
        f"two-mode peak={two_mode_peak(n):.3f} (< 2 = no-cache bound)"
        for n in N_VALUES
    )
    save_exhibit("fig8_analytic", f"{chart}\n\n{peaks}")


def test_fig8_simulated(benchmark):
    """Empirical Figure 8 on the trace-driven simulator, via the runner."""
    write_fractions = (0.05, 0.2, 0.5, 0.8, 0.95)
    n_nodes, n_sharers = 16, 8
    sweep = fig8_grid(
        "fig8-simulated",
        write_fractions,
        n_sharers,
        n_nodes=n_nodes,
        references=2500,
        warmup=500,
        seed=17,
    )
    results = benchmark.pedantic(
        Executor(workers=0).run, args=(sweep,), iterations=1, rounds=1
    )

    # Parallel execution reproduces the sequential cells bit for bit.
    parallel = Executor(workers=4).run(sweep)
    for sequential_cell, parallel_cell in zip(results, parallel):
        assert json.dumps(
            sequential_cell.report.to_dict(), sort_keys=True
        ) == json.dumps(parallel_cell.report.to_dict(), sort_keys=True)

    unit = one_traversal(n_nodes, 20)
    records = sweep_records(
        [(result.spec, result.report) for result in results],
        "write_fraction",
    )
    curves = {
        name: [(w, cost / unit) for w, cost in points]
        for name, points in series_by_protocol(
            records, "write_fraction"
        ).items()
    }

    no_cache = dict(curves["no-cache"])
    two_mode = dict(curves["two-mode"])
    write_once = dict(curves["write-once"])
    global_read = dict(curves["global-read"])
    distributed = dict(curves["distributed-write"])

    for w in write_fractions:
        # eq. 9 is exact for the uncached baseline.
        assert no_cache[w] == pytest.approx(2 - w, abs=0.1)
        # The headline claim survives the move from algebra to machine:
        # the two-mode protocol stays below the uncached cost.
        assert two_mode[w] <= no_cache[w] + 0.25

    # Mode specialisation: global-read wins the write-heavy end,
    # distributed-write the read-heavy end.
    assert distributed[0.05] < global_read[0.05]
    assert global_read[0.95] < distributed[0.95]
    # Write-once suffers mid-range thrashing relative to two-mode.
    assert two_mode[0.5] < write_once[0.5]

    chart = render_series(
        curves, title="Figure 8, simulated (n=8 sharers, N=16)"
    )
    rows = "\n".join(
        f"w={w:.2f}: "
        + "  ".join(
            f"{name}={dict(curve)[w]:6.2f}"
            for name, curve in sorted(curves.items())
        )
        for w in write_fractions
    )
    save_exhibit(
        "fig8_simulated",
        f"{chart}\n\n{rows}",
        data={
            result.spec.spec_hash: result.report.to_dict()
            for result in results
        },
    )
