"""Extension exhibit: measured cost per reference vs the sharer count n.

Figure 8 fixes n and sweeps w; this exhibit fixes w = 0.3 and sweeps n,
probing the §4 upper-bound claim from the other axis.  The analysis says:

* write-once grows without bound in n  (eq. 10: ~ w(1-w)(n+2));
* distributed-write grows in n         (eq. 11: ~ w·CC4(n));
* global-read *saturates* at the eq. 12 ceiling ``2(1-w)·CC1`` -- the
  only n-dependence is that 1/n of the reads are the owner's own (free),
  so the measured curve rises toward the ceiling and stops;
* two-mode therefore saturates at the same ceiling instead of growing --
  the mechanism behind "the two-mode approach limits the upper bound ...
  to a value considerably lower than that for other protocols"
  (abstract).

All four behaviours are asserted on the measured series.  The grid is
:func:`repro.analysis.sweep.sharer_grid`, executed through the runner;
the parallel fan-out must reproduce the sequential reference path cell
for cell.
"""

import json

from conftest import save_exhibit

from repro.analysis.report import render_table
from repro.analysis.sweep import series_by_protocol, sharer_grid, sweep_records
from repro.runner import Executor

SHARERS = (2, 4, 8, 16, 32)
WRITE_FRACTION = 0.3
N_NODES = 64


def test_sharer_scaling(benchmark):
    sweep = sharer_grid(
        "sharer-scaling", SHARERS, WRITE_FRACTION, n_nodes=N_NODES, seed=13
    )
    results = benchmark.pedantic(
        Executor(workers=0).run, args=(sweep,), iterations=1, rounds=1
    )

    # The parallel path must be bit-identical to the sequential one.
    parallel = Executor(workers=4).run(sweep)
    for sequential_cell, parallel_cell in zip(results, parallel):
        assert json.dumps(
            sequential_cell.report.to_dict(), sort_keys=True
        ) == json.dumps(parallel_cell.report.to_dict(), sort_keys=True)

    series = series_by_protocol(
        sweep_records(
            [(result.spec, result.report) for result in results],
            "n_sharers",
        ),
        "n_sharers",
    )

    def costs(name):
        return [cost for _, cost in series[name]]

    # Growth in n for the unbounded protocols...
    assert costs("write-once")[-1] > 1.5 * costs("write-once")[0]
    assert costs("distributed-write")[-1] > (
        2 * costs("distributed-write")[0]
    )
    # ...saturation at the eq. 12 ceiling for global read...
    from repro.network.cost import cc1

    ceiling = 2 * (1 - WRITE_FRACTION) * cc1(1, 64, 20)
    gr = costs("global-read")
    assert all(value <= ceiling * 1.1 for value in gr)
    assert gr[-1] > 0.85 * ceiling  # nearly all reads remote at n=32
    # ...and the two-mode protocol stays bounded by the same ceiling.
    assert all(value <= ceiling * 1.1 for value in costs("two-mode"))

    names = sorted(series)
    rows = [
        (f"n={n}",)
        + tuple(f"{dict(series[name])[n]:.1f}" for name in names)
        for n in SHARERS
    ]
    save_exhibit(
        "sharer_scaling",
        render_table(
            ("sharers",) + tuple(names),
            rows,
            title=(
                f"Measured bits/reference vs sharer count "
                f"(w={WRITE_FRACTION}, N=64, uniform M=20)"
            ),
        ),
        data={
            result.spec.spec_hash: result.report.to_dict()
            for result in results
        },
    )
