"""Extension exhibit: zero-contention latency per reference, by protocol.

The latency companion to the simulated Figure 8: the same §4 workload at
three write fractions, measured in store-and-forward cycles per reference
(each reference's protocol messages chained serially on an idle fabric).
"""

from conftest import save_exhibit

from repro.analysis.compare import default_factories
from repro.analysis.latency import latency_comparison
from repro.analysis.report import render_table
from repro.sim.system import SystemConfig
from repro.workloads.markov import markov_block_trace

N_NODES = 16
N_SHARERS = 8
WRITE_FRACTIONS = (0.05, 0.5, 0.95)
REFERENCES = 1500


def test_protocol_latency(benchmark):
    def sweep():
        results = {}
        for w in WRITE_FRACTIONS:
            trace = markov_block_trace(
                N_NODES,
                tasks=list(range(N_SHARERS)),
                write_fraction=w,
                n_references=REFERENCES,
                seed=21,
            )
            results[w] = latency_comparison(
                trace,
                SystemConfig(n_nodes=N_NODES),
                default_factories(),
            )
        return results

    results = benchmark.pedantic(sweep, iterations=1, rounds=1)

    # Caching pays on latency too: at low w, distributed-write turns
    # nearly all references into zero-cycle hits.
    low = results[0.05]
    assert low["distributed-write"].hit_fraction > 0.9
    assert (
        low["distributed-write"].mean_cycles
        < low["no-cache"].mean_cycles
    )
    # At high w, global read writes locally.
    high = results[0.95]
    assert high["global-read"].mean_cycles < high["no-cache"].mean_cycles

    names = sorted(default_factories())
    rows = []
    for w in WRITE_FRACTIONS:
        rows.append(
            (f"w={w:.2f}",)
            + tuple(
                f"{results[w][name].mean_cycles:.0f}" for name in names
            )
        )
    hit_rows = [
        (f"w={w:.2f} hits",)
        + tuple(
            f"{results[w][name].hit_fraction:.0%}" for name in names
        )
        for w in WRITE_FRACTIONS
    ]
    save_exhibit(
        "protocol_latency",
        render_table(
            ("metric",) + tuple(names),
            rows + hit_rows,
            title=(
                f"Zero-contention cycles per reference "
                f"({N_SHARERS} sharers, N={N_NODES})"
            ),
        ),
    )
