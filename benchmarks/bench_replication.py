"""Extension exhibit: headline results with confidence intervals.

A reproduction should state its uncertainty.  The two headline empirical
comparisons -- two-mode vs no-cache at a read-heavy point, two-mode vs
write-once at the mid-range -- are replicated over independent workload
seeds; the exhibit reports means with 95% Student-t intervals and the
assertions require the intervals not to overlap (the differences are
significant, not seed luck).
"""

from conftest import save_exhibit

from repro.analysis.replication import replicated_cost
from repro.analysis.report import render_table
from repro.runner import WorkloadSpec
from repro.sim.system import SystemConfig

N_NODES = 16
N_SHARERS = 8
SEEDS = tuple(range(6))
CASES = (
    ("read-heavy (w=0.05)", 0.05),
    ("mid-range (w=0.50)", 0.50),
)
PROTOCOLS = ("two-mode", "no-cache", "write-once")


def _workload(write_fraction):
    return WorkloadSpec(
        kind="markov",
        n_nodes=N_NODES,
        n_references=2000,
        write_fraction=write_fraction,
        tasks=tuple(range(N_SHARERS)),
    )


def test_headline_results_are_significant(benchmark):
    config = SystemConfig(n_nodes=N_NODES)

    def sweep():
        return {
            (label, name): replicated_cost(
                name, _workload(w), config, SEEDS
            )
            for label, w in CASES
            for name in PROTOCOLS
        }

    results = benchmark.pedantic(sweep, iterations=1, rounds=1)

    read_heavy = {
        name: results[("read-heavy (w=0.05)", name)]
        for name in PROTOCOLS
    }
    mid_range = {
        name: results[("mid-range (w=0.50)", name)] for name in PROTOCOLS
    }
    # Significance: the intervals do not overlap.
    assert read_heavy["two-mode"].mean < read_heavy["no-cache"].mean
    assert not read_heavy["two-mode"].overlaps(read_heavy["no-cache"])
    assert mid_range["two-mode"].mean < mid_range["write-once"].mean
    assert not mid_range["two-mode"].overlaps(mid_range["write-once"])

    rows = [
        (label, name, str(results[(label, name)]))
        for label, _ in CASES
        for name in PROTOCOLS
    ]
    save_exhibit(
        "replication",
        render_table(
            ("scenario", "protocol", "bits/ref (95% CI)"),
            rows,
            title=(
                f"Headline results over {len(SEEDS)} workload seeds "
                f"({N_SHARERS} sharers, N={N_NODES})"
            ),
        ),
    )
