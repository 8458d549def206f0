"""Extension exhibit: who should set the mode -- compiler or hardware?

§2.1 says the mode is "set by the software"; §5 sketches a hardware
selector.  This exhibit pits the two against each other (and the statics)
on a workload with one read-mostly and one write-heavy block:

* the *compiler* (``repro.analysis.compiler``) profiles the program and
  pins each block's mode up front (zero runtime hardware);
* the *oracle* and *adaptive* selectors measure at run time (§5);
* the statics are the no-selection baselines.
"""

from conftest import save_exhibit

from repro.analysis.compiler import recommend_modes
from repro.analysis.report import render_table
from repro.cache.state import Mode
from repro.protocol.modes import (
    AdaptiveModePolicy,
    OracleModePolicy,
    PerBlockModePolicy,
    StaticModePolicy,
)
from repro.protocol.stenstrom import StenstromProtocol
from repro.sim.engine import run_trace
from repro.sim.system import System, SystemConfig
from repro.workloads.markov import markov_block_trace

N_NODES = 16
TASKS = list(range(8))


def _trace():
    from repro.sim.ctrace import CompiledTrace

    read_mostly = markov_block_trace(
        N_NODES, TASKS, 0.03, 2000, block=0, seed=61
    )
    write_heavy = markov_block_trace(
        N_NODES, TASKS, 0.85, 2000, block=1, seed=62
    )
    return CompiledTrace.interleave([read_mostly, write_heavy])


def test_compiler_vs_hardware_mode_selection(benchmark):
    trace = _trace()
    policies = {
        "static DW": StaticModePolicy(Mode.DISTRIBUTED_WRITE),
        "static GR": StaticModePolicy(Mode.GLOBAL_READ),
        "compiler (per-block)": PerBlockModePolicy(
            recommend_modes(trace)
        ),
        "oracle (runtime)": OracleModePolicy(window=64),
        "adaptive (§5 counters)": AdaptiveModePolicy(window=64),
    }

    def sweep():
        reports = {}
        for name, policy in policies.items():
            protocol = StenstromProtocol(
                System(SystemConfig(n_nodes=N_NODES)),
                mode_policy=policy,
            )
            reports[name] = run_trace(
                protocol, trace, verify=True, check_invariants_every=500
            )
        return reports

    reports = benchmark.pedantic(sweep, iterations=1, rounds=1)
    costs = {
        name: report.cost_per_reference
        for name, report in reports.items()
    }
    static_best = min(costs["static DW"], costs["static GR"])
    assert costs["compiler (per-block)"] < static_best
    assert costs["compiler (per-block)"] <= costs["oracle (runtime)"] * 1.1

    rows = [
        (
            name,
            f"{costs[name]:.1f}",
            reports[name].stats.events.get("mode_switches", 0),
        )
        for name in policies
    ]
    save_exhibit(
        "compiler_modes",
        render_table(
            ("mode selection", "bits/ref", "mode switches"),
            rows,
            title=(
                "Compiler vs hardware mode selection (one read-mostly "
                "+ one write-heavy block, 8 sharers)"
            ),
        ),
    )
