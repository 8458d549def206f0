#!/usr/bin/env python3
"""Adaptive mode selection: the §5 hardware sketch, running.

"By measuring the fraction of writes in the distributed write mode and the
fraction of reads in the global read mode it should be possible to choose
the mode with least communication cost.  This could be done by using two
counters..."

This example runs a *phase-changing* workload -- a block that is
read-mostly for a while, then becomes write-heavy, then read-mostly again
-- under four policies: each mode pinned statically, the idealised oracle
selector (sees true w), and the owner-visible two-counter selector of §5.
Watch the adaptive policies switch modes as the phases change, and the
traffic they save.

Run:  python examples/adaptive_modes.py
"""

import os
import sys

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without installation
    sys.path.insert(
        0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
    )

from repro.analysis.report import render_table
from repro.cache.state import Mode
from repro.protocol.modes import (
    AdaptiveModePolicy,
    OracleModePolicy,
    StaticModePolicy,
)
from repro.protocol.stenstrom import StenstromProtocol
from repro.sim.ctrace import CompiledTrace
from repro.sim.engine import run_trace
from repro.sim.system import System, SystemConfig
from repro.workloads import markov_block_trace

N_NODES = 16
TASKS = list(range(8))
PHASES = (
    ("read-mostly", 0.05, 1500),
    ("write-heavy", 0.85, 1500),
    ("read-mostly", 0.05, 1500),
)


def phase_trace():
    return CompiledTrace.concatenate(
        [
            markov_block_trace(
                N_NODES, TASKS, write_fraction, length, seed=index + 1
            )
            for index, (_, write_fraction, length) in enumerate(PHASES)
        ]
    )


def run(policy_name, policy):
    protocol = StenstromProtocol(
        System(SystemConfig(n_nodes=N_NODES)), mode_policy=policy
    )
    trace = phase_trace()
    report = run_trace(
        protocol, trace, verify=True, check_invariants_every=500
    )
    return (
        policy_name,
        f"{report.cost_per_reference:.1f}",
        report.stats.events.get("mode_switches", 0),
        str(protocol.mode_of(0)),
    )


def main() -> None:
    phases_text = " -> ".join(
        f"{name} (w={w})" for name, w, _ in PHASES
    )
    print(f"workload phases: {phases_text}\n")
    rows = [
        run("static DW", StaticModePolicy(Mode.DISTRIBUTED_WRITE)),
        run("static GR", StaticModePolicy(Mode.GLOBAL_READ)),
        run("oracle (true w)", OracleModePolicy(window=64)),
        run("adaptive (§5 counters)", AdaptiveModePolicy(window=64)),
    ]
    print(
        render_table(
            ("policy", "bits/ref", "mode switches", "final mode"),
            rows,
            title="Phase-changing block, 8 sharers, coherence verified",
        )
    )
    print(
        "\nThe measuring policies ride each phase in its cheaper mode; "
        "the statics are right only half the time."
    )


if __name__ == "__main__":
    main()
