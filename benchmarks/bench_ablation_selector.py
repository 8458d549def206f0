"""Ablation: the §5 break-even registers vs the probing oracle.

The combined scheme (eq. 8) as implemented probes all three schemes per
multicast -- fine for a simulator, impossible for a switch.  §5's hardware
answer is two precompiled break-even registers consulted with a popcount
of the present-flag vector, a scheme choice like any other.  This
benchmark runs the same distributed-write workload under the probing
scheme, the registers, and each pinned scheme, and checks that the O(1)
register decision recovers nearly all of the oracle's savings.
"""

from conftest import save_exhibit

from repro.analysis.report import render_table
from repro.cache.state import Mode
from repro.network.multicast import MulticastScheme
from repro.network.selector import compile_registers
from repro.protocol.stenstrom import StenstromProtocol
from repro.sim.engine import run_trace
from repro.sim.system import System, SystemConfig
from repro.workloads.markov import markov_block_trace

N_NODES = 128
N_TASKS = 32  # adjacently placed on ports 0..31
MESSAGE_BITS = 20

TRACE = markov_block_trace(
    N_NODES,
    tasks=list(range(N_TASKS)),
    write_fraction=0.3,
    n_references=2500,
    seed=55,
)


def _run_with(scheme=MulticastScheme.COMBINED):
    system = System(SystemConfig(n_nodes=N_NODES, multicast_scheme=scheme))
    protocol = StenstromProtocol(
        system, default_mode=Mode.DISTRIBUTED_WRITE
    )
    return run_trace(
        protocol, TRACE, verify=True, check_invariants_every=500
    )


def test_register_selector_vs_probing(benchmark):
    registers = compile_registers(N_NODES, N_TASKS, MESSAGE_BITS)

    def sweep():
        return {
            "probing oracle (eq. 8)": _run_with(),
            "§5 registers (popcount)": _run_with(registers),
            "pinned scheme 1": _run_with(scheme=MulticastScheme.UNICAST),
            "pinned scheme 2": _run_with(scheme=MulticastScheme.VECTOR),
            "pinned scheme 3": _run_with(
                scheme=MulticastScheme.BROADCAST_TAG
            ),
        }

    reports = benchmark.pedantic(sweep, iterations=1, rounds=1)
    costs = {
        name: report.cost_per_reference
        for name, report in reports.items()
    }
    oracle = costs["probing oracle (eq. 8)"]
    registers_cost = costs["§5 registers (popcount)"]
    # The register decision must be within 15% of the probing oracle and
    # no worse than the best pinned scheme by more than that margin.
    assert registers_cost <= oracle * 1.15

    rows = [
        (name, f"{value:.1f}")
        for name, value in sorted(costs.items(), key=lambda kv: kv[1])
    ]
    rows.append(
        (
            "registers compiled",
            f"scheme2>={registers.scheme2_threshold}, "
            f"scheme3>={registers.scheme3_threshold}",
        )
    )
    save_exhibit(
        "ablation_selector",
        render_table(
            ("multicast decision", "bits/ref"),
            rows,
            title=(
                f"§5 register selector ablation: {N_TASKS} adjacent "
                f"sharers, w=0.3, N={N_NODES}"
            ),
        ),
    )
