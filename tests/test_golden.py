"""Golden-master traffic numbers.

One fixed trace, every protocol, the exact bit counts the current cost
model produces.  Any change to message sizes, multicast routing, or
protocol behaviour shows up here as a diff to review deliberately -- the
regression net for the quantitative results in EXPERIMENTS.md.

If a change is *intended* (e.g. a cost-model fix), re-derive the numbers
with the snippet in this docstring and update them in the same commit::

    from repro import *
    from repro.cache.state import Mode
    from repro.workloads import random_trace
    trace = random_trace(8, 400, n_blocks=10, block_size_words=2,
                         write_fraction=0.35, seed=2024)
    ...run each protocol and print report.network_total_bits
"""

import pytest

from repro import (
    FullMapProtocol,
    LimitedPointerProtocol,
    NoCacheProtocol,
    StenstromProtocol,
    System,
    SystemConfig,
    WriteOnceProtocol,
    run_trace,
)
from repro.cache.state import Mode
from repro.workloads import random_trace

GOLDEN_TOTAL_BITS = {
    "stenstrom-gr": 143741,
    "stenstrom-dw": 140817,
    "write-once": 112203,
    "full-map": 109835,
    "limited-1": 130782,
    "no-cache": 81672,
}

FACTORIES = {
    "stenstrom-gr": lambda system: StenstromProtocol(system),
    "stenstrom-dw": lambda system: StenstromProtocol(
        system, default_mode=Mode.DISTRIBUTED_WRITE
    ),
    "write-once": WriteOnceProtocol,
    "full-map": FullMapProtocol,
    "limited-1": lambda system: LimitedPointerProtocol(
        system, n_pointers=1
    ),
    "no-cache": NoCacheProtocol,
}


def golden_trace():
    return random_trace(
        8,
        400,
        n_blocks=10,
        block_size_words=2,
        write_fraction=0.35,
        seed=2024,
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_TOTAL_BITS))
def test_golden_traffic(name):
    system = System(
        SystemConfig(n_nodes=8, cache_entries=4, block_size_words=2)
    )
    report = run_trace(
        FACTORIES[name](system), golden_trace(), verify=True
    )
    assert report.network_total_bits == GOLDEN_TOTAL_BITS[name]


def test_golden_trace_is_stable():
    """The workload generator itself must stay deterministic, or the
    numbers above would drift for the wrong reason."""
    first = golden_trace()
    second = golden_trace()
    assert list(first) == list(second)
    assert first.write_fraction == pytest.approx(0.37)
