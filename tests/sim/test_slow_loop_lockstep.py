"""The slow loop's two entries agree: proven rows unchecked, others checked.

``_replay_columns`` replays a compiled trace proven to fit the system
through the protocols' unchecked ``_read`` / ``_write``, and anything
else -- a ``validate=False`` copy, a list of references -- through the
checked ``read`` / ``write``.  On rows that are in range the two must
leave the machine in exactly the same state: reports, ``Stats`` key
order, the network's four flat counter arrays, every memory module's
words, and every cache's entries, tags and LRU order.  On rows that are
not, the checked entry must raise what it always raised, at the same row.
Value verification and an invariant stride each keep a run on the slow
loop, so both are used to drive it.
"""

import json

import pytest

from repro.analysis.compare import default_factories
from repro.errors import ConfigurationError, TraceError
from repro.protocol.limited_pointer import LimitedPointerProtocol
from repro.sim.ctrace import CompiledTrace
from repro.sim.engine import run_trace
from repro.sim.system import System, SystemConfig
from repro.workloads.markov import markov_block_trace
from repro.workloads.synthetic import random_trace

N_NODES = 16
BLOCK = 4
FACTORIES = {**default_factories(), "limited-pointer": LimitedPointerProtocol}
SLOW_LOOP = {
    "verify": {"verify": True, "check_invariants_every": 0},
    "stride": {"verify": False, "check_invariants_every": 7},
}


def _proven(workload):
    if workload == "random":
        return random_trace(
            N_NODES, 800, n_blocks=24, write_fraction=0.4, locality=0.5,
            seed=11, compiled=True,
        )
    return markov_block_trace(
        N_NODES, range(6), 0.3, 800, seed=11, compiled=True
    )


def _unvalidated(trace):
    return CompiledTrace(
        trace.nodes, trace.ops, trace.blocks, trace.offsets, trace.values,
        trace.n_nodes, trace.block_size_words, validate=False,
    )


FORMS = {
    "proven": lambda trace: trace,
    "unvalidated": _unvalidated,
    "references": list,
}


def _system(protocol_name):
    system = System(
        SystemConfig(
            n_nodes=N_NODES, cache_entries=4, block_size_words=BLOCK
        )
    )
    return system, FACTORIES[protocol_name](system)


def _end_state(protocol_name, trace, checks):
    system, protocol = _system(protocol_name)
    report = run_trace(protocol, trace, **checks)
    network = system.network
    links = network.link_utilization()
    switches = network.switch_utilization()
    caches = [
        (
            list(cache._index.items()),
            [
                (entry.tag, entry.state_field, entry.data)
                for entry in cache._built_entries()
            ],
            [
                None if order is None else list(order)
                for order in getattr(cache.policy, "_order", ())
            ],
        )
        for cache in system.caches
    ]
    return {
        "report": report.to_dict(),
        "stats": json.dumps(protocol.stats.to_dict()),
        "arrays": (
            links.bits.tolist(),
            links.messages.tolist(),
            switches.messages.tolist(),
            switches.splits.tolist(),
        ),
        "memories": [
            list(module._data.items()) for module in system.memories
        ],
        "caches": caches,
    }


@pytest.mark.parametrize("checks", list(SLOW_LOOP))
@pytest.mark.parametrize("workload", ["markov", "random"])
@pytest.mark.parametrize("protocol_name", list(FACTORIES))
def test_every_form_ends_in_the_same_state(protocol_name, workload, checks):
    trace = _proven(workload)
    assert trace.fits(N_NODES, BLOCK)
    states = {
        form: _end_state(protocol_name, make(trace), SLOW_LOOP[checks])
        for form, make in FORMS.items()
    }
    assert states["proven"]["report"]["n_references"] == len(trace)
    assert states["unvalidated"] == states["proven"]
    assert states["references"] == states["proven"]


BAD_ROWS = {
    # name: (column, value, error, text), one out-of-range row 5 each.
    "foreign-node": (
        "nodes", N_NODES, TraceError,
        f"reference 5: node {N_NODES} outside this {N_NODES}-node system",
    ),
    "negative-block": (
        "blocks", -1, ConfigurationError, "negative block id -1",
    ),
    "offset-past-block": (
        "offsets", BLOCK, ConfigurationError,
        f"offset {BLOCK} outside block of {BLOCK} words",
    ),
}
# A trace validated for a larger machine than the one replaying it can
# only hold rows the smaller system lacks: a foreign node.
BAD_INPUTS = [
    (name, form)
    for name in BAD_ROWS
    for form in ("unvalidated", "references", "declared")
    if form != "declared" or name == "foreign-node"
]


@pytest.mark.parametrize(
    "name, form", BAD_INPUTS, ids=[f"{n}-{f}" for n, f in BAD_INPUTS]
)
@pytest.mark.parametrize("protocol_name", list(FACTORIES))
def test_a_bad_row_raises_at_its_row(protocol_name, name, form):
    column, value, error, text = BAD_ROWS[name]
    good = _proven("random")[:12]
    columns = {
        key: getattr(good, key)[:]
        for key in ("nodes", "ops", "blocks", "offsets", "values")
    }
    columns[column][5] = value
    if form == "declared":
        trace = CompiledTrace(
            *columns.values(), 2 * N_NODES, BLOCK, validate=True
        )
        assert not trace.fits(N_NODES, BLOCK)
    else:
        trace = CompiledTrace(
            *columns.values(), N_NODES, BLOCK, validate=False
        )
        if form == "references":
            trace = list(trace)
    for checks in SLOW_LOOP.values():
        _, protocol = _system(protocol_name)
        with pytest.raises(error) as raised:
            run_trace(protocol, trace, **checks)
        assert str(raised.value) == text
        events = protocol.stats.events
        assert events["reads"] + events["writes"] == 5
    # Without per-reference checks the kernels take what they can: the
    # row still raises, with the same type and text.
    _, protocol = _system(protocol_name)
    with pytest.raises(error, match=f"^{text}$"):
        run_trace(protocol, trace, verify=False, check_invariants_every=0)
