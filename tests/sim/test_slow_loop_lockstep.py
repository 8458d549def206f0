"""Every input form ends in one state, and a bad row in any form raises
before a row replays.

:func:`~repro.sim.engine.run_trace` compiles what it is given at the
system's geometry -- a list or iterator of references or a
:class:`~repro.sim.trace.Trace` is packed, a compiled trace declared
larger than the system is rebuilt -- and the slow loop, like the kernel,
only ever sees a validated :class:`~repro.sim.ctrace.CompiledTrace`.  So
on rows that are in range every form must leave the machine in exactly
the same state: reports, ``Stats`` key order, the network's four flat
counter arrays, every memory module's words, and every cache's entries,
tags and LRU order.  On a row that is not, every form must raise
:meth:`~repro.sim.ctrace.CompiledTrace.validate`'s ``TraceError``, with
its text, before any reference is counted or any bit is spent.  Value
verification and an invariant stride each keep a run on the slow loop,
so both are used to drive it.
"""

import json

import pytest

from repro.analysis.compare import default_factories
from repro.errors import TraceError
from repro.protocol.limited_pointer import LimitedPointerProtocol
from repro.sim.ctrace import CompiledTrace
from repro.sim.engine import run_trace
from repro.sim.system import System, SystemConfig
from repro.sim.trace import Trace
from repro.types import Address
from repro.workloads.markov import markov_block_trace
from repro.workloads.synthetic import random_trace

N_NODES = 16
BLOCK = 4
FACTORIES = {**default_factories(), "limited-pointer": LimitedPointerProtocol}
SLOW_LOOP = {
    "verify": {"verify": True, "check_invariants_every": 0},
    "stride": {"verify": False, "check_invariants_every": 7},
}


def _compiled(workload):
    if workload == "random":
        return random_trace(
            N_NODES, 800, n_blocks=24, write_fraction=0.4, locality=0.5,
            seed=11,
        )
    return markov_block_trace(
        N_NODES, range(6), 0.3, 800, seed=11
    )


def _declared(trace, n_nodes, block_size_words):
    """The same rows, declared for another geometry."""
    return CompiledTrace(
        trace.nodes, trace.ops, trace.blocks, trace.offsets, trace.values,
        n_nodes, block_size_words,
    )


FORMS = {
    "compiled": lambda trace: trace,
    "references": list,
    "iter": iter,
    "Trace": lambda trace: Trace(list(trace), N_NODES, BLOCK),
    "declared-larger": lambda trace: _declared(
        trace, 2 * N_NODES, 2 * BLOCK
    ),
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
    trace = _compiled(workload)
    states = {
        form: _end_state(protocol_name, make(trace), SLOW_LOOP[checks])
        for form, make in FORMS.items()
    }
    assert states["compiled"]["report"]["n_references"] == len(trace)
    for form in FORMS:
        assert states[form] == states["compiled"], form


BAD_ROWS = {
    # name: (how row 5 goes bad, validate's text, the larger geometry a
    # compiled trace may declare and still hold it).
    "foreign-node": (
        lambda ref: ref._replace(node=N_NODES),
        f"reference 5: node {N_NODES} outside 0..{N_NODES - 1}",
        (2 * N_NODES, BLOCK),
    ),
    # No geometry holds a negative block: no declared-larger form.
    "negative-block": (
        lambda ref: ref._replace(address=Address(-1, ref.address.offset)),
        "reference 5: negative block -1",
        None,
    ),
    "offset-past-block": (
        lambda ref: ref._replace(address=Address(ref.address.block, BLOCK)),
        f"reference 5: offset {BLOCK} outside block of {BLOCK} words",
        (N_NODES, 2 * BLOCK),
    ),
}
BAD_INPUTS = [
    (name, form)
    for name, (_, _, larger) in BAD_ROWS.items()
    for form in ("references", "iter", "Trace", "declared")
    if form != "declared" or larger is not None
]


def _bad_input(name, form):
    spoil, _, larger = BAD_ROWS[name]
    references = list(_compiled("random")[:12])
    references[5] = spoil(references[5])
    if form == "references":
        return references
    if form == "iter":
        return iter(references)
    if form == "Trace":
        # Trace validates what it is built with, not what it appends.
        trace = Trace(references[:5], N_NODES, BLOCK)
        for reference in references[5:]:
            trace.append(reference)
        return trace
    trace = Trace(references, *larger).compile()
    assert not trace.fits(N_NODES, BLOCK)
    return trace


@pytest.mark.parametrize(
    "name, form", BAD_INPUTS, ids=[f"{n}-{f}" for n, f in BAD_INPUTS]
)
@pytest.mark.parametrize("protocol_name", list(FACTORIES))
def test_a_bad_row_raises_at_its_row(protocol_name, name, form):
    # Both slow-loop check modes, then the unchecked run the kernels
    # would take: every one raises validate's error before any row.
    text = BAD_ROWS[name][1]
    unchecked = {"verify": False, "check_invariants_every": 0}
    for checks in (*SLOW_LOOP.values(), unchecked):
        system, protocol = _system(protocol_name)
        with pytest.raises(TraceError) as raised:
            run_trace(protocol, _bad_input(name, form), **checks)
        assert str(raised.value) == text
        events = protocol.stats.events
        assert events["reads"] + events["writes"] == 0
        assert system.network.total_bits == 0
