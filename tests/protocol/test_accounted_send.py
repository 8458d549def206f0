"""Every sent message is accounted once, the same way on every path.

A message a protocol does not post to the ledger reaches ``Stats``, the
recorder and the message log through one call,
``CoherenceProtocol._account``: first sends, re-sends, duplicates and
acks alike.  So the message log reconciles with ``Stats`` exactly, with
or without a fault plan, and an empty multicast counts the same one
zero-bit message whether it is posted, sent clean or delivered under an
injector.
"""

import json
from collections import Counter

import pytest

from repro.analysis.compare import default_factories
from repro.faults.plan import FaultPlan
from repro.protocol.limited_pointer import LimitedPointerProtocol
from repro.protocol.messages import MsgKind
from repro.protocol.stenstrom import StenstromProtocol
from repro.sim.engine import run_trace
from repro.sim.system import System, SystemConfig
from repro.workloads.markov import markov_block_trace

N_NODES = 16
FAULTY_PLAN = FaultPlan(
    drop_probability=0.05,
    duplicate_probability=0.02,
    delay_probability=0.02,
    seed=0,
)
FACTORIES = {**default_factories(), "limited-pointer": LimitedPointerProtocol}


@pytest.mark.parametrize("name", sorted(FACTORIES))
@pytest.mark.parametrize(
    "fault_plan", [None, FAULTY_PLAN], ids=["clean", "faulty"]
)
def test_the_message_log_reconciles_with_stats(name, fault_plan):
    system = System(SystemConfig(n_nodes=N_NODES), fault_plan=fault_plan)
    protocol = FACTORIES[name](system)
    protocol.enable_message_log()
    trace = markov_block_trace(
        N_NODES, tasks=range(6), write_fraction=0.3,
        n_references=600, seed=4,
    )
    run_trace(protocol, trace)
    messages = Counter()
    bits = Counter()
    for message in protocol.message_log:
        messages[message.kind.value] += 1
        bits[message.kind.value] += message.cost
    assert sum(bits.values()) == protocol.stats.total_bits > 0
    assert messages == protocol.stats.traffic_messages
    assert bits == protocol.stats.traffic_bits


class TestEmptyMulticastParity:
    def empty_multicast(self, *, fault_plan=None, posted=False):
        system = System(SystemConfig(n_nodes=8), fault_plan=fault_plan)
        protocol = StenstromProtocol(system)
        if posted:
            assert protocol.open_window()
        protocol._multicast(MsgKind.WRITE_UPDATE, 3, frozenset(), 20)
        if posted:
            protocol.close_window()
        return json.dumps(protocol.stats.to_dict())

    def test_posted_sent_and_delivered_count_alike(self):
        posted = self.empty_multicast(posted=True)
        assert json.loads(posted)["traffic_messages"] == {"write_update": 1}
        assert self.empty_multicast() == posted
        assert self.empty_multicast(fault_plan=FAULTY_PLAN) == posted
