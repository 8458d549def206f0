"""The deferred link ledger and lazy link loads are invisible.

``run_trace`` opens an accounting window on the network: plan uses are
counted per ``(plan, payload)`` and applied once, scaled, when the window
closes.  These tests hold every replay tier, clean and under faults, to
the arrays and reports of per-send accounting (the window forced shut),
also when the trace dies half way; pin what ``reset_traffic`` and
hand-driven references mean around a window; and check that
``MulticastResult`` still looks like the frozen dataclass it was while
building its loads only on demand.
"""

import dataclasses
import pickle

import pytest

from repro.analysis.compare import default_factories
from repro.errors import CoherenceError, TransientNetworkError
from repro.faults.plan import FaultPlan
from repro.network.link import LinkLoad
from repro.network.multicast import (
    Multicaster,
    MulticastResult,
    MulticastScheme,
)
from repro.network.routing import unicast_plan
from repro.network.topology import OmegaNetwork
from repro.obs.heatmap import network_heatmaps
from repro.obs.recorder import TraceRecorder
from repro.sim.engine import run_trace
from repro.sim.system import System, SystemConfig
from repro.types import Address
from repro.workloads.markov import markov_block_trace

N_NODES = 16
FAULTY_PLAN = FaultPlan(
    drop_probability=0.05,
    duplicate_probability=0.02,
    delay_probability=0.02,
    seed=0,
)


def arrays(network):
    """The four flat counter arrays, as lists."""
    links = network.link_utilization()
    switches = network.switch_utilization()
    return (
        links.bits.tolist(),
        links.messages.tolist(),
        switches.messages.tolist(),
        switches.splits.tolist(),
    )


@pytest.fixture
def window_shut(monkeypatch):
    """Call to force per-send accounting from here on."""

    def shut():
        monkeypatch.setattr(OmegaNetwork, "open_window", lambda self: None)

    return shut


def _trace(compiled, n_references=600):
    return markov_block_trace(
        N_NODES, tasks=range(4), write_fraction=0.3,
        n_references=n_references, seed=2, compiled=compiled,
    )


def _run(protocol_name, compiled, fault_plan):
    system = System(SystemConfig(n_nodes=N_NODES), fault_plan=fault_plan)
    protocol = default_factories()[protocol_name](system)
    report = run_trace(
        protocol, _trace(compiled), verify=False, check_invariants_every=0
    )
    return system, protocol, report


@pytest.mark.parametrize("protocol_name", list(default_factories()))
@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "refs"])
@pytest.mark.parametrize(
    "fault_plan", [None, FAULTY_PLAN], ids=["clean", "faulty"]
)
def test_window_open_equals_per_send_accounting(
    protocol_name, compiled, fault_plan, window_shut
):
    system, _, report = _run(protocol_name, compiled, fault_plan)
    assert system.network._ledger is None  # closed again on the way out
    window_shut()
    shut_system, _, shut_report = _run(protocol_name, compiled, fault_plan)
    assert report.to_dict() == shut_report.to_dict()
    assert arrays(system.network) == arrays(shut_system.network)
    assert report.network_total_bits == report.stats.total_bits


def test_the_window_really_defers():
    # Guard against the equalities above holding because nothing defers.
    network = OmegaNetwork(8)
    plan = unicast_plan(network, 0, 5)
    network.open_window()
    for _ in range(4):
        network.apply_plan_traffic(plan, 20)
    assert network._ledger == {(plan, 20): 4}
    assert sum(network._link_messages) == 0
    # Any read through the network settles first and is exact.
    assert network.total_messages == 4 * (network.n_stages + 1)
    assert network._ledger == {}
    network.close_window()
    assert network._ledger is None


def test_no_window_without_a_plan_cache():
    # The cold reference path builds a fresh plan per send: none repeats.
    network = OmegaNetwork(8)
    network.route_plans = None
    network.open_window()
    assert network._ledger is None


def _die_after(protocol, n_calls, error):
    """Make the ``n_calls``-th read or write of ``protocol`` raise."""
    calls = [0]
    read, write = protocol.read, protocol.write

    def counted(fn):
        def call(*args):
            calls[0] += 1
            if calls[0] == n_calls:
                raise error
            return fn(*args)
        return call

    protocol.read, protocol.write = counted(read), counted(write)


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "refs"])
def test_coherence_error_mid_trace_leaves_per_send_arrays(
    compiled, window_shut
):
    def run():
        system = System(SystemConfig(n_nodes=N_NODES))
        protocol = default_factories()["write-once"](system)
        _die_after(protocol, 400, CoherenceError("planted", block=0, node=0))
        with pytest.raises(CoherenceError, match="planted"):
            run_trace(protocol, _trace(compiled))
        return system, protocol

    system, protocol = run()
    window_shut()
    shut_system, shut_protocol = run()
    assert system.network._ledger is None
    assert system.network.total_bits > 0
    assert arrays(system.network) == arrays(shut_system.network)
    assert protocol.stats.to_dict() == shut_protocol.stats.to_dict()
    assert system.network.total_bits == protocol.stats.total_bits


def test_retry_exhaustion_mid_trace_leaves_per_send_arrays(window_shut):
    plan = FaultPlan(drop_probability=0.3, max_retries=1, seed=3)

    def run():
        system = System(SystemConfig(n_nodes=N_NODES), fault_plan=plan)
        protocol = default_factories()["no-cache"](system)
        with pytest.raises(TransientNetworkError):
            run_trace(
                protocol, _trace(True), verify=False,
                check_invariants_every=0,
            )
        return system, protocol

    system, protocol = run()
    window_shut()
    shut_system, shut_protocol = run()
    assert system.network.total_bits > 0
    assert arrays(system.network) == arrays(shut_system.network)
    assert protocol.stats.to_dict() == shut_protocol.stats.to_dict()
    assert system.network.total_bits == protocol.stats.total_bits


@pytest.mark.parametrize(
    "fault_plan", [None, FAULTY_PLAN], ids=["clean", "faulty"]
)
def test_recorder_and_message_log_see_the_same_loads(fault_plan, window_shut):
    def run():
        system = System(SystemConfig(n_nodes=N_NODES), fault_plan=fault_plan)
        protocol = default_factories()["two-mode"](system)
        protocol.enable_message_log()
        recorder = TraceRecorder()
        run_trace(protocol, _trace(True, 300), recorder=recorder)
        return system, protocol, recorder

    system, protocol, recorder = run()
    window_shut()
    shut_system, shut_protocol, shut_recorder = run()
    assert protocol.message_log == shut_protocol.message_log
    assert [e.to_dict() for e in recorder.events] == [
        e.to_dict() for e in shut_recorder.events
    ]
    assert network_heatmaps(system.network) == network_heatmaps(
        shut_system.network
    )
    # The logged loads are real LinkLoad tuples that add up to the cost.
    multicasts = [m for m in protocol.message_log if len(m.dests) > 1]
    assert multicasts
    for message in protocol.message_log:
        assert all(type(load) is LinkLoad for load in message.loads)
        assert sum(load.bits for load in message.loads) == message.cost


class TestResetTraffic:
    def test_reset_inside_a_window_drops_pending_posts_too(self):
        network = OmegaNetwork(8)
        plan = unicast_plan(network, 1, 6)
        network.open_window()
        for _ in range(3):
            network.apply_plan_traffic(plan, 20)
        network.reset_traffic()
        assert network._ledger == {}  # still open, nothing pending
        assert network.total_bits == 0
        network.apply_plan_traffic(plan, 20)
        network.close_window()
        assert network.total_bits == plan.cost_for(20)
        assert network.total_messages == network.n_stages + 1

    def test_reset_outside_a_window_is_unchanged(self):
        network = OmegaNetwork(8)
        Multicaster(network).send_payload(0, 20, frozenset({3, 4}))
        assert network.total_bits > 0
        network.reset_traffic()
        assert network._ledger is None
        assert arrays(network) == arrays(OmegaNetwork(8))
        assert len(network.route_plans) == 1  # plans survive

    def test_second_run_trace_starts_from_zero(self):
        system, protocol, first = _run("two-mode", True, None)
        second = run_trace(
            protocol, _trace(True, 200), verify=False,
            check_invariants_every=0,
        )
        assert second.network_total_bits == system.network.total_bits
        assert second.network_total_bits < first.network_total_bits


@pytest.mark.parametrize("protocol_name", list(default_factories()))
def test_hand_driven_references_account_immediately(protocol_name):
    # Outside run_trace there is no window: counters move with each send.
    system = System(SystemConfig(n_nodes=8))
    protocol = default_factories()[protocol_name](system)
    seen = []
    for step in range(12):
        node = step % 4
        protocol.write(node, Address(0, 0), step)
        protocol.read((node + 1) % 4, Address(0, 0))
        assert system.network._ledger is None
        assert sum(system.network._link_bits) == protocol.stats.total_bits
        seen.append(system.network.total_bits)
    assert seen == sorted(seen) and seen[-1] > 0


class TestMulticastResultShape:
    def _pair(self):
        network = OmegaNetwork(16)
        lazy = Multicaster(network, MulticastScheme.VECTOR).send_payload(
            2, 20, frozenset({5, 9, 12})
        )
        eager = MulticastResult(
            lazy.scheme, lazy.source, lazy.requested, lazy.delivered,
            lazy._plan.loads_for(20),
        )
        return lazy, eager

    def test_loads_are_built_on_first_read_only(self):
        network = OmegaNetwork(16)
        result = Multicaster(network).send_payload(2, 20, frozenset({5, 9}))
        assert result._loads is None
        assert result.cost == result._plan.cost_for(20)
        loads = result.loads
        assert loads is result.loads
        assert result.cost == sum(load.bits for load in loads)
        keys = {(load.level, load.position) for load in loads}
        assert result.links_used == len(keys)

    def test_equality_and_hash_are_fieldwise(self):
        lazy, eager = self._pair()
        assert lazy == eager and hash(lazy) == hash(eager)
        assert lazy.cost == eager.cost
        assert lazy.links_used == eager.links_used
        other = MulticastResult(
            eager.scheme, eager.source, eager.requested, eager.delivered,
            eager.loads[:-1],
        )
        assert lazy != other
        assert lazy != "not a result"

    def test_repr_is_the_dataclass_repr(self):
        @dataclasses.dataclass(frozen=True)
        class MulticastResult:  # noqa: F811 - the shape being mirrored
            scheme: object
            source: int
            requested: frozenset
            delivered: frozenset
            loads: tuple

        lazy, _ = self._pair()
        mirror = MulticastResult(
            lazy.scheme, lazy.source, lazy.requested, lazy.delivered,
            lazy.loads,
        )
        assert repr(lazy) == repr(mirror).replace(
            mirror.__class__.__qualname__, "MulticastResult"
        )

    def test_frozen_and_picklable(self):
        lazy, eager = self._pair()
        with pytest.raises(dataclasses.FrozenInstanceError):
            lazy.cost = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del eager.loads
        assert pickle.loads(pickle.dumps(lazy)) == eager
