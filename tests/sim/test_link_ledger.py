"""The message ledger and lazy link loads are invisible.

Inside ``run_trace``'s accounting window a protocol *posts* its messages:
the network's ledger counts each distinct ``(kind, source, dests, bits)``,
prices it by closed form when the window settles (unicasts once per
``(kind, bits)``, each multicast once), and walks the fabric only when a
link or switch is read.  These tests hold every replay
tier to the ``Stats`` (key order included), totals and arrays of per-send
accounting (the window forced shut), and name the cases around the
window's edges:

* **something consumes individual sends** -- fault injector, recorder,
  message log: the ledger stays shut and nothing changes;
* **no plan cache** (``route_plans = None``) memoises nothing and shuts
  nothing: the window opens, the kernels batch, and every report and
  array equals both the cached run and a per-send one;
* **an exception mid-trace** settles what was posted: ledgers and arrays
  end as per-send accounting leaves them at the failing reference;
* **``reset_traffic()`` inside a window** leaves the messages posted
  before it counted in ``Stats`` and absent from the links;
* **a replay tier driven by hand** has accounted everything when it
  returns, as ``run_trace`` has: the kernel runs only inside a window,
  which its driver opens and closes, and where a watcher keeps the
  window shut the slow loop sends one by one;
* **the lazy walk**: a report needs no ``RoutePlan``; the first per-link
  read builds them, once;
* **a posted unicast to a port outside the network** raises the per-send
  error at the settle, before anything is accounted.

They also check that ``MulticastResult`` still looks like the frozen
dataclass it was while building its loads only on demand.
"""

import dataclasses
import importlib
import json
import pickle

import pytest

from repro.analysis.compare import default_factories
from repro.errors import (
    CoherenceError,
    ConfigurationError,
    TransientNetworkError,
)
from repro.faults.plan import FaultPlan
from repro.network.contention import link_load_profile
from repro.network.link import LinkLoad
from repro.network.multicast import (
    Multicaster,
    MulticastResult,
    MulticastScheme,
)
from repro.network.topology import OmegaNetwork
from repro.obs.heatmap import network_heatmaps
from repro.obs.recorder import TraceRecorder
from repro.protocol.limited_pointer import LimitedPointerProtocol
from repro.protocol.messages import MsgKind
from repro.sim.engine import run_trace
from repro.sim.stats import Stats
from repro.sim.system import System, SystemConfig
from repro.sim.trace import Trace
from repro.types import Address, Op, Reference
from repro.workloads.markov import markov_block_trace
from repro.workloads.synthetic import random_trace

N_NODES = 16
FAULTY_PLAN = FaultPlan(
    drop_probability=0.05,
    duplicate_probability=0.02,
    delay_probability=0.02,
    seed=0,
)
FACTORIES = {**default_factories(), "limited-pointer": LimitedPointerProtocol}


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


def totals(network):
    """What a report reads: answered without walking the fabric."""
    return (
        network.total_bits, network.bits_by_level(), network.total_messages
    )


def in_order(stats):
    """``Stats.to_dict()`` as a string: equal only if key order is too."""
    return json.dumps(stats.to_dict())


@pytest.fixture
def window_shut(monkeypatch):
    """Call to force per-send accounting from here on."""

    def shut():
        monkeypatch.setattr(
            OmegaNetwork, "open_window", lambda self, *args: None
        )

    return shut


def _trace(compiled, n_references=600, workload="markov"):
    """The generated trace, or (``compiled`` off) its rows as a list."""
    if workload == "migratory":
        # Any node writes any block: ownership moves, destination sets
        # rarely repeat (bench's ``migratory_n64`` is this kind).
        trace = random_trace(
            N_NODES, n_references, n_blocks=8, write_fraction=0.3,
            locality=0.5, seed=2,
        )
    else:
        trace = markov_block_trace(
            N_NODES, tasks=range(4), write_fraction=0.3,
            n_references=n_references, seed=2,
        )
    return trace if compiled else list(trace)


def _run(protocol_name, compiled, fault_plan, workload="markov"):
    system = System(SystemConfig(n_nodes=N_NODES), fault_plan=fault_plan)
    protocol = FACTORIES[protocol_name](system)
    report = run_trace(
        protocol, _trace(compiled, workload=workload), verify=False,
        check_invariants_every=0,
    )
    return system, protocol, report


def _assert_invisible(protocol_name, compiled, fault_plan, workload, shut):
    system, _, report = _run(protocol_name, compiled, fault_plan, workload)
    assert system.network._ledger is None  # closed again on the way out
    shut()
    shut_system, _, shut_report = _run(
        protocol_name, compiled, fault_plan, workload
    )
    assert report.to_dict() == shut_report.to_dict()
    assert in_order(report.stats) == in_order(shut_report.stats)
    # Totals first: they must be exact before anything walks the fabric.
    assert totals(system.network) == totals(shut_system.network)
    assert arrays(system.network) == arrays(shut_system.network)
    assert totals(system.network) == totals(shut_system.network)
    assert report.network_total_bits == report.stats.total_bits


@pytest.mark.parametrize("protocol_name", list(default_factories()))
@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "refs"])
@pytest.mark.parametrize(
    "fault_plan", [None, FAULTY_PLAN], ids=["clean", "faulty"]
)
def test_window_open_equals_per_send_accounting(
    protocol_name, compiled, fault_plan, window_shut
):
    _assert_invisible(
        protocol_name, compiled, fault_plan, "markov", window_shut
    )


@pytest.mark.parametrize(
    "protocol_name, workload",
    [(name, "migratory") for name in FACTORIES]
    + [("limited-pointer", "markov")],
)
@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "refs"])
def test_the_ledger_is_invisible_on_every_protocol_and_workload(
    protocol_name, workload, compiled, window_shut
):
    _assert_invisible(protocol_name, compiled, None, workload, window_shut)


def test_the_window_really_defers():
    # Guard against the equalities above holding because nothing defers.
    system = System(SystemConfig(n_nodes=8))
    network = system.network
    protocol = default_factories()["no-cache"](system)
    protocol.open_window()
    for step in range(4):
        protocol.write(0, Address(5, 0), step)
    word = protocol._cost_word
    assert network._ledger == {(MsgKind.MEM_WRITE.value, 0, 5, word): 4}
    assert protocol.stats.total_bits == 0
    # Any read through the network settles first and is exact ...
    assert network.total_messages == 4 * (network.n_stages + 1)
    assert network._ledger == {}
    assert protocol.stats.traffic_messages == {MsgKind.MEM_WRITE.value: 4}
    assert network.total_bits == protocol.stats.total_bits
    # ... and only a per-link read walks the fabric.
    assert sum(network._link_messages) == 0
    assert len(network.route_plans) == 0
    assert sum(network.link_utilization().messages) == network.total_messages
    assert len(network.route_plans) == 1
    protocol.close_window()
    assert network._ledger is None and protocol._ledger is None


@pytest.mark.parametrize(
    "source, dests",
    [(0, 99), (0, frozenset({99})), (99, 0)],
    ids=["dest", "dest-set", "source"],
)
@pytest.mark.parametrize("window", [True, False], ids=["open", "shut"])
def test_an_out_of_range_unicast_raises_before_anything_is_priced(
    window, source, dests
):
    # Sent, the plan lookup rejects the port at once; posted, the settle
    # does -- with the same error, before it accounts anything.
    system = System(SystemConfig(n_nodes=8))
    protocol = default_factories()["no-cache"](system)
    if window:
        protocol.open_window()
    with pytest.raises(ConfigurationError, match=r"^port 99 outside 0\.\.7$"):
        try:
            if window:
                protocol._post(MsgKind.MEM_READ, source, dests, 10, 1)
            elif type(dests) is int:
                protocol._send(MsgKind.MEM_READ, source, dests, 10)
            else:
                protocol._multicast(MsgKind.MEM_READ, source, dests, 10)
        finally:
            protocol.close_window()
    assert system.network._ledger is None
    assert protocol.stats.to_dict() == Stats().to_dict()
    assert totals(system.network) == (0, [0] * 4, 0)


@pytest.mark.parametrize("protocol_name", ["full-map", "two-mode"])
def test_a_settle_prices_each_multicast_and_no_unicast(
    protocol_name, monkeypatch
):
    # A count alarm for per-entry pricing creeping back into the settle:
    # counts repeat exactly where rates do not.
    system = System(SystemConfig(n_nodes=N_NODES))
    protocol = FACTORIES[protocol_name](system)
    protocol.open_window()
    for node, op, address, value in _trace(False, workload="migratory"):
        if op is Op.WRITE:
            protocol.write(node, address, value)
        else:
            protocol.read(node, address)
    ledger = system.network._ledger
    multicasts = [
        dests for _, _, dests, _ in ledger
        if type(dests) is frozenset and len(dests) != 1
    ]
    assert multicasts and len(ledger) > len(multicasts)  # unicasts too
    priced = []
    # By module object: ``repro.network.multicast`` is also a function.
    module = importlib.import_module("repro.network.multicast")
    message_levels = module.message_levels

    def counted(network, scheme, source, dests, bits):
        priced.append(dests)
        return message_levels(network, scheme, source, dests, bits)

    monkeypatch.setattr(module, "message_levels", counted)
    protocol.close_window()
    assert priced == multicasts
    assert system.network.total_bits == protocol.stats.total_bits > 0


@pytest.mark.parametrize("workload", ["markov", "migratory"])
@pytest.mark.parametrize("protocol_name", list(FACTORIES))
def test_no_plan_cache_only_turns_off_memoising(protocol_name, workload):
    # route_plans = None keeps the window and the kernels: pricing and
    # the walk build what they need without memoising it.
    def run(plan_cache, message_log=False):
        system = System(SystemConfig(n_nodes=N_NODES))
        if not plan_cache:
            system.network.route_plans = None
        protocol = FACTORIES[protocol_name](system)
        if message_log:
            protocol.enable_message_log()
        windows = []
        open_window = protocol.open_window

        def spying_open_window():
            windows.append(open_window())
            return windows[-1]

        protocol.open_window = spying_open_window
        report = run_trace(
            protocol, _trace(True, workload=workload), verify=False,
            check_invariants_every=0,
        )
        assert windows == [not message_log]
        kernel = protocol.batched_kernel()
        batched = 0 if kernel is None else kernel.batched_refs
        return batched, report.to_dict(), arrays(system.network)

    batched, report, walked = run(plan_cache=False)
    kernels = ("no-cache", "distributed-write", "global-read", "two-mode")
    assert (batched > 0) is (protocol_name in kernels)
    assert run(plan_cache=True) == (batched, report, walked)
    forced, slow_report, slow_walked = run(False, message_log=True)
    assert forced == 0
    assert (slow_report, slow_walked) == (report, walked)


def _consumers():
    """Configurations in which something consumes individual sends."""

    def plain(**system_kwargs):
        def build():
            system = System(SystemConfig(n_nodes=N_NODES), **system_kwargs)
            return system, default_factories()["two-mode"](system), {}
        return build

    def message_log():
        system, protocol, _ = plain()()
        protocol.enable_message_log()
        return system, protocol, {}

    def recorder():
        system, protocol, _ = plain()()
        return system, protocol, {"recorder": TraceRecorder()}

    return {
        "faults": plain(fault_plan=FAULTY_PLAN),
        "recorder": recorder,
        "message_log": message_log,
    }


@pytest.mark.parametrize("consumer", list(_consumers()))
def test_the_ledger_stays_shut_when_sends_are_consumed(
    consumer, window_shut, monkeypatch
):
    def run():
        system, protocol, kwargs = _consumers()[consumer]()
        seen = []
        write = protocol._write

        def spying_write(*args):
            seen.append(protocol._ledger)
            return write(*args)

        protocol._write = spying_write
        report = run_trace(
            protocol, _trace(True, 300), verify=False,
            check_invariants_every=0, **kwargs,
        )
        assert seen and all(ledger is None for ledger in seen)
        return system, protocol, report

    system, protocol, report = run()
    # Every send reached its links: the raw arrays already hold it all.
    network = system.network
    assert sum(network._link_messages) == network.total_messages > 0
    window_shut()
    shut_system, shut_protocol, shut_report = run()
    assert in_order(report.stats) == in_order(shut_report.stats)
    assert protocol.message_log == shut_protocol.message_log
    assert totals(system.network) == totals(shut_system.network)
    assert arrays(system.network) == arrays(shut_system.network)


class TestLazyWalk:
    """A report needs prices, not plans; the first per-link read walks."""

    def _cell(self):
        system = System(SystemConfig(n_nodes=N_NODES))
        protocol = default_factories()["full-map"](system)
        report = run_trace(
            protocol, _trace(True), verify=False, check_invariants_every=0
        )
        return system, report

    def test_a_report_builds_no_route_plan(self):
        system, report = self._cell()
        cache = system.network.route_plans
        assert report.stats.traffic_messages[MsgKind.DIR_INVALIDATE.value] > 0
        assert report.network_total_bits == report.stats.total_bits > 0
        assert sum(report.network_bits_by_level) == report.network_total_bits
        assert system.route_plan_stats()["walks"] == 0
        records = [cache.get(key) for key in list(cache.keys())]
        # Only price records, keyed as bench's probes harvest them.
        assert records and all(
            record.plans == [None, None, None] for record in records
        )
        assert all(
            key[0] is MulticastScheme.COMBINED and len(key[2]) > 1
            for key in cache.keys()
        )

    def test_reading_links_walks_once_and_equals_per_send(self, window_shut):
        system, _ = self._cell()
        network = system.network
        before = totals(network)
        walked = arrays(network)
        walks = system.route_plan_stats()["walks"]
        assert walks > 0
        assert sum(network._link_bits) == network.total_bits  # all walked
        assert totals(network) == before
        assert (sum(walked[0]), sum(walked[1])) == (before[0], before[2])
        assert arrays(network) == walked  # a second read ...
        assert system.route_plan_stats()["walks"] == walks  # ... walks nothing
        window_shut()
        shut_system, _ = self._cell()
        assert arrays(shut_system.network) == walked

    def test_the_load_profile_and_the_recorder_gauge_see_the_walk(self):
        system = System(SystemConfig(n_nodes=N_NODES))
        protocol = default_factories()["full-map"](system)
        report = run_trace(protocol, _trace(True), verify=False)
        profile = link_load_profile(system.network)
        assert profile.total_bits == report.network_total_bits
        assert profile.busiest_bits == max(arrays(system.network)[0]) > 0
        # The walks a per-link reader caused are a gauge of the next
        # recorded run, beside the cache's hits and misses.
        recorder = TraceRecorder()
        run_trace(protocol, _trace(True, 50), verify=False, recorder=recorder)
        walks = recorder.metrics.gauges["route_plans_walks"]
        assert walks == system.route_plan_stats()["walks"] > 0

    def test_a_walk_mid_window_leaves_the_window_open(self):
        system = System(SystemConfig(n_nodes=8))
        protocol = default_factories()["no-cache"](system)
        protocol.open_window()
        protocol.read(1, Address(6, 0))
        first = sum(system.network.link_utilization().bits)
        assert first == protocol.stats.total_bits > 0
        protocol.read(1, Address(6, 0))
        assert protocol._ledger  # still posting
        protocol.close_window()
        assert system.network.total_bits == 2 * first
        assert sum(system.network.link_utilization().bits) == 2 * first


def _die_after(protocol, n_calls, error):
    """Make the ``n_calls``-th read or write of ``protocol`` raise.

    Spies on ``_read`` / ``_write``: the slow loop calls them directly on
    a proven trace, and ``read`` / ``write`` reach them on any other.
    """
    calls = [0]
    read, write = protocol._read, protocol._write

    def counted(fn):
        def call(*args):
            calls[0] += 1
            if calls[0] == n_calls:
                raise error
            return fn(*args)
        return call

    protocol._read, protocol._write = counted(read), counted(write)


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
    assert system.network._ledger is None and protocol._ledger is None
    assert system.network.total_bits > 0
    assert totals(system.network) == totals(shut_system.network)
    assert arrays(system.network) == arrays(shut_system.network)
    assert in_order(protocol.stats) == in_order(shut_protocol.stats)
    assert system.network.total_bits == protocol.stats.total_bits


def test_error_mid_kernel_replay_settles_the_deferred_hits():
    # The kernel holds hit counts of its own: its ``finally`` posts them
    # before run_trace's settles the ledger.  The error is planted in a
    # slow-loop run after the kernel has batched, on the one write to a
    # block nothing else touches, which no record can hold; the reference
    # is the slow loop (the message log stands the kernel down) failing
    # at the same row.
    generated = _trace(True)
    rows = list(generated)
    trace = Trace(
        rows[:500] + [Reference(5, Op.WRITE, Address(99, 0), 1)] + rows[500:],
        N_NODES,
        generated.block_size_words,
    ).compile()

    def run(logged):
        system = System(SystemConfig(n_nodes=N_NODES))
        protocol = default_factories()["two-mode"](system)
        if logged:
            protocol.enable_message_log()
        write = protocol._write

        def planted(node, block, offset, value):
            if block == 99:
                raise CoherenceError("planted", block=block, node=node)
            write(node, block, offset, value)

        protocol._write = planted
        with pytest.raises(CoherenceError, match="planted"):
            run_trace(
                protocol, trace, verify=False, check_invariants_every=0
            )
        return system, protocol

    system, protocol = run(logged=False)
    assert protocol.batched_kernel().batched_refs > 0
    shut_system, shut_protocol = run(logged=True)
    assert shut_protocol.batched_kernel().batched_refs == 0
    assert in_order(protocol.stats) == in_order(shut_protocol.stats)
    assert totals(system.network) == totals(shut_system.network)
    assert arrays(system.network) == arrays(shut_system.network)
    assert system.network.total_bits == protocol.stats.total_bits > 0


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


def _writes(protocol):
    """Three nodes write one block."""
    for step in range(3):
        protocol.write(step, Address(6, 0), step)


def _grouped(protocol):
    """A ledger through every branch of the grouped settle.

    The first kind posted is an empty multicast (counted, never walked),
    so a settle that accounts unicasts before multicasts reorders
    ``Stats``; one price group holds unicasts posted by port, by
    one-element set and as a scaled deferred hit (which, with the window
    shut, are as many unicasts sent one by one).
    """
    word = protocol._cost_word
    protocol._multicast(MsgKind.INVALIDATE, 2, frozenset(), word)
    protocol._multicast(MsgKind.MEM_READ, 0, frozenset({5}), word)
    protocol._send(MsgKind.ACK, 3, 1, protocol._cost_ack)
    protocol._send(MsgKind.MEM_READ, 4, 7, word)
    protocol._multicast(MsgKind.INVALIDATE, 2, frozenset({1, 6, 7}), word)
    if protocol._ledger is not None:
        protocol._post(MsgKind.MEM_READ, 1, 3, word, 3)
    else:
        for _ in range(3):
            protocol._send(MsgKind.MEM_READ, 1, 3, word)


class TestResetTraffic:
    @pytest.mark.parametrize(
        "posts", [_writes, _grouped], ids=["writes", "grouped"]
    )
    def test_reset_inside_a_window_drops_pending_posts_too(self, posts):
        # Posted before the reset: counted in Stats, absent from the links
        # -- what per-send accounting leaves (the shut run below).  The
        # same posts then settle twice more, split by a total read, and a
        # link read walks them.
        def run(open_window):
            system = System(SystemConfig(n_nodes=8))
            protocol = default_factories()["write-once"](system)
            if open_window:
                protocol.open_window()
            posts(protocol)
            system.reset_traffic()
            assert system.network.total_bits == 0
            before = protocol.stats.total_bits
            posts(protocol)
            mid = totals(system.network)
            posts(protocol)
            protocol.read(1, Address(6, 0))
            protocol.close_window()
            return system, protocol, before, mid

        system, protocol, before, mid = run(True)
        assert system.network._ledger is None
        shut_system, shut_protocol, shut_before, shut_mid = run(False)
        assert before == shut_before > 0
        assert mid == shut_mid
        assert in_order(protocol.stats) == in_order(shut_protocol.stats)
        assert totals(system.network) == totals(shut_system.network)
        assert arrays(system.network) == arrays(shut_system.network)
        assert (
            system.network.total_bits == protocol.stats.total_bits - before
        )

    def test_reset_outside_a_window_is_unchanged(self):
        network = OmegaNetwork(8)
        Multicaster(network).send_payload(0, 20, frozenset({3, 4}))
        assert network.total_bits > 0
        network.reset_traffic()
        assert network._ledger is None
        assert arrays(network) == arrays(OmegaNetwork(8))
        assert len(network.route_plans) == 1  # plans survive

    def test_reset_drops_priced_messages_nobody_walked(self):
        system, protocol, report = _run("full-map", True, None)
        assert system.network._unwalked
        system.reset_traffic()
        assert totals(system.network) == (
            0, [0] * (system.network.n_stages + 1), 0
        )
        assert arrays(system.network) == arrays(OmegaNetwork(N_NODES))
        assert protocol.stats.total_bits == report.network_total_bits

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


@pytest.mark.parametrize("tier", ["run_trace", "kernel"])
@pytest.mark.parametrize("protocol_name", ["global-read", "two-mode"])
def test_hand_driven_replay_tiers_account_before_returning(
    tier, protocol_name
):
    # Driven by hand, the kernel runs inside a window its driver opens
    # and closes, as run_trace does, and the flush of its deferred hits
    # lands there.  Where no window can open (the message log watches
    # every send) the kernel cannot run: run_trace replays on the slow
    # loop, send by send, each walked cold.
    def replay(plan_cache):
        system = System(SystemConfig(n_nodes=N_NODES))
        protocol = default_factories()[protocol_name](system)
        if not plan_cache:
            system.network.route_plans = None
            protocol.enable_message_log()
        if tier == "kernel" and protocol.open_window():
            try:
                protocol.batched_kernel().replay(_trace(True))
            finally:
                protocol.close_window()
        else:
            run_trace(
                protocol, _trace(True), verify=False,
                check_invariants_every=0,
            )
        assert (protocol.batched_kernel().batched_refs > 0) is plan_cache
        assert system.network._ledger is None and protocol._ledger is None
        assert system.network.total_bits == protocol.stats.total_bits > 0
        return system, protocol

    system, protocol = replay(plan_cache=True)
    cold_system, cold_protocol = replay(plan_cache=False)
    assert not cold_system.network._unwalked
    ran_system, _, report = _run(protocol_name, True, None)
    for stats in (protocol.stats, cold_protocol.stats):
        assert in_order(stats) == in_order(report.stats)
    assert totals(system.network) == totals(ran_system.network)
    assert arrays(system.network) == arrays(ran_system.network)
    assert arrays(cold_system.network) == arrays(ran_system.network)


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
