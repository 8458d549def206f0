"""Recovery edge cases: partial multicast delivery, re-send exhaustion,
degradation, and readers joining while ownership moves -- each asserted
against the Stats counters, the per-incident fault log, and the trace
recorder's fault events (satellite of the model-checking PR; the same
scenarios are model-checked abstractly in :mod:`repro.mc`)."""

import pytest

import repro.sim.stats as ev
from repro.cache.state import Mode
from repro.faults import (
    DropRule,
    FaultPlan,
    ScriptedInjector,
    attach_scripted,
)
from repro.obs import TraceRecorder, attach_recorder
from repro.protocol.messages import MsgKind
from repro.protocol.stenstrom import StenstromProtocol
from repro.sim.system import System, SystemConfig
from repro.types import Address


def build(n_nodes, *, max_retries=1, default_mode=Mode.DISTRIBUTED_WRITE):
    system = System(
        SystemConfig(n_nodes=n_nodes, cache_entries=8, block_size_words=2)
    )
    scripted = attach_scripted(system, max_retries=max_retries)
    protocol = StenstromProtocol(system, default_mode=default_mode)
    recorder = attach_recorder(protocol, TraceRecorder())
    return protocol, scripted, recorder


def addr(block, offset=0):
    return Address(block, offset)


def fault_events(recorder, name):
    return [e for e in recorder.events if e.kind == name]


@pytest.mark.parametrize("n_nodes", [4, 8])
class TestPartialDeliveryRecovers:
    def test_per_dest_resend_completes_the_update(self, n_nodes):
        protocol, scripted, recorder = build(n_nodes, max_retries=2)
        protocol.write(0, addr(0), 10)
        for reader in range(1, n_nodes):
            protocol.read(reader, addr(0))
        # The initial round misses one destination; the per-destination
        # re-send round delivers it within budget.
        scripted.add_rule(
            DropRule(
                drops=1, kind=MsgKind.WRITE_UPDATE.value, source=0, dest=2
            )
        )
        protocol.write(0, addr(0), 11)
        protocol.check_invariants()
        for reader in range(n_nodes):
            assert protocol.read(reader, addr(0)) == 11
        assert protocol.stats.events[ev.FAULT_DROPS] == 1
        assert protocol.stats.events[ev.FAULT_RETRIES] >= 1
        assert ev.FAULT_RETRY_EXHAUSTED not in protocol.stats.events
        assert ev.FAULT_DEGRADED_BLOCKS not in protocol.stats.events
        assert not protocol.uncacheable_blocks


@pytest.mark.parametrize("n_nodes", [4, 8])
class TestResendExhaustionDegrades:
    def exhaust(self, n_nodes, dest=2, max_retries=1):
        protocol, scripted, recorder = build(n_nodes, max_retries=max_retries)
        protocol.write(0, addr(0), 10)
        for reader in range(1, n_nodes):
            protocol.read(reader, addr(0))
        # Initial round + every re-send round to `dest` is lost:
        # max_retries + 1 drops exhaust the budget mid-update.
        scripted.add_rule(
            DropRule(
                drops=max_retries + 1,
                kind=MsgKind.WRITE_UPDATE.value,
                source=0,
                dest=dest,
            )
        )
        protocol.write(0, addr(0), 11)
        return protocol, recorder

    def test_block_degrades_and_write_survives(self, n_nodes):
        protocol, _ = self.exhaust(n_nodes)
        assert protocol.uncacheable_blocks == {0}
        for cache in protocol.system.caches:
            assert cache.find(0) is None
        # Partial delivery could not be aborted; degradation wrote the
        # owner's value back, so every node reads it memory-direct.
        for reader in range(n_nodes):
            assert protocol.read(reader, addr(0)) == 11
        protocol.check_invariants()

    def test_stats_count_exhaustion_and_degradation_separately(self, n_nodes):
        protocol, _ = self.exhaust(n_nodes)
        assert protocol.stats.events[ev.FAULT_RETRY_EXHAUSTED] == 1
        assert protocol.stats.events[ev.FAULT_DEGRADED_BLOCKS] == 1

    def test_fault_log_attributes_the_triggering_destination(self, n_nodes):
        protocol, _ = self.exhaust(n_nodes, dest=3)
        log = protocol.stats.fault_event_log()
        exhausted = [
            e for e in log if e["event"] == ev.FAULT_RETRY_EXHAUSTED
        ]
        degraded = [
            e for e in log if e["event"] == ev.FAULT_DEGRADED_BLOCKS
        ]
        # Same reference, same block -- but two distinct incidents, each
        # carrying its own attribution.
        assert len(exhausted) == 1 and len(degraded) == 1
        assert exhausted[0]["block"] == 0
        assert exhausted[0]["dests"] == [3]
        assert exhausted[0]["kind"] == MsgKind.WRITE_UPDATE.value
        assert degraded[0]["block"] == 0
        assert degraded[0]["cause"] == "retry_exhausted"
        assert degraded[0]["dests"] == [3]

    def test_recorder_events_reconcile_with_counters(self, n_nodes):
        protocol, recorder = self.exhaust(n_nodes)
        for name in (ev.FAULT_RETRY_EXHAUSTED, ev.FAULT_DEGRADED_BLOCKS):
            assert len(fault_events(recorder, name)) == (
                protocol.stats.events[name]
            )
        (exhausted,) = fault_events(recorder, ev.FAULT_RETRY_EXHAUSTED)
        assert dict(exhausted.args)["block"] == 0

    def test_higher_budget_survives_what_lower_budget_cannot(self, n_nodes):
        protocol, _ = self.exhaust(n_nodes, max_retries=3)
        # Rule drops 4 rounds; with max_retries=3 that still exhausts.
        assert protocol.uncacheable_blocks == {0}
        protocol2, scripted2, _ = build(n_nodes, max_retries=3)
        protocol2.write(0, addr(0), 10)
        protocol2.read(1, addr(0))
        scripted2.add_rule(
            DropRule(
                drops=2, kind=MsgKind.WRITE_UPDATE.value, source=0, dest=1
            )
        )
        protocol2.write(0, addr(0), 11)
        assert not protocol2.uncacheable_blocks
        assert protocol2.read(1, addr(0)) == 11


class TestEvictAndSetModeRecover:
    """The fault-retry wrapper around ``evict`` and ``set_mode``."""

    def test_handoff_into_a_dead_route_degrades_the_victim(self):
        system = System(
            SystemConfig(n_nodes=8, cache_entries=8, block_size_words=2)
        )
        protocol = StenstromProtocol(
            system, default_mode=Mode.DISTRIBUTED_WRITE
        )
        protocol.write(0, addr(5), 10)
        protocol.read(1, addr(5))  # node 0 is now a non-exclusive owner
        # Kill one link between the candidate and the block's home: the
        # offer and its ACK (0 <-> 1) still pass, and the candidate's
        # OWN_REQ, inside the 5(b) ownership transfer, is the first send
        # that dies.
        network = system.network
        home = protocol.home(5)
        offer_links = {
            link
            for source, dest in ((0, 1), (1, 0))
            for link in enumerate(network.route_positions(source, dest))
        }
        dead = next(
            link
            for link in enumerate(network.route_positions(1, home))
            if link not in offer_links
        )
        injector = ScriptedInjector(network, FaultPlan(dead_links=(dead,)))
        system.fault_injector = injector
        network.fault_injector = injector

        protocol.evict(0, 5)

        (dead_route,) = [
            e for e in protocol.stats.fault_event_log()
            if e["event"] == ev.FAULT_DEAD_ROUTES
        ]
        assert (dead_route["source"], dead_route["dest"]) == (1, home)
        assert protocol.uncacheable_blocks == {5}
        for cache in system.caches:
            assert cache.find(5) is None
        degraded = [
            e for e in protocol.stats.fault_event_log()
            if e["event"] == ev.FAULT_DEGRADED_BLOCKS
        ]
        assert len(degraded) == 1
        assert degraded[0]["block"] == 5
        assert degraded[0]["cause"] == "dead_route"
        # The owner's modified copy reached memory before the purge.
        assert protocol.read(2, addr(5)) == 10
        protocol.check_invariants()

    def test_switch_to_gr_whose_invalidation_exhausts_degrades(self):
        protocol, scripted, _ = build(8, max_retries=1)
        protocol.write(0, addr(0), 10)
        protocol.read(1, addr(0))
        protocol.read(2, addr(0))
        # The initial INVALIDATE round and its one re-send both miss
        # node 1: the multicast budget is spent mid-switch.
        scripted.add_rule(
            DropRule(
                drops=2, kind=MsgKind.INVALIDATE.value, source=0, dest=1
            )
        )
        protocol.set_mode(0, 0, Mode.GLOBAL_READ)

        assert protocol.uncacheable_blocks == {0}
        assert protocol.mode_of(0) is None
        (exhausted,) = [
            e for e in protocol.stats.fault_event_log()
            if e["event"] == ev.FAULT_RETRY_EXHAUSTED
        ]
        assert exhausted["kind"] == MsgKind.INVALIDATE.value
        assert exhausted["dests"] == [1]
        direct = protocol.stats.events[ev.FAULT_DIRECT_READS]
        for reader in range(4):
            assert protocol.read(reader, addr(0)) == 10
        assert protocol.stats.events[ev.FAULT_DIRECT_READS] == direct + 4
        protocol.check_invariants()


@pytest.mark.parametrize("n_nodes", [4, 8])
class TestReaderJoinsRacingOwnershipTransfer:
    def test_gr_reader_joins_while_transfer_multicast_recovers(self, n_nodes):
        protocol, scripted, _ = build(
            n_nodes, max_retries=2, default_mode=Mode.GLOBAL_READ
        )
        protocol.write(0, addr(0), 10)  # node 0 owns (global read)
        protocol.read(1, addr(0))  # placeholder at 1 -> 0
        protocol.read(2, addr(0))  # placeholder at 2 -> 0
        # Node 3 takes ownership; the OWNER_UPDATE repointing the
        # placeholders loses its delivery to node 1 once and must be
        # re-sent before the transfer completes.
        scripted.add_rule(
            DropRule(
                drops=1, kind=MsgKind.OWNER_UPDATE.value, source=0, dest=1
            )
        )
        protocol.write(3, addr(0), 11)
        protocol.check_invariants()
        # The joined reader's placeholder chain still resolves: the
        # repointed placeholder names the new owner.
        assert protocol.read(1, addr(0)) == 11
        assert protocol.read(2, addr(0)) == 11
        entry = protocol.system.caches[1].find(0)
        assert entry is not None and entry.state_field.owner == 3
        assert not protocol.uncacheable_blocks

    def test_dw_reader_joins_between_transfer_and_next_update(self, n_nodes):
        protocol, scripted, _ = build(n_nodes, max_retries=2)
        protocol.write(0, addr(0), 10)
        protocol.read(1, addr(0))
        # Ownership moves 0 -> 1; a late reader joins immediately after,
        # then the next update multicast loses the late joiner's copy
        # once and recovers per destination.
        protocol.write(1, addr(0), 11)
        protocol.read(2, addr(0))
        scripted.add_rule(
            DropRule(
                drops=1, kind=MsgKind.WRITE_UPDATE.value, source=1, dest=2
            )
        )
        protocol.write(1, addr(0), 12)
        protocol.check_invariants()
        for reader in (0, 1, 2):
            assert protocol.read(reader, addr(0)) == 12
        assert ev.FAULT_DEGRADED_BLOCKS not in protocol.stats.events
