"""Tests for the batched kernel's stable-state records.

Three concerns: the kernel must only be handed out when the shortcut is
sound (gating), every event that could change a memoised answer must
bump ``fastpath_epoch`` (invalidation), and replaying a compiled trace
through ``run_trace`` -- the kernel executing its records -- must be
bit-identical to the slow path (equivalence), including under ownership
churn and for the message-bearing global-read records.
"""

import pytest

from repro.analysis.compare import default_factories
from repro.cache.state import Mode
from repro.errors import TraceError
from repro.faults.plan import FaultPlan
from repro.network.multicast import Multicaster
from repro.obs.hooks import attach_recorder
from repro.obs.recorder import TraceRecorder
from repro.protocol.stenstrom import StenstromProtocol
from repro.sim import stats as ev
from repro.sim.engine import run_trace
from repro.sim.system import System, SystemConfig
from repro.sim.trace import Trace
from repro.types import Address, Op, Reference
from repro.workloads.markov import markov_block_trace
from repro.workloads.sharing import migratory_trace, ping_pong_trace

from tests.protocol.conftest import build


def compiled(references, n_nodes, block_size_words=2):
    return Trace(references, n_nodes, block_size_words).compile()


class TestGating:
    def test_clean_protocol_offers_a_table(self):
        _, protocol = build()
        kernel = protocol.batched_kernel()
        assert kernel is not None
        assert protocol.batched_kernel() is kernel  # memoised, counters persist

    def test_fastpath_is_the_kernel_under_its_old_name(self):
        # ``fastpath()`` and ``hits`` survive only for the benchmark's
        # fastpath_hit_share probe: the kernel on Stenstrom, None on the
        # baselines, and the kernel's batched count.
        for name, factory in default_factories().items():
            protocol = factory(System(SystemConfig(n_nodes=8)))
            if isinstance(protocol, StenstromProtocol):
                kernel = protocol.batched_kernel()
                assert protocol.fastpath() is kernel is not None, name
                run_trace(
                    protocol,
                    markov_block_trace(
                        8, range(4), 0.3, 300, seed=2
                    ),
                    verify=False,
                    check_invariants_every=0,
                )
                assert kernel.hits == kernel.batched_refs > 0, name
            else:
                assert protocol.fastpath() is None, name

    def test_fault_injection_disables_the_table(self):
        system = System(
            SystemConfig(n_nodes=4),
            fault_plan=FaultPlan(drop_probability=0.1, seed=3),
        )
        protocol = StenstromProtocol(system)
        assert system.fault_injector is not None
        assert protocol.batched_kernel() is None

    def test_recorder_disables_the_table(self):
        _, protocol = build()
        attach_recorder(protocol, TraceRecorder())
        assert protocol.batched_kernel() is None

    def test_message_log_disables_the_table(self):
        _, protocol = build()
        protocol.enable_message_log()
        assert protocol.batched_kernel() is None

    def test_engine_skips_table_when_verifying(self):
        _, protocol = build(n_nodes=4)
        trace = compiled([Reference(0, Op.WRITE, Address(0, 0), 1)] * 50, 4)
        run_trace(protocol, trace, verify=True)
        kernel = protocol.batched_kernel()
        assert kernel.batched_refs == kernel.fallback_refs == 0

    def test_engine_skips_table_under_invariant_stride(self):
        _, protocol = build(n_nodes=4)
        trace = compiled([Reference(0, Op.WRITE, Address(0, 0), 1)] * 50, 4)
        run_trace(protocol, trace, verify=False, check_invariants_every=10)
        kernel = protocol.batched_kernel()
        assert kernel.batched_refs == kernel.fallback_refs == 0

    @pytest.mark.parametrize("multicaster", ["subclass", "net-recorder"])
    def test_a_multicaster_that_is_not_plain_shuts_the_window(
        self, multicaster
    ):
        # Only a plain Multicaster prices a posted message as a sent one:
        # a subclass, or a net recorder, keeps the ledger shut and gets
        # no distributed-write multicast record -- and the replay reports
        # exactly what the plain run reports.
        class Subclassed(Multicaster):
            pass

        def run(kind):
            system = System(
                SystemConfig(n_nodes=16, cache_entries=4, block_size_words=4),
                multicaster_factory=(
                    Subclassed if kind == "subclass" else None
                ),
            )
            if kind == "net-recorder":
                system.multicaster.recorder = TraceRecorder()
            protocol = StenstromProtocol(
                system, default_mode=Mode.DISTRIBUTED_WRITE
            )
            ledgers = []
            write = protocol._write

            def spying_write(*args):
                ledgers.append(protocol._ledger)
                return write(*args)

            protocol._write = spying_write
            report = run_trace(
                protocol,
                markov_block_trace(
                    16, range(4), 0.3, 1200, seed=3
                ),
                verify=False,
                check_invariants_every=0,
            )
            multicast_records = [
                record
                for record in protocol.batched_kernel()._writes.values()
                if len(record) == 9
            ]
            return report, ledgers, multicast_records

        plain_report, plain_ledgers, plain_records = run("plain")
        assert plain_records
        assert plain_ledgers and None not in plain_ledgers
        report, ledgers, records = run(multicaster)
        assert ledgers and all(ledger is None for ledger in ledgers)
        assert records == []
        assert report.to_dict() == plain_report.to_dict()


class TestEpochInvalidation:
    def test_ownership_transfer_bumps_epoch(self):
        _, protocol = build()
        protocol.write(0, Address(0, 0), 1)
        before = protocol.fastpath_epoch
        protocol.write(1, Address(0, 0), 2)  # node 1 takes ownership
        assert protocol.fastpath_epoch > before

    def test_mode_switch_bumps_epoch_both_ways(self):
        _, protocol = build()
        protocol.write(0, Address(0, 0), 1)
        before = protocol.fastpath_epoch
        protocol.set_mode(0, 0, Mode.DISTRIBUTED_WRITE)
        after_dw = protocol.fastpath_epoch
        assert after_dw > before
        protocol.set_mode(0, 0, Mode.GLOBAL_READ)
        assert protocol.fastpath_epoch > after_dw

    def test_replacement_bumps_epoch(self):
        system, protocol = build(cache_entries=4, associativity=1)
        protocol.write(0, Address(0, 0), 1)
        before = protocol.fastpath_epoch
        # A direct-mapped cache with 4 sets: block 4 maps onto block 0's
        # set and evicts it.
        protocol.write(0, Address(4, 0), 2)
        assert protocol.stats.events[ev.REPLACEMENTS] >= 1
        assert protocol.fastpath_epoch > before

    def test_fault_degradation_bumps_epoch(self):
        _, protocol = build()
        protocol.write(0, Address(0, 0), 1)
        before = protocol.fastpath_epoch
        protocol._degrade_block(0)
        assert protocol.stats.events[ev.FAULT_DEGRADED_BLOCKS] == 1
        assert protocol.fastpath_epoch > before

    def test_stale_record_falls_back_and_re_registers(self):
        n = 4
        _, protocol = build(n_nodes=n)
        kernel = protocol.batched_kernel()
        # A cold block: the slow loop takes the first MIN_CHUNK writes,
        # then node 0's write record is built and the rest hit.
        warm = compiled([Reference(0, Op.WRITE, Address(0, 0), 1)] * 100, n)
        run_trace(protocol, warm, verify=False, check_invariants_every=0)
        assert (kernel.batched_refs, kernel.fallback_refs) == (36, 64)
        # Steal ownership via the slow path: the record's epoch stamp is
        # now stale and node 0 holds only a placeholder, so no rebuild
        # makes its write a hit -- the slow loop takes the first writes
        # back, and the rebuilt record serves the rest.
        protocol.write(1, Address(0, 0), 9)
        run_trace(protocol, warm, verify=False, check_invariants_every=0)
        assert (kernel.batched_refs, kernel.fallback_refs) == (72, 128)
        assert kernel._writes[0][0] == protocol.fastpath_epoch

class TestCounters:
    def test_hits_and_misses_cover_every_reference(self):
        n = 8
        trace = markov_block_trace(
            n,
            tasks=list(range(4)),
            write_fraction=0.3,
            n_references=500,
            seed=5,
        )
        _, protocol = build(n_nodes=n, block_size_words=4)
        run_trace(protocol, trace, verify=False, check_invariants_every=0)
        kernel = protocol.batched_kernel()
        assert kernel.batched_refs + kernel.fallback_refs == len(trace)
        assert kernel.batched_refs > kernel.fallback_refs  # steady state

    def test_counters_accumulate_across_replays(self):
        n = 4
        _, protocol = build(n_nodes=n)
        trace = compiled([Reference(0, Op.WRITE, Address(0, 0), 1)] * 10, n)
        run_trace(protocol, trace, verify=False, check_invariants_every=0)
        kernel = protocol.batched_kernel()
        first = (kernel.batched_refs, kernel.fallback_refs)
        run_trace(protocol, trace, verify=False, check_invariants_every=0)
        assert kernel.batched_refs > first[0]
        assert kernel.batched_refs + kernel.fallback_refs == 2 * len(trace)

    def test_malformed_node_raises_through_fast_loop(self):
        _, protocol = build(n_nodes=4)
        # Valid for an 8-node trace, out of range for the 4-node system.
        bad = compiled([Reference(7, Op.READ, Address(0, 0))], 8)
        with pytest.raises(TraceError, match="node"):
            run_trace(protocol, bad, verify=False, check_invariants_every=0)


def _fresh_reports(references, n_nodes, *, default_mode=Mode.GLOBAL_READ):
    """(fast-path report, slow-path report) from identical fresh systems."""
    reports = []
    for form in (
        compiled(references, n_nodes),
        list(references),
    ):
        _, protocol = build(n_nodes=n_nodes, default_mode=default_mode)
        reports.append(
            run_trace(protocol, form, verify=False, check_invariants_every=0)
        )
    return reports


class TestEquivalence:
    def test_ownership_churn_matches_slow_path(self):
        # Ping-pong plus migratory sharing: records go stale constantly.
        n = 8
        references = list(
            ping_pong_trace(n, first=0, second=1, n_rounds=30)
        ) + list(migratory_trace(n, tasks=[2, 3, 4], n_rounds=20))
        fast, slow = _fresh_reports(references, n)
        assert fast.to_dict() == slow.to_dict()

    def test_global_read_records_match_slow_path(self):
        # One writer, many repeat readers: the steady state is the
        # message-bearing global-read record (two unicasts per read).
        n = 8
        references = [Reference(0, Op.WRITE, Address(0, 0), 7)]
        for _ in range(40):
            for reader in (1, 2, 3):
                references.append(Reference(reader, Op.READ, Address(0, 0)))
        fast, slow = _fresh_reports(references, n)
        assert fast.to_dict() == slow.to_dict()
        assert fast.stats.events[ev.GLOBAL_READS] > 100

    def test_distributed_write_mode_matches_slow_path(self):
        n = 8
        references = []
        for round_no in range(25):
            references.append(
                Reference(0, Op.WRITE, Address(0, 0), round_no)
            )
            references.append(Reference(1, Op.READ, Address(0, 0)))
            references.append(Reference(2, Op.READ, Address(0, 0)))
        fast, slow = _fresh_reports(
            references, n, default_mode=Mode.DISTRIBUTED_WRITE
        )
        assert fast.to_dict() == slow.to_dict()

    def test_partial_replay_flushes_exactly_on_error(self):
        # A malformed row mid-trace aborts the replay; the finally-flush
        # must still account for every reference replayed before it, so
        # the two loops agree on everything up to the bad row.
        n = 4
        good = [Reference(0, Op.WRITE, Address(0, 0), 1)] * 10
        # Node 7 is out of range for the 4-node system.
        bad_tail = compiled(good + [Reference(7, Op.READ, Address(0, 0))], 8)
        _, fast_protocol = build(n_nodes=n)
        with pytest.raises(TraceError):
            run_trace(
                fast_protocol,
                bad_tail,
                verify=False,
                check_invariants_every=0,
            )
        _, slow_protocol = build(n_nodes=n)
        for ref in good:
            slow_protocol.write(ref.node, ref.address, ref.value)
        assert dict(fast_protocol.stats.events) == dict(
            slow_protocol.stats.events
        )
