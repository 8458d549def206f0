"""Tests for the batched kernel's stable-state records.

Two concerns: every event that could change a memoised answer must bump
``fastpath_epoch`` (invalidation), and replaying a compiled trace
through ``run_trace`` -- the kernel executing its records -- must be
bit-identical to the slow path (equivalence), including under ownership
churn and for the message-bearing global-read records.  When the kernel
may run at all is ``run_trace``'s one gate, whose full table is in
tests/obs/test_standdown.py; ``TestGating`` keeps the observers' rows.
"""

import json

import pytest

from repro.analysis.compare import default_factories
from repro.cache.state import Mode
from repro.errors import TraceError
from repro.faults.plan import FaultPlan
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


def _replay(observe=None, **system_kwargs):
    """``(references batched, report)`` of a trace the table would batch.

    ``observe(protocol)`` runs first, to attach whatever watches the run.
    """
    system = System(SystemConfig(n_nodes=8), **system_kwargs)
    protocol = StenstromProtocol(system)
    if observe is not None:
        observe(protocol)
    report = run_trace(
        protocol,
        markov_block_trace(8, range(4), 0.3, 300, seed=2),
        verify=False,
        check_invariants_every=0,
    )
    return protocol.batched_kernel().batched_refs, report.to_dict()


def _log_messages(protocol):
    protocol.enable_message_log()


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

    # An observer keeps run_trace's window shut: the table serves none of
    # the trace, and the report is the one the table would have given.
    def test_fault_injection_disables_the_table(self):
        plan = FaultPlan(drop_probability=0.1, seed=3)
        batched, report = _replay(fault_plan=plan)
        assert batched == 0
        assert report == _replay(_log_messages, fault_plan=plan)[1]

    def test_recorder_disables_the_table(self):
        def record(protocol):
            attach_recorder(protocol, TraceRecorder())

        def record_and_log(protocol):
            record(protocol)
            _log_messages(protocol)

        batched, report = _replay(record)
        assert batched == 0
        assert report == _replay(record_and_log)[1]

    def test_message_log_disables_the_table(self):
        batched, report = _replay(_log_messages)
        assert batched == 0
        plain_batched, plain_report = _replay()
        assert plain_batched > 0
        assert report == plain_report


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
        # The protocol refuses one reference mid-trace, after the kernel
        # batched hundreds before it: the finally-flush must still
        # account for every reference replayed before the refusal, so
        # the replay ends exactly as a per-send replay of the prefix.
        class Refused(Exception):
            pass

        n, bad_row, untouched = 16, 1500, 99
        references = list(markov_block_trace(n, range(6), 0.3, 2000, seed=7))
        assert all(ref.address.block != untouched for ref in references)
        references.insert(
            bad_row, Reference(0, Op.READ, Address(untouched, 0))
        )
        trace = Trace(references, n, 4).compile()

        def two_mode(slow):
            system = System(SystemConfig(n_nodes=n, block_size_words=4))
            protocol = default_factories()["two-mode"](system)
            if slow:
                protocol.enable_message_log()
            for name in ("_read", "_write"):
                method = getattr(protocol, name)

                def refuse(node, block, *rest, method=method):
                    if block == untouched:
                        raise Refused
                    return method(node, block, *rest)

                setattr(protocol, name, refuse)
            return system, protocol

        fast_system, fast_protocol = two_mode(slow=False)
        with pytest.raises(Refused):
            run_trace(
                fast_protocol, trace, verify=False, check_invariants_every=0
            )
        assert fast_protocol.batched_kernel().batched_refs > 0
        slow_system, slow_protocol = two_mode(slow=True)
        run_trace(
            slow_protocol,
            trace[:bad_row],
            verify=False,
            check_invariants_every=0,
        )
        assert slow_protocol.batched_kernel().batched_refs == 0
        # Stats in key order, at every level.
        assert json.dumps(fast_protocol.stats.to_dict()) == json.dumps(
            slow_protocol.stats.to_dict()
        )
        fast, slow = fast_system.network, slow_system.network
        assert fast.total_bits == slow.total_bits > 0
        assert fast.bits_by_level() == slow.bits_by_level()
