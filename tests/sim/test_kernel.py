"""Tests for the batched columnar kernel (:mod:`repro.sim.kernel`).

Four concerns, mirroring tests/protocol/test_fastpath.py: the kernel must
only be handed out when chunked execution is sound (gating), everything
that can invalidate a memoised answer must be caught by the per-chunk
revalidation (epoch and present-vector stamps, live checks) and either
rebuilt or handed to the slow loop, counted by cause (fallback reasons),
and batched replay must be bit-identical to the per-``Reference``
dispatch loop for every workload generator in the repo (equivalence;
tests/sim/test_kernel_policies.py does the same under the counting mode
policies).
"""

import gc
import random
import sys
import tracemalloc
from array import array
from collections import Counter

import pytest

from repro.analysis.compare import default_factories
from repro.cache.state import Mode
from repro.errors import ReproError, TraceError
from repro.faults.plan import FaultPlan
from repro.network.multicast import MulticastScheme
from repro.obs.hooks import attach_recorder
from repro.obs.recorder import TraceRecorder
from repro.protocol.messages import MessageCosts
from repro.protocol.modes import (
    AdaptiveModePolicy,
    OracleModePolicy,
    PerBlockModePolicy,
    StaticModePolicy,
)
from repro.protocol.stenstrom import StenstromProtocol
from repro.runner import Executor, SweepSpec, WorkloadSpec
from repro.sim import ctrace as ctrace_module
from repro.sim import kernel as kernel_module
from repro.sim.ctrace import CompiledTrace, CompiledTraceBuilder
from repro.sim.engine import run_trace
from repro.sim.kernel import BatchedKernel
from repro.sim.system import System, SystemConfig
from repro.sim.trace import Trace
from repro.types import Address, Op, Reference
from repro.workloads.locks import spinlock_trace
from repro.workloads.markov import markov_block_trace, shared_structure_trace
from repro.workloads.matrix import jacobi_trace, matrix_multiply_trace
from repro.workloads.sharing import (
    migratory_trace,
    ping_pong_trace,
    producer_consumer_trace,
)
from repro.workloads.synthetic import random_trace

from tests.protocol.conftest import build
from tests.sim.test_link_ledger import arrays, in_order


def _workloads(n_nodes):
    """Every trace generator in the repo, at test-friendly sizes."""
    tasks = list(range(8))
    return {
        "jacobi": lambda: jacobi_trace(
            n_nodes, tasks[:4], rows=8, row_words=8, sweeps=2,
        ),
        "markov_block": lambda: markov_block_trace(
            n_nodes, tasks, 0.3, 600, seed=3
        ),
        "matrix_multiply": lambda: matrix_multiply_trace(
            n_nodes, tasks[:4], size=6
        ),
        "migratory": lambda: migratory_trace(
            n_nodes, tasks[:3], 40
        ),
        "ping_pong": lambda: ping_pong_trace(
            n_nodes, 0, 1, 60
        ),
        "producer_consumer": lambda: producer_consumer_trace(
            n_nodes, 0, tasks[1:4], 40
        ),
        "random": lambda: random_trace(
            n_nodes, 600, seed=9
        ),
        "shared_structure": lambda: shared_structure_trace(
            n_nodes, tasks[:6], 0.3, 600, seed=4
        ),
        "spinlock": lambda: spinlock_trace(
            n_nodes, tasks[:3], 25
        ),
    }


class TestEquivalence:
    @pytest.mark.parametrize(
        "default_mode",
        [Mode.GLOBAL_READ, Mode.DISTRIBUTED_WRITE],
        ids=["gr", "dw"],
    )
    @pytest.mark.parametrize("n_nodes", [16, 64])
    @pytest.mark.parametrize("name", sorted(_workloads(16)))
    def test_batched_matches_per_reference(self, name, n_nodes, default_mode):
        make = _workloads(n_nodes)[name]
        compiled_trace = make()
        _, batched_protocol = build(
            n_nodes=n_nodes, block_size_words=4, default_mode=default_mode
        )
        batched_report = run_trace(
            batched_protocol,
            compiled_trace,
            verify=False,
            check_invariants_every=0,
        )
        kernel = batched_protocol.batched_kernel()
        assert kernel is not None
        assert (
            kernel.batched_refs + kernel.fallback_refs
            == len(compiled_trace)
        )
        _, slow_protocol = build(
            n_nodes=n_nodes, block_size_words=4, default_mode=default_mode
        )
        slow_report = run_trace(
            slow_protocol,
            list(make()),
            verify=False,
            check_invariants_every=0,
        )
        assert batched_report.to_dict() == slow_report.to_dict()
        # The column loop with both shortcuts withdrawn (the message log
        # gates them) is the third way through the same references.
        _, logged_protocol = build(
            n_nodes=n_nodes, block_size_words=4, default_mode=default_mode
        )
        logged_protocol.enable_message_log()
        logged_report = run_trace(
            logged_protocol,
            compiled_trace,
            verify=False,
            check_invariants_every=0,
        )
        assert logged_protocol.batched_kernel() is None
        assert logged_report.to_dict() == slow_report.to_dict()

    @pytest.mark.parametrize(
        "protocol_name, n_nodes, tasks, seed, n_references, scheme, expected",
        [
            (
                "distributed-write", 1024, range(0, 1024, 16), 11, 200_000,
                MulticastScheme.VECTOR,
                {
                    "batched_refs": 199_799,
                    "fallback_refs": 201,
                    "total_bits": 946_079_920,
                },
            ),
            (
                "two-mode", 64, range(16), 0, 20_000,
                MulticastScheme.COMBINED,
                {
                    "batched_refs": 19_802,
                    "fallback_refs": 198,
                    "total_bits": 4_229_455,
                },
            ),
        ],
        ids=["dw-n1024", "two-mode-n64"],
    )
    def test_engagement_and_cost_of_the_two_reference_cells(
        self, protocol_name, n_nodes, tasks, seed, n_references, scheme,
        expected,
    ):
        # Exact, machine-independent counts of how far the fast tiers
        # engage on the large-system cell and on the paper-size cell: a
        # lost record kind, a new epoch-bump site or a chunk-validation
        # regression moves them, where a host rate would only drift.
        trace = markov_block_trace(
            n_nodes, list(tasks), 0.3, n_references, seed=seed
        )
        system = System(
            SystemConfig(
                n_nodes=n_nodes,
                costs=MessageCosts.uniform(20),
                multicast_scheme=scheme,
            )
        )
        protocol = default_factories()[protocol_name](system)
        report = run_trace(
            protocol, trace, verify=False, check_invariants_every=0
        )
        kernel = protocol.batched_kernel()
        assert kernel.batched_refs + kernel.fallback_refs == n_references
        measured = {
            "batched_refs": kernel.batched_refs,
            "fallback_refs": kernel.fallback_refs,
            "total_bits": report.network_total_bits,
        }
        assert {name: measured[name] for name in expected} == expected

    def test_batchable_policy_decisions_match_per_reference(self):
        # A per-block mode map whose decisions fire mid-trace: the kernel
        # must cut the chunk where fold() reports a switch and hand the
        # switching reference to the slow loop.
        n_nodes = 16
        modes = {0: Mode.DISTRIBUTED_WRITE, 1: Mode.GLOBAL_READ}
        reports = []
        for compiled in (True, False):
            trace = shared_structure_trace(
                n_nodes, list(range(4)), 0.4, 600, n_blocks=4, seed=12
            )
            _, protocol = build(
                n_nodes=n_nodes,
                block_size_words=4,
                mode_policy=PerBlockModePolicy(modes),
            )
            reports.append(
                run_trace(
                    protocol,
                    trace if compiled else list(trace),
                    verify=False,
                    check_invariants_every=0,
                )
            )
        assert reports[0].to_dict() == reports[1].to_dict()

    def test_malformed_row_raises_with_absolute_index(self):
        # The bad row lands in a later chunk, so the index in the error
        # must survive the kernel handing a slice to the slow loop.
        good = [Reference(0, Op.WRITE, Address(0, 0), 1)] * 100
        bad = good + [Reference(7, Op.READ, Address(0, 0))]
        trace = Trace(bad, 8, 2).compile()
        _, protocol = build(n_nodes=4)
        with pytest.raises(TraceError, match="reference 100"):
            run_trace(protocol, trace, verify=False, check_invariants_every=0)


class TestGating:
    def test_kernel_is_memoised(self):
        _, protocol = build()
        kernel = protocol.batched_kernel()
        assert isinstance(kernel, BatchedKernel)
        assert protocol.batched_kernel() is kernel

    def test_message_log_gates_the_kernel(self):
        _, protocol = build()
        protocol.enable_message_log()
        assert protocol.batched_kernel() is None

    def test_recorder_gates_the_kernel(self):
        _, protocol = build()
        attach_recorder(protocol, TraceRecorder())
        assert protocol.batched_kernel() is None

    def test_fault_injection_gates_the_kernel(self):
        system = System(
            SystemConfig(n_nodes=4),
            fault_plan=FaultPlan(drop_probability=0.1, seed=3),
        )
        protocol = StenstromProtocol(system)
        assert protocol.batched_kernel() is None

    def test_batchable_policies_allow_the_kernel(self):
        # Every policy is: none is asked whether it can be batched, only
        # how far (ModePolicy.fold) -- the counting ones included.
        for policy in (
            StaticModePolicy(Mode.GLOBAL_READ),
            PerBlockModePolicy({0: Mode.DISTRIBUTED_WRITE}),
            OracleModePolicy(),
            AdaptiveModePolicy(),
        ):
            _, protocol = build(mode_policy=policy)
            assert protocol.batched_kernel() is not None

    def test_counting_policies_run_in_the_kernel_and_agree_with_the_slow_loop(
        self,
    ):
        # Oracle/adaptive policies observe every reference; the kernel
        # lets them observe a chunk's clean prefix in one step, and must
        # end where the slow loop (which observes one by one) ends: same
        # ledgers, same counters.
        n_nodes = 16
        trace = markov_block_trace(
            n_nodes, list(range(8)), 0.05, 4000, seed=3
        )
        for policy_cls in (OracleModePolicy, AdaptiveModePolicy):
            protocols = []
            for references in (trace, list(trace)):
                _, protocol = build(
                    n_nodes=n_nodes,
                    block_size_words=4,
                    mode_policy=policy_cls(32),
                )
                run_trace(
                    protocol, references, verify=False,
                    check_invariants_every=0,
                )
                protocols.append(protocol)
            kernel_protocol, slow_protocol = protocols
            kernel = kernel_protocol.batched_kernel()
            # (The adaptive policy overestimates w in distributed write
            # and flaps; each switch costs a reference on the slow loop.)
            assert kernel.batched_refs > len(trace) // 2
            assert kernel_protocol.stats.events["mode_switches"] > 0
            assert slow_protocol.batched_kernel().batched_refs == 0
            assert (
                kernel_protocol.stats.to_dict()
                == slow_protocol.stats.to_dict()
            )
            assert (
                kernel_protocol.mode_policy._counters
                == slow_protocol.mode_policy._counters
            )

    def test_engine_skips_kernel_when_verifying(self):
        _, protocol = build(n_nodes=4)
        refs = [Reference(0, Op.WRITE, Address(0, 0), 1)] * 200
        trace = Trace(refs, 4, 2).compile()
        run_trace(protocol, trace, verify=True)
        kernel = protocol.batched_kernel()
        assert kernel.batched_refs == kernel.fallback_refs == 0

    def test_counters_accumulate_across_runs(self):
        _, protocol = build(n_nodes=4)
        refs = [Reference(0, Op.WRITE, Address(0, 0), 1)] * 200
        trace = Trace(refs, 4, 2).compile()
        run_trace(protocol, trace, verify=False, check_invariants_every=0)
        kernel = protocol.batched_kernel()
        first = kernel.batched_refs + kernel.fallback_refs
        assert first == 200
        run_trace(protocol, trace, verify=False, check_invariants_every=0)
        assert kernel.batched_refs + kernel.fallback_refs == 400


class TestFallbackReasons:
    """One hand-built chunk per reason; every slow-loop run is counted.

    A record that is missing, stale or dead is no reason: the kernel
    rebuilds it and only a key that is still not a hit cuts the chunk.
    """

    N_NODES = 8

    @pytest.fixture
    def slow_runs(self, monkeypatch):
        """The lengths of the runs the kernel hands the slow loop."""
        runs = []
        real_replay = kernel_module._replay_columns

        def counting_replay(protocol, trace, **kwargs):
            runs.append(len(trace))
            return real_replay(protocol, trace, **kwargs)

        monkeypatch.setattr(kernel_module, "_replay_columns", counting_replay)
        return runs

    def _writes(self, n=10, node=0, offset=0, value_base=0):
        refs = [
            Reference(node, Op.WRITE, Address(0, offset), value_base + v + 1)
            for v in range(n)
        ]
        return Trace(refs, self.N_NODES, 2).compile()

    def _replay(self, protocol, trace):
        """Replay ``trace``; the reasons this replay alone added."""
        kernel = protocol.batched_kernel()
        before = Counter(kernel.fallback_reasons)
        run_trace(protocol, trace, verify=False, check_invariants_every=0)
        return kernel.fallback_reasons - before

    def _warm(self, **build_kwargs):
        """A protocol whose kernel knows node 0's write to block 0."""
        _, protocol = build(n_nodes=self.N_NODES, **build_kwargs)
        assert self._replay(protocol, self._writes()) == {"miss": 1}
        assert self._replay(protocol, self._writes()) == {}
        return protocol

    def test_unknown_key_then_clean(self, slow_runs):
        # An uncached block is a miss at row 0: the slow loop takes up to
        # MIN_CHUNK references, and the next replay rebuilds the record.
        protocol = self._warm()
        assert slow_runs == [10]
        kernel = protocol.batched_kernel()
        assert (kernel.batched_refs, kernel.fallback_refs) == (10, 10)

    def test_stale_epoch(self, slow_runs):
        protocol = self._warm()
        protocol.set_mode(0, 0, Mode.DISTRIBUTED_WRITE)  # bumps the epoch
        assert self._replay(protocol, self._writes()) == {}
        assert slow_runs == [10]

    def test_stale_present(self, slow_runs):
        # A distributed-write owner with one copy out: the multicast
        # record is stamped with present_epoch, which a new reader bumps
        # without touching fastpath_epoch.  The rebuilt record multicasts
        # to both copies.
        _, protocol = build(
            n_nodes=self.N_NODES, default_mode=Mode.DISTRIBUTED_WRITE
        )
        protocol.write(0, Address(0, 0), 1)
        protocol.read(1, Address(0, 0))
        assert self._replay(protocol, self._writes()) == {}
        epoch = protocol.fastpath_epoch
        protocol.read(2, Address(0, 0))
        assert protocol.fastpath_epoch == epoch
        assert self._replay(protocol, self._writes(value_base=20)) == {}
        assert slow_runs == []
        for reader in (1, 2):
            assert protocol.read(reader, Address(0, 0)) == 30

    def test_live_state(self, slow_runs):
        # An exclusive distributed-write owner's record carries no
        # stamp for the present vector; a reader joining leaves both
        # epochs' records "current" but the write no longer local: the
        # live check fails and the rebuild makes it a multicast record.
        protocol = self._warm(default_mode=Mode.DISTRIBUTED_WRITE)
        epoch = protocol.fastpath_epoch
        protocol.read(1, Address(0, 0))
        assert protocol.fastpath_epoch == epoch
        assert self._replay(protocol, self._writes()) == {}
        assert len(protocol.batched_kernel()._writes[0]) == 9

    def test_bounds(self, slow_runs):
        protocol = self._warm()
        with pytest.raises(TraceError, match="reference 3"):
            self._replay(
                protocol,
                Trace(
                    [Reference(0, Op.WRITE, Address(0, 0), 1)] * 3
                    + [Reference(self.N_NODES, Op.READ, Address(0, 0))],
                    self.N_NODES + 1,
                    2,
                ).compile(),
            )
        assert protocol.batched_kernel().fallback_reasons["bounds"] == 1

    @pytest.mark.parametrize(
        "declared, validate, bad_row, error",
        [
            ((N_NODES, 2), False, (N_NODES, 0, 0, 0, 0), "reference 3"),
            ((N_NODES, 4), True, (0, 1, 0, 3, 1), "offset 3 outside"),
        ],
        ids=["unvalidated", "wider-blocks"],
    )
    def test_bounds_of_an_unproven_trace(
        self, slow_runs, declared, validate, bad_row, error
    ):
        # Like a trace declared for more nodes than the system has
        # (test_bounds), one never validated or declared with wider
        # blocks carries no proof: every chunk's bounds are tested, as
        # they always were, and the slow loop reports the bad row.
        protocol = self._warm()
        rows = [(0, 1, 0, 0, 1)] * 3 + [bad_row]
        trace = CompiledTrace(
            *(array("q", column) for column in zip(*rows)),
            *declared,
            validate=validate,
        )
        assert not trace.fits(self.N_NODES, 2)
        with pytest.raises(ReproError, match=error):
            self._replay(protocol, trace)
        assert protocol.batched_kernel().fallback_reasons["bounds"] == 1
        assert slow_runs[-1] == 4

    @pytest.mark.parametrize(
        "protocol_name", ["distributed-write", "global-read", "two-mode"]
    )
    @pytest.mark.parametrize("op", [2, -1])
    def test_an_out_of_range_op_takes_the_bounds_fallback(
        self, op, protocol_name
    ):
        # Node 0 writes and node 1 reads one word, turn about.  Folded, an
        # op of 2 is a read by the next node and -1 a write by the
        # previous one -- here both registered hits -- so an unproven
        # chunk must test its ops too, and the slow loop's ``if op:``
        # decide the row.
        rows = [(k % 2, 1 - k % 2, 0, 0, k) for k in range(400)]
        at = 300 if op == 2 else 301
        rows[at] = (rows[at][0], op, *rows[at][2:])

        def replay(slow):
            system = System(SystemConfig(n_nodes=self.N_NODES))
            protocol = default_factories()[protocol_name](system)
            if slow:
                protocol.enable_message_log()  # stands the kernel down
            trace = CompiledTrace(
                *(array("q", column) for column in zip(*rows)),
                self.N_NODES,
                2,
                validate=False,
            )
            report = run_trace(
                protocol, trace, verify=False, check_invariants_every=0
            )
            return protocol, report.to_dict()

        protocol, report = replay(slow=False)
        assert report == replay(slow=True)[1]
        assert protocol.batched_kernel().fallback_reasons["bounds"] >= 1

    @pytest.mark.parametrize(
        "declared", [(N_NODES // 2, 1), (N_NODES, 2)], ids=["smaller", "equal"]
    )
    def test_a_proven_trace_skips_the_bounds_test(
        self, slow_runs, declared, monkeypatch
    ):
        # validate() ran, on a geometry the system contains: no chunk is
        # tested again (``max`` is a name only the bounds test looks up).
        protocol = self._warm()
        trace = Trace(
            [Reference(0, Op.WRITE, Address(0, 0), 1)] * 200, *declared
        ).compile()
        assert trace.fits(self.N_NODES, 2)
        monkeypatch.setattr(kernel_module, "max", pytest.fail, raising=False)
        assert self._replay(protocol, trace) == {}
        assert protocol.batched_kernel().batched_refs == 10 + 200

    def test_policy_switch_cuts_the_chunk(self, slow_runs):
        # An exclusive owner (threshold 2/3) under an 8-reference window.
        # Seven references pass, the eighth completes a read-heavy window
        # and switches the block: seven run batched, the eighth alone
        # goes to the slow loop, and the rest -- their records stale
        # after the switch -- are rebuilt and run batched again.
        policy = OracleModePolicy(window=8)
        protocol = self._warm(mode_policy=policy)
        write = Reference(0, Op.WRITE, Address(0, 0), 9)
        read = Reference(0, Op.READ, Address(0, 0))

        def compiled(refs):
            return Trace(refs, self.N_NODES, 2).compile()

        # _warm left 20 writes behind: two all-write windows (global
        # read stays) and four carried.  Three writes and a read fill
        # the third -- still write-heavy -- and the read key is built
        # on sight.
        assert policy._counters[0].references == 4
        assert self._replay(protocol, compiled([write] * 3 + [read])) == {}
        assert policy._counters[0].references == 0
        assert protocol.stats.events["mode_switches"] == 0
        del slow_runs[:]
        kernel = protocol.batched_kernel()
        batched = kernel.batched_refs
        assert self._replay(
            protocol, compiled([write] * 2 + [read] * 10)
        ) == {"policy_switch": 1}
        assert slow_runs == [1]
        assert kernel.batched_refs - batched == 11
        assert protocol.stats.events["mode_switches"] == 1
        assert policy._counters[0].references == 4

    def test_reasons_sum_to_fallback_runs(self, slow_runs):
        # A churning multi-writer trace under a counting policy: many
        # runs, several reasons, and the ledger accounts for each run.
        n_nodes = 16
        _, protocol = build(
            n_nodes=n_nodes, block_size_words=4,
            mode_policy=OracleModePolicy(2),
        )
        trace = _workloads(n_nodes)["shared_structure"]()
        run_trace(protocol, trace, verify=False, check_invariants_every=0)
        kernel = protocol.batched_kernel()
        assert len(kernel.fallback_reasons) > 1
        assert sum(kernel.fallback_reasons.values()) == len(slow_runs)
        assert sum(slow_runs) == kernel.fallback_refs
        assert max(slow_runs) <= 64


@pytest.fixture
def fold_builds(monkeypatch):
    """``(trace length, n_nodes, block_size_words)`` per column folded."""
    builds = []
    build_fold = CompiledTrace._build_fold

    def counting_build_fold(trace, *geometry):
        builds.append((len(trace), *geometry))
        return build_fold(trace, *geometry)

    monkeypatch.setattr(CompiledTrace, "_build_fold", counting_build_fold)
    return builds


class TestFoldedColumn:
    """The fold is per trace: shared by cells, redone per geometry."""

    def test_two_systems_refold_one_trace(self, fold_builds):
        # The column's arithmetic depends on the system's (N, B): a second
        # system must not read the first one's.  The generator handed the
        # trace over folded for (16, 4), so only the other systems fold.
        # The statistics of the old column's windows go with it: each
        # geometry's first replay counts every window, its second reads.
        n_nodes = 16
        make = _workloads(n_nodes)["markov_block"]
        trace = make()
        geometries = [(16, 4), (32, 8), (16, 4)]
        for n, block_size_words in geometries:
            reports = []
            kernels = []
            for references in (trace, trace, list(make())):
                _, protocol = build(
                    n_nodes=n, block_size_words=block_size_words
                )
                reports.append(
                    run_trace(
                        protocol,
                        references,
                        verify=False,
                        check_invariants_every=0,
                    ).to_dict()
                )
                if references is trace:
                    kernel = protocol.batched_kernel()
                    # A stale column would decode to unknown keys.
                    assert kernel.batched_refs > 300
                    kernels.append((kernel.counted_refs, kernel.shared_refs))
            assert reports[0] == reports[1] == reports[2]
            (counted, first_shared), (_, second_shared) = kernels
            assert first_shared == 0 < counted
            assert second_shared > 0
        assert fold_builds == [(len(trace), 32, 8), (len(trace), 16, 4)]

    @pytest.mark.parametrize("warmup", [0, 150])
    def test_a_protocol_sweep_folds_its_workload_once(
        self, fold_builds, warmup
    ):
        sweep = SweepSpec.from_grid(
            "one-workload",
            protocols=["distributed-write", "global-read", "two-mode"],
            workloads=[
                WorkloadSpec(
                    kind="markov", n_nodes=16, n_references=600,
                    write_fraction=0.3, seed=5, tasks=tuple(range(8)),
                )
            ],
            configs=[SystemConfig(n_nodes=16)],
            warmup=warmup,
        )
        results = Executor(workers=0).run(sweep)
        assert len(results) == 3 and not any(r.failed for r in results)
        # Folded once, in the generator's draw loop: no cell folds again.
        assert fold_builds == []

    @pytest.mark.parametrize("warmup", [0, 150])
    def test_a_protocol_sweep_counts_each_window_once(
        self, monkeypatch, warmup
    ):
        # The first cell counts every row once; the others read its
        # windows off the shared trace and count only what their own cuts
        # leave: a cut's prefix and the rest of its window.  (The two-mode
        # cell is cut 34 times, by misses and by its policy.)
        kernels = []
        init = BatchedKernel.__init__

        def recording_init(kernel, protocol):
            init(kernel, protocol)
            kernels.append(kernel)

        monkeypatch.setattr(BatchedKernel, "__init__", recording_init)
        sweep = SweepSpec.from_grid(
            "one-workload",
            protocols=["distributed-write", "global-read", "two-mode"],
            workloads=[
                WorkloadSpec(
                    kind="markov", n_nodes=16, n_references=6000,
                    write_fraction=0.3, seed=5, tasks=tuple(range(8)),
                )
            ],
            configs=[SystemConfig(n_nodes=16)],
            warmup=warmup,
        )
        results = Executor(workers=0).run(sweep)
        assert not any(result.failed for result in results)
        counters = [
            (kernel.counted_refs, kernel.shared_refs) for kernel in kernels
        ]
        assert counters == {
            0: [(6000, 0), (0, 6000), (11127, 1024)],
            150: [(6000, 0), (0, 6000), (10359, 1024)],
        }[warmup]

    def test_kept_statistics_stay_within_four_times_the_fold(self):
        # A window's statistics hold at most four int64s per row (keys,
        # counts, distinct values, last rows), so a trace that keeps them
        # costs at most four times its folded column, however many
        # distinct values its clean windows hold -- here every word of
        # 128 private blocks per node, each read once per round.
        n_nodes, n_blocks, block_size = 16, 128, 4
        builder = CompiledTraceBuilder(n_nodes, block_size)
        words = [
            (node, node * n_blocks + block, offset)
            for node in range(n_nodes)
            for block in range(n_blocks)
            for offset in range(block_size)
        ]
        for node, block, offset in words[::block_size]:
            builder.read(node, block, offset)
        warm = len(words) // block_size
        rng = random.Random(3)
        for _ in range(2):
            rng.shuffle(words)
            for word in words:
                builder.read(*word)
        trace = builder.build()
        column, _ = trace.folded(n_nodes, block_size)
        fold_bytes = column.itemsize * len(column)
        ctrace_file = tracemalloc.Filter(True, ctrace_module.__file__)

        def kept_bytes():
            gc.collect()
            snapshot = tracemalloc.take_snapshot().filter_traces([ctrace_file])
            return sum(stat.size for stat in snapshot.statistics("filename"))

        tracemalloc.start()
        try:
            before = kept_bytes()
            # Two cells on two schedules: the whole trace, and a warm-up
            # split whose second piece starts in mid-window.
            split = warm + 100
            for name, pieces in (
                ("distributed-write", [trace]),
                ("global-read", [trace[:split], trace[split:]]),
            ):
                system = System(
                    SystemConfig(
                        n_nodes=n_nodes,
                        block_size_words=block_size,
                        cache_entries=n_blocks,
                        associativity=1,
                    )
                )
                protocol = default_factories()[name](system)
                for piece in pieces:
                    run_trace(
                        protocol, piece, verify=False,
                        check_invariants_every=0,
                    )
                # Only the cold reads miss: every window after them is
                # clean.
                kernel = protocol.batched_kernel()
                assert kernel.fallback_refs == warm
                del system, protocol, kernel
            del pieces, piece  # a slice owns copies of its rows
            kept = kept_bytes() - before
        finally:
            tracemalloc.stop()
        distinct = rows = 0
        for (start, stop, last), (values, _) in trace._windows.items():
            if last:
                distinct += len(values)
                rows += stop - start
        assert rows > len(trace) - 2 * warm and distinct > 0.75 * rows
        assert 0 < kept <= 4 * fold_bytes

    def test_clean_chunks_do_no_work_per_reference(self):
        # The alarm for Python work creeping back into a clean chunk,
        # independent of the host: count profile events (Python calls and
        # C calls) during steady-state replays of n and of 2n references
        # of the N=1024 cell.  What a chunk costs is bounded by its
        # distinct (node, block, op, offset) values -- 64 tasks x 2 ops x
        # 4 words here -- so the count must grow with the chunks, by less
        # than one event per added reference.  (Counts repeat exactly,
        # rates do not; a loop that calls nothing raises no event, so
        # this complements bench-smoke's share check, not replaces it.)
        # The repeat replays a fresh trace of the same rows: the first
        # trace keeps the statistics of every window it counted, and a
        # slice it already counted is replayed without counting at all.
        n_nodes, tasks, warm, n = 1024, range(0, 1024, 16), 20_000, 30_000

        def make():
            return markov_block_trace(
                n_nodes, list(tasks), 0.3, warm + 3 * n, seed=11
            )

        trace = make()
        system = System(
            SystemConfig(
                n_nodes=n_nodes,
                costs=MessageCosts.uniform(20),
                multicast_scheme=MulticastScheme.VECTOR,
            )
        )
        protocol = default_factories()["distributed-write"](system)
        run_trace(
            protocol, trace[:warm], verify=False, check_invariants_every=0
        )
        kernel = protocol.batched_kernel()

        def events_and_chunks(piece):
            counts = Counter()

            def hook(frame, event, arg):
                if event == "call":
                    counts[frame.f_code.co_name] += 1
                elif event == "c_call":
                    counts["<c>"] += 1

            fallback = kernel.fallback_refs
            previous = sys.getprofile()
            # A cyclic collection inside the window would run callbacks
            # left by earlier tests and count their events.
            gc.collect()
            gc.disable()
            sys.setprofile(hook)
            try:
                kernel.replay(piece)
            finally:
                sys.setprofile(previous)
                gc.enable()
            assert kernel.fallback_refs == fallback  # all chunks clean
            return sum(counts.values()), counts["_key_counts"]

        small = events_and_chunks(trace[warm : warm + n])
        large = events_and_chunks(trace[warm + n :])
        assert events_and_chunks(make()[warm : warm + n]) == small
        assert events_and_chunks(trace[warm : warm + n])[1] == 0
        per_chunk = 6 * len(tasks) * 2 * trace.block_size_words
        assert small[0] <= per_chunk * small[1]
        assert large[1] > small[1]
        assert large[0] - small[0] <= per_chunk * (large[1] - small[1]) < n


class TestNoCacheClosedForm:
    """``no-cache``'s kernel against its slow loop, on every workload."""

    VIEWS = {
        # (warm-up rows or None, slice applied to the root trace, to that)
        "root": (None, slice(None), slice(None)),
        "warmup-split": (150, slice(None), slice(None)),
        "slice-of-slice": (None, slice(40, -30), slice(25, -25)),
    }

    def _replay(self, n_nodes, trace, view):
        warmup, outer, inner = self.VIEWS[view]
        system = System(SystemConfig(n_nodes=n_nodes, block_size_words=4))
        protocol = default_factories()["no-cache"](system)
        trace = trace[outer][inner]
        counts = []
        for piece in (
            (trace[:warmup], trace[warmup:]) if warmup else (trace,)
        ):
            report = run_trace(
                protocol, piece, verify=False, check_invariants_every=0
            )
            counts.append((report.n_reads, report.n_writes))
        memory = [list(module._data.items()) for module in system.memories]
        return (
            in_order(protocol.stats),
            arrays(system.network),
            memory,
            counts,
        ), protocol

    @pytest.mark.parametrize("view", list(VIEWS))
    @pytest.mark.parametrize("n_nodes", [16, 64])
    @pytest.mark.parametrize("name", sorted(_workloads(16)))
    def test_closed_form_matches_the_slow_loop(
        self, name, n_nodes, view, fold_builds
    ):
        make = _workloads(n_nodes)[name]
        compiled_trace = make()
        batched, protocol = self._replay(n_nodes, compiled_trace, view)
        # Every view read the fold the generator handed over.
        assert fold_builds == []
        kernel = protocol.batched_kernel()
        assert kernel.batched_refs == sum(map(sum, batched[3])) > 0
        slow, slow_protocol = self._replay(
            n_nodes, list(make()), view
        )
        assert slow_protocol.batched_kernel().batched_refs == 0
        assert batched == slow

    def test_modules_store_blocks_in_first_write_order(self):
        # Four nodes, sixteen blocks: each module homes four, first
        # written out of block order, which the kernel must keep.
        def make():
            return random_trace(4, 400, n_blocks=16, seed=7)

        batched, _ = self._replay(4, make(), "root")
        slow, _ = self._replay(4, list(make()), "root")
        assert batched == slow
        orders = [[block for block, _ in module] for module in batched[2]]
        assert any(order != sorted(order) for order in orders)

    def test_an_unproven_trace_raises_at_the_slow_loops_index(self):
        # Nodes 0, 1, 9 on a 4-node system: the closed form never sees
        # the rows, and the slow loop stops at the bad one.
        trace = CompiledTrace(
            array("q", [0, 1, 9]),
            *(array("q", [0, 0, 0]) for _ in range(4)),
            4,
            1,
            validate=False,
        )
        protocol = default_factories()["no-cache"](
            System(SystemConfig(n_nodes=4))
        )
        with pytest.raises(
            TraceError,
            match=r"^reference 2: node 9 outside this 4-node system$",
        ):
            run_trace(protocol, trace, verify=False, check_invariants_every=0)
        assert protocol.stats.events["reads"] == 2
        assert protocol.batched_kernel().batched_refs == 0


class TestPresentEpochInvalidation:
    def test_new_reader_at_owner_bumps_present_epoch(self):
        _, protocol = build(default_mode=Mode.GLOBAL_READ)
        protocol.write(0, Address(0, 0), 1)
        before = protocol.present_epoch
        protocol.read(1, Address(0, 0))  # joins the present vector
        after = protocol.present_epoch
        assert after > before
        protocol.read(1, Address(0, 0))  # already present: no churn
        assert protocol.present_epoch == after

    def test_unowned_replacement_bumps_present_epoch(self):
        _, protocol = build(
            default_mode=Mode.DISTRIBUTED_WRITE,
            cache_entries=4,
            associativity=1,
        )
        protocol.write(0, Address(0, 0), 1)
        protocol.read(1, Address(0, 0))  # node 1 holds an unowned copy
        before = protocol.present_epoch
        # Direct-mapped with 4 sets: block 4 lands on block 0's set and
        # evicts node 1's copy, shrinking the owner's present vector.
        protocol.write(1, Address(4, 0), 2)
        assert protocol.present_epoch > before

    def test_stale_present_vector_re_registers_the_dw_record(self):
        n_nodes = 8
        _, protocol = build(
            n_nodes=n_nodes, default_mode=Mode.DISTRIBUTED_WRITE
        )
        protocol.write(0, Address(0, 0), 1)
        protocol.read(1, Address(0, 0))
        protocol.read(2, Address(0, 0))
        kernel = protocol.batched_kernel()
        warm = Trace(
            [Reference(0, Op.WRITE, Address(0, 0), v) for v in (2, 3, 4)],
            n_nodes,
            2,
        ).compile()
        run_trace(protocol, warm, verify=False, check_invariants_every=0)
        assert (kernel.batched_refs, kernel.fallback_refs) == (3, 0)
        record = kernel._writes[0]
        # A new reader grows the present vector without touching
        # fastpath_epoch; only the present stamp can catch it.
        epoch = protocol.fastpath_epoch
        stamp = protocol.present_epoch
        protocol.read(3, Address(0, 0))
        assert protocol.fastpath_epoch == epoch
        assert protocol.present_epoch > stamp
        # The kernel rebuilds the record on sight; every row hits again.
        run_trace(protocol, warm, verify=False, check_invariants_every=0)
        assert (kernel.batched_refs, kernel.fallback_refs) == (6, 0)
        assert kernel._writes[0] is not record
        # The refreshed record multicasts to all three copies now.
        for reader in (1, 2, 3):
            assert protocol.read(reader, Address(0, 0)) == 4


class TestRebuild:
    """Records the kernel rebuilds from the current state, and one it
    must not trust."""

    def _twins(self, prepare, trace, n_nodes=8):
        """``prepare`` then replay ``trace``, by kernel and by slow loop.

        Returns the kernel protocol and, per twin, everything observable:
        ``Stats``, the four flat arrays, both epochs and every owner's
        present vector.
        """
        observed = []
        for logged in (False, True):
            system, protocol = build(n_nodes=n_nodes)
            if logged:
                protocol.enable_message_log()  # stands the kernel down
            prepare(protocol)
            run_trace(protocol, trace, verify=False, check_invariants_every=0)
            vectors = [
                sorted(entry.state_field.present)
                for cache in system.caches
                for entry in cache.iter_entries()
                if entry.state_field.owned
            ]
            observed.append(
                (
                    protocol.stats.to_dict(),
                    arrays(system.network),
                    (protocol.fastpath_epoch, protocol.present_epoch),
                    vectors,
                )
            )
            if not logged:
                kernel_protocol = protocol
        assert observed[0] == observed[1]
        return kernel_protocol

    def test_a_mode_switch_leaves_a_steady_slice_batched(self):
        # Four nodes, each reading and writing its own block.  A
        # hand-driven set_mode bumps fastpath_epoch and retires every
        # record; replaying the steady slice again rebuilds them and
        # hands the slow loop nothing.
        n_nodes = 8
        trace = Trace(
            [
                Reference(
                    step % 4,
                    Op.WRITE if step % 3 else Op.READ,
                    Address(step % 4, step % 2),
                    step,
                )
                for step in range(300)
            ],
            n_nodes,
            2,
        ).compile()
        steps = []

        def prepare(protocol):
            run_trace(protocol, trace, verify=False, check_invariants_every=0)
            if protocol.batched_kernel() is not None:
                steps.append(protocol.batched_kernel().fallback_refs)
            epoch = protocol.fastpath_epoch
            protocol.set_mode(0, 0, Mode.DISTRIBUTED_WRITE)
            protocol.set_mode(1, 1, Mode.DISTRIBUTED_WRITE)
            assert protocol.fastpath_epoch > epoch

        protocol = self._twins(prepare, trace, n_nodes)
        kernel = protocol.batched_kernel()
        assert kernel.fallback_refs == steps[0]
        assert kernel.batched_refs >= 300

    def test_a_placeholder_outside_the_present_vector_is_a_miss(self):
        # Node 1's global-read placeholder keeps OWNER = 0 through a
        # GR -> DW -> GR round trip, but the switch to distributed write
        # dropped it from the owner's present vector.  Its rebuilt
        # remote-read record must not hit: the slow path puts node 1 back
        # in the vector and bumps present_epoch.  (Deleting the kernel's
        # ``record[7] in owner_field.present`` clause fails this test.)
        n_nodes = 8

        def prepare(protocol):
            system = protocol.system
            protocol.write(0, Address(0, 0), 5)
            protocol.read(1, Address(0, 0))
            protocol.set_mode(0, 0, Mode.DISTRIBUTED_WRITE)
            protocol.set_mode(0, 0, Mode.GLOBAL_READ)
            placeholder = system.caches[1].find(0).state_field
            assert not placeholder.valid and placeholder.owner == 0
            assert system.caches[0].find(0).state_field.present == {0}

        trace = Trace(
            [Reference(1, Op.READ, Address(0, 0))] * 100, n_nodes, 2
        ).compile()
        protocol = self._twins(prepare, trace, n_nodes)
        assert protocol.system.caches[0].find(0).state_field.present == {
            0, 1
        }
        kernel = protocol.batched_kernel()
        assert kernel.fallback_reasons == {"miss": 1}
        assert kernel.batched_refs == 100 - kernel_module.MIN_CHUNK
