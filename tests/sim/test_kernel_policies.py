"""The counting mode policies on the route that runs by default.

With a policy attached the batched kernel asks it, block by block, how
far a validated chunk may run (``ModePolicy.fold``), cuts the chunk at
the first reference that would switch a mode and hands that reference to
the engine's slow loop.  The kernel (what ``run_trace`` picks) must
therefore agree with the slow loop in everything observable -- ``Stats``,
the four flat network arrays, the policy's counters and both epochs --
reached two ways: over the same compiled columns with the kernel stood
down, and over a ``Reference`` list.  That holds for both counting
policies, every generator, and chunk bounds forced so that switches land
on every position of a chunk -- whether the trace replays whole, as a
warm-up split or as a slice of a slice, which all read one folded
column.
"""

import random
from collections import Counter

import pytest

from repro.cache.state import Mode
from repro.protocol.modes import (
    AdaptiveModePolicy,
    ModePolicy,
    OracleModePolicy,
)
from repro.sim import ctrace as ctrace_module
from repro.sim import kernel as kernel_module
from repro.sim.ctrace import CompiledTrace
from repro.sim.engine import run_trace
from repro.sim.trace import Trace
from repro.types import Address, Op, Reference
from repro.workloads.markov import markov_block_trace, shared_structure_trace
from repro.workloads.synthetic import random_trace

from tests.protocol.conftest import build
from tests.sim.test_kernel import _workloads, fold_builds  # noqa: F401
from tests.sim.test_link_ledger import arrays, in_order

POLICIES = pytest.mark.parametrize(
    "policy_cls",
    [OracleModePolicy, AdaptiveModePolicy],
    ids=["oracle", "adaptive"],
)


def _owned_blocks_trace(n_nodes, n_blocks=8, n_references=6000):
    """Interleaved blocks with one writer each, in write-heavy and
    read-heavy phases: ownership never moves, so multi-block chunks
    validate, and every block's mode keeps crossing the threshold."""
    rng = random.Random(7)
    refs = []
    for index in range(n_references):
        block = rng.randrange(n_blocks)
        owner = block % n_nodes
        heavy = (index // 1500 + block) % 2
        if rng.random() < (0.6 if heavy else 0.02):
            refs.append(
                Reference(owner, Op.WRITE, Address(block, index % 4), index)
            )
        else:
            reader = (owner + rng.randrange(4)) % n_nodes
            refs.append(Reference(reader, Op.READ, Address(block, index % 4)))
    return Trace(refs, n_nodes, 4).compile()


def _observed(system, protocol):
    """Everything a replay leaves behind, bar the report."""
    return (
        protocol.stats.to_dict(),
        arrays(system.network),
        dict(protocol.mode_policy._counters),
        (protocol.fastpath_epoch, protocol.present_epoch),
    )


#: How a trace reaches the replay: in one piece, or in consecutive pieces
#: cut from it (a compiled trace and a reference list slice alike).
VIEWS = {
    "root": lambda trace: [trace],
    "warmup-split": lambda trace: [
        trace[: len(trace) // 3], trace[len(trace) // 3 :]
    ],
    "slice-of-slice": lambda trace: [
        trace[: len(trace) // 5 * 2],
        trace[len(trace) // 5 :][len(trace) // 5 :],
    ],
}
ALL_VIEWS = pytest.mark.parametrize("view", sorted(VIEWS))


def _three_ways(
    make_trace, make_policy, n_nodes, view="root", **build_kwargs
):
    """Replay by kernel and by the slow loop, two ways; assert agreement.

    The slow loop runs once over the compiled pieces with the message
    log standing the kernel down, and once over ``Reference`` lists.
    Returns the kernel-route protocol for further inspection.
    """
    build_kwargs = {"n_nodes": n_nodes, "block_size_words": 4, **build_kwargs}
    compiled = make_trace()
    pieces = VIEWS[view](compiled)
    assert sum(map(len, pieces)) == len(compiled)

    def replay(pieces, logged=False):
        system, protocol = build(mode_policy=make_policy(), **build_kwargs)
        if logged:
            protocol.enable_message_log()
        for piece in pieces:
            report = run_trace(
                protocol, piece, verify=False, check_invariants_every=0
            )
        return system, protocol, report.to_dict()

    kernel_system, kernel_protocol, kernel_report = replay(pieces)
    kernel = kernel_protocol.batched_kernel()
    assert kernel.batched_refs + kernel.fallback_refs == len(compiled)
    logged_system, logged_protocol, logged_report = replay(pieces, True)
    assert logged_protocol.batched_kernel().batched_refs == 0
    slow_system, slow_protocol, slow_report = replay(
        VIEWS[view](list(make_trace()))
    )

    assert kernel_report == logged_report == slow_report
    expected = _observed(slow_system, slow_protocol)
    assert _observed(kernel_system, kernel_protocol) == expected
    assert _observed(logged_system, logged_protocol) == expected
    return kernel_protocol


class TestThreeWayEquivalence:
    @POLICIES
    @pytest.mark.parametrize("window", [2, 32])
    @pytest.mark.parametrize("n_nodes", [16, 64])
    @pytest.mark.parametrize("name", sorted(_workloads(16)))
    def test_every_generator(self, name, n_nodes, window, policy_cls):
        _three_ways(
            _workloads(n_nodes)[name], lambda: policy_cls(window), n_nodes
        )

    @POLICIES
    @ALL_VIEWS
    @pytest.mark.parametrize(
        "name", ["markov_block", "producer_consumer", "shared_structure"]
    )
    def test_every_view_of_one_trace(
        self, name, view, policy_cls, fold_builds
    ):
        # Whole, split at a warm-up boundary or cut twice: every piece
        # replays out of the one column folded on the root.  The rows
        # rewrapped in a trace of their own arrive unfolded, so that one
        # fold is counted.
        n_nodes = 16
        make = _workloads(n_nodes)[name]

        def make_unfolded():
            trace = make()
            return CompiledTrace(
                trace.nodes, trace.ops, trace.blocks, trace.offsets,
                trace.values, trace.n_nodes, trace.block_size_words,
            )

        _three_ways(make_unfolded, lambda: policy_cls(32), n_nodes, view=view)
        assert fold_builds == [(len(make()), n_nodes, 4)]

    @POLICIES
    @pytest.mark.parametrize("block_size_words", [3, 6, 256])
    @pytest.mark.parametrize(
        "generator", [markov_block_trace, shared_structure_trace]
    )
    def test_ops_read_off_the_fold_at_any_block_size(
        self, generator, block_size_words, policy_cls
    ):
        # The policy's ops come off the folded rows: one bit of each
        # int64 for a power-of-two block size (in the second byte at
        # 256), arithmetic otherwise; one block per chunk, or several.
        n_nodes = 16
        write_fraction = 0.3 if generator is markov_block_trace else 0.05
        protocol = _three_ways(
            lambda: generator(
                n_nodes, list(range(6)), write_fraction, 4000,
                block_size_words=block_size_words, seed=2,
            ),
            lambda: policy_cls(32),
            n_nodes,
            block_size_words=block_size_words,
            cache_entries=64,
        )
        kernel = protocol.batched_kernel()
        assert kernel.batched_refs > 2000
        assert kernel.fallback_reasons["policy_switch"] > 0

    @POLICIES
    def test_the_kernel_does_the_work(self, policy_cls):
        # A long single-block trace with a handful of switches: nearly
        # everything must run batched, and each switch must show up as
        # one cut chunk.
        n_nodes = 64
        protocol = _three_ways(
            lambda: markov_block_trace(
                n_nodes, list(range(16)), 0.3, 10_000, seed=1
            ),
            lambda: policy_cls(32),
            n_nodes,
        )
        kernel = protocol.batched_kernel()
        assert kernel.batched_refs > 0.9 * 10_000
        switches = protocol.stats.events["mode_switches"]
        assert switches > 0
        # Every switch on a hit cuts a chunk; one on a miss happens
        # inside a slow-loop run and cuts nothing.
        assert 0 < kernel.fallback_reasons["policy_switch"] <= switches

    @POLICIES
    @pytest.mark.parametrize(
        "name", ["owned_blocks", "random", "shared_structure"]
    )
    def test_multi_block_chunks_group_in_one_pass(
        self, name, policy_cls, monkeypatch
    ):
        # A chunk's rows are regrouped per block by one ``enumerate`` over
        # it, not by a scan per block: hook the two names the kernel's
        # chunks look up and compare walks against windows counted.
        n_nodes = 16
        walks = []
        keyed = []

        def counting_enumerate(rows):
            walks.append(len(rows))
            return enumerate(rows)

        class CountingCounter(Counter):
            def __init__(self, keys=()):
                keyed.append(len(keys))
                super().__init__(keys)

        monkeypatch.setattr(
            kernel_module, "enumerate", counting_enumerate, raising=False
        )
        monkeypatch.setattr(ctrace_module, "Counter", CountingCounter)
        tasks = list(range(6))
        bounds = [(kernel_module.MIN_CHUNK, kernel_module.MAX_CHUNK)]
        if name == "owned_blocks":
            make = lambda: _owned_blocks_trace(n_nodes)
        elif name == "shared_structure":
            make = lambda: shared_structure_trace(
                n_nodes, tasks, 0.05, 6000, seed=4
            )
        else:
            # Any node may write any block: ownership moves too often
            # for a 64-row chunk to validate, so grow them from one row
            # -- to a cap that doubling from 1 or from 3 would pass.
            make = lambda: random_trace(
                n_nodes, 3000, write_fraction=0.05, nodes=tasks[:4], seed=9
            )
            bounds = [(1, 16), (1, 3), (3, 16)]
        for low, high in bounds:
            walks.clear()
            keyed.clear()
            monkeypatch.setattr(kernel_module, "MIN_CHUNK", low)
            monkeypatch.setattr(kernel_module, "MAX_CHUNK", high)
            protocol = _three_ways(
                make, lambda: policy_cls(32), n_nodes, cache_entries=64
            )
            kernel = protocol.batched_kernel()
            assert kernel.batched_refs > 1000
            assert 0 < len(walks) < len(keyed)
            assert max(walks) <= high
        if name == "owned_blocks":
            # Every switch retires every record (one epoch for all
            # blocks), so eight blocks switching in turn batch far less
            # than one block does -- but whole multi-block chunks do run.
            assert kernel.batched_refs > 2000
            assert kernel.fallback_reasons["policy_switch"] > 0


class TestAdversarialChunking:
    """Force the chunk bounds so cuts land everywhere in a chunk."""

    @POLICIES
    @pytest.mark.parametrize("window", [2, 32])
    @pytest.mark.parametrize(
        "bounds",
        [(1, 1), (2, 2), (3, 3), (1, 3), "window-1", "window+1"],
        ids=str,
    )
    @pytest.mark.parametrize("name", ["markov_block", "shared_structure"])
    def test_forced_chunk_sizes(
        self, name, bounds, window, policy_cls, monkeypatch
    ):
        if bounds == "window-1":
            bounds = (max(1, window - 1),) * 2
        elif bounds == "window+1":
            bounds = (window + 1,) * 2
        monkeypatch.setattr(kernel_module, "MIN_CHUNK", bounds[0])
        monkeypatch.setattr(kernel_module, "MAX_CHUNK", bounds[1])
        n_nodes = 16
        protocol = _three_ways(
            _workloads(n_nodes)[name], lambda: policy_cls(window), n_nodes
        )
        kernel = protocol.batched_kernel()
        assert sum(kernel.fallback_reasons.values()) * bounds[0] >= (
            kernel.fallback_refs
        )

    @POLICIES
    @ALL_VIEWS
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_forced_chunk_sizes_on_every_view(
        self, size, view, policy_cls, monkeypatch
    ):
        # Tiny chunks put every chunk edge of a slice on a different row
        # of the root's column than the same edge of the whole trace.
        monkeypatch.setattr(kernel_module, "MIN_CHUNK", size)
        monkeypatch.setattr(kernel_module, "MAX_CHUNK", size)
        n_nodes = 16
        _three_ways(
            _workloads(n_nodes)["markov_block"],
            lambda: policy_cls(2),
            n_nodes,
            view=view,
        )

    def test_a_cut_at_zero_follows_a_cut_at_zero(self, monkeypatch):
        # A policy that folds nothing (the base-class default) cuts every
        # chunk at its first reference: the whole trace goes down the slow
        # loop in MIN_CHUNK runs, and still agrees.
        class Unfolded(OracleModePolicy):
            fold = ModePolicy.fold
            commit = ModePolicy.commit

        monkeypatch.setattr(kernel_module, "MIN_CHUNK", 3)
        n_nodes = 16
        protocol = _three_ways(
            _workloads(n_nodes)["markov_block"], lambda: Unfolded(2), n_nodes
        )
        kernel = protocol.batched_kernel()
        assert kernel.batched_refs == 0
        assert kernel.fallback_refs == 600
        assert set(kernel.fallback_reasons) == {"miss", "policy_switch"}
        assert sum(kernel.fallback_reasons.values()) == 200

    @POLICIES
    def test_a_switch_on_every_position_of_a_chunk(
        self, policy_cls, monkeypatch
    ):
        # Window 3 against chunks of exactly 4: decision points fall on
        # chunk positions 2, 1, 0, 3, ... in turn, and a write-heavy /
        # read-heavy alternation makes most of them switch.
        monkeypatch.setattr(kernel_module, "MIN_CHUNK", 4)
        monkeypatch.setattr(kernel_module, "MAX_CHUNK", 4)
        n_nodes = 16

        def make():
            refs = []
            value = 0
            for phase in range(40):
                for step in range(5):
                    node = (step + phase) % 4
                    if phase % 2:
                        value += 1
                        refs.append(
                            Reference(node, Op.WRITE, Address(0, 0), value)
                        )
                    else:
                        refs.append(Reference(node, Op.READ, Address(0, 0)))
            return Trace(refs, n_nodes, 4).compile()

        protocol = _three_ways(make, lambda: policy_cls(3), n_nodes)
        assert protocol.stats.events["mode_switches"] > 10


def _cache_states(system):
    """Every cache line's tag, state field and words, and each set's
    replacement order, cache by cache."""
    states = []
    for cache in system.caches:
        lines = [
            (
                entry.tag,
                entry.state_field.valid,
                entry.state_field.owned,
                entry.state_field.modified,
                entry.state_field.distributed_write,
                sorted(entry.state_field.present),
                entry.state_field.owner,
                list(entry.data),
            )
            for entry in cache.iter_entries()
        ]
        order = getattr(cache.policy, "_order", ())
        states.append((lines, [list(ways or ()) for ways in order]))
    return states


#: The cells of one protocol grid: what each builds its protocol with.
GRID = {
    "distributed-write": lambda window: {
        "default_mode": Mode.DISTRIBUTED_WRITE
    },
    "global-read": lambda window: {},
    "oracle": lambda window: {"mode_policy": OracleModePolicy(window)},
    "adaptive": lambda window: {"mode_policy": AdaptiveModePolicy(window)},
}


class TestSharedWindowStatistics:
    """The cells of a grid read each window's statistics off the trace.

    Every cell replaying one trace reads the statistics the first cell
    counted; each must end exactly where it ends replaying a private
    copy of the trace, which it counts for itself.
    """

    @ALL_VIEWS
    @pytest.mark.parametrize(
        "bounds",
        [None, (1, 1), (3, 3), (1, 3), "window-1", "window+1"],
        ids=str,
    )
    @pytest.mark.parametrize("name", ["markov_block", "shared_structure"])
    def test_a_shared_trace_replays_as_a_private_copy(
        self, name, bounds, view, monkeypatch
    ):
        window = 32
        if bounds == "window-1":
            bounds = (window - 1,) * 2
        elif bounds == "window+1":
            bounds = (window + 1,) * 2
        if bounds is not None:
            monkeypatch.setattr(kernel_module, "MIN_CHUNK", bounds[0])
            monkeypatch.setattr(kernel_module, "MAX_CHUNK", bounds[1])
        n_nodes = 16
        make = _workloads(n_nodes)[name]
        shared = make()

        def replay(cell, trace):
            system, protocol = build(
                n_nodes=n_nodes, block_size_words=4, **GRID[cell](window)
            )
            for piece in VIEWS[view](trace):
                run_trace(
                    protocol, piece, verify=False, check_invariants_every=0
                )
            observed = (
                in_order(protocol.stats),
                arrays(system.network),
                system.network.bits_by_level(),
                _cache_states(system),
            )
            return observed, protocol.batched_kernel()

        read_from_trace = 0
        for index, cell in enumerate(GRID):
            observed, kernel = replay(cell, shared)
            private, own = replay(cell, make())
            assert observed == private
            assert own.shared_refs == 0
            if index:
                read_from_trace += kernel.shared_refs
            else:
                assert kernel.shared_refs == 0
        assert read_from_trace > 0


def test_default_mode_and_counting_policy_cover_both_modes():
    # The same trace entered in distributed write: the adaptive policy's
    # visibility filter is live from the first chunk.
    n_nodes = 16
    for policy_cls in (OracleModePolicy, AdaptiveModePolicy):
        _three_ways(
            _workloads(n_nodes)["producer_consumer"],
            lambda: policy_cls(2),
            n_nodes,
            default_mode=Mode.DISTRIBUTED_WRITE,
        )
