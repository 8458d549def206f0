"""Exact §2.2 message sequences, asserted against the message log.

The scenario tests elsewhere check resulting *states*; these check the
*conversations* -- every message of each §2.2 case, in order, with its
endpoints.  This is the closest the test suite gets to the paper's prose.
"""

from repro.cache.state import Mode
from repro.mc.diff import DifferentialFuzzer
from repro.mc.model import ModelConfig, apply, initial_state
from repro.protocol.messages import MsgKind

from tests.protocol.conftest import addr, build


def transcript(protocol):
    """The log as comparable tuples (kind, source, dests)."""
    return [
        (entry.kind, entry.source, set(entry.dests))
        for entry in protocol.message_log
    ]


class Lockstep:
    """One scenario driven through the protocol and the abstract model.

    Operations are the differential fuzzer's tuples (``("write", node,
    block)``, ``("evict", node, block)``, ...); writes store 1, 2, 3, ...
    After every operation the protocol's ``abstract_state``, projected
    the way :class:`~repro.mc.diff.DifferentialFuzzer` projects it, must
    equal the model state.
    """

    def __init__(self, n_blocks=2, **build_kwargs):
        self.system, self.protocol = build(block_size_words=1, **build_kwargs)
        n_nodes = self.system.n_nodes
        self.fuzzer = DifferentialFuzzer(n_nodes=n_nodes, n_blocks=n_blocks)
        self.cfg = ModelConfig(
            n_nodes=n_nodes,
            n_blocks=n_blocks,
            default_dw=self.protocol.default_mode is Mode.DISTRIBUTED_WRITE,
            faults=False,
        )
        self.state = initial_state(self.cfg)
        self.shadow = [0] * n_blocks
        self.value = 1

    def do(self, *op, model_first=()):
        """Apply ``op`` to both sides and compare.

        ``model_first`` names model actions the concrete operation
        performs implicitly, such as the replacement of the victim its
        allocation evicts.
        """
        self.fuzzer._apply_concrete(self.protocol, None, op, self.value)
        if op[0] == "write":
            self.shadow[op[2]] = self.value
            self.value += 1
        for action in (*model_first, op):
            self.state, _ = apply(self.cfg, self.state, action)
        assert self.fuzzer._compare(
            self.protocol, self.cfg, self.state, self.shadow
        ) is None

    def logged(self, *op, model_first=()):
        """:meth:`do`, returning the transcript of ``op`` alone."""
        self.protocol.enable_message_log()
        self.do(*op, model_first=model_first)
        return transcript(self.protocol)


class TestReadMissSequences:
    def test_cold_load_is_request_then_block_from_home(self):
        system, protocol = build()
        protocol.enable_message_log()
        home = protocol.home(5)
        protocol.read(2, addr(5))
        assert transcript(protocol) == [
            (MsgKind.LOAD_REQ, 2, {home}),
            (MsgKind.BLOCK_REPLY, home, {2}),
        ]

    def test_gr_remote_read_via_memory(self):
        system, protocol = build()
        protocol.write(0, addr(5), 9)  # node 0 owns (GR)
        protocol.enable_message_log()
        home = protocol.home(5)
        protocol.read(2, addr(5))
        assert transcript(protocol) == [
            (MsgKind.LOAD_REQ, 2, {home}),
            (MsgKind.LOAD_FWD, home, {0}),
            (MsgKind.WORD_REPLY, 0, {2}),
        ]

    def test_gr_repeat_read_bypasses_memory(self):
        system, protocol = build()
        protocol.write(0, addr(5), 9)
        protocol.read(2, addr(5))  # creates the placeholder
        protocol.enable_message_log()
        protocol.read(2, addr(5))
        assert transcript(protocol) == [
            (MsgKind.LOAD_DIRECT, 2, {0}),
            (MsgKind.WORD_REPLY, 0, {2}),
        ]

    def test_dw_remote_read_ships_a_block(self):
        system, protocol = build(default_mode=Mode.DISTRIBUTED_WRITE)
        protocol.write(0, addr(5), 9)
        protocol.enable_message_log()
        home = protocol.home(5)
        protocol.read(2, addr(5))
        assert transcript(protocol) == [
            (MsgKind.LOAD_REQ, 2, {home}),
            (MsgKind.LOAD_FWD, home, {0}),
            (MsgKind.BLOCK_REPLY, 0, {2}),
        ]


class TestWriteSequences:
    def test_dw_distributed_write_is_one_multicast(self):
        system, protocol = build(default_mode=Mode.DISTRIBUTED_WRITE)
        protocol.write(0, addr(5), 1)
        protocol.read(1, addr(5))
        protocol.read(2, addr(5))
        protocol.enable_message_log()
        protocol.write(0, addr(5), 2)
        assert transcript(protocol) == [
            (MsgKind.WRITE_UPDATE, 0, {1, 2}),
        ]

    def test_unowned_write_hit_sequence_dw(self):
        system, protocol = build(default_mode=Mode.DISTRIBUTED_WRITE)
        protocol.write(0, addr(5), 1)
        protocol.read(1, addr(5))
        protocol.enable_message_log()
        home = protocol.home(5)
        protocol.write(1, addr(5), 2)
        assert transcript(protocol) == [
            (MsgKind.OWN_REQ, 1, {home}),
            (MsgKind.OWN_FWD, home, {0}),
            (MsgKind.STATE_XFER, 0, {1}),
            (MsgKind.WRITE_UPDATE, 1, {0}),
        ]

    def test_write_miss_with_gr_owner_sequence(self):
        system, protocol = build()
        protocol.write(0, addr(5), 1)
        protocol.read(1, addr(5))  # placeholder at 1
        protocol.enable_message_log()
        home = protocol.home(5)
        protocol.write(3, addr(5), 2)
        assert transcript(protocol) == [
            (MsgKind.OWN_REQ, 3, {home}),
            (MsgKind.OWN_FWD, home, {0}),
            (MsgKind.DATA_STATE_XFER, 0, {3}),
            (MsgKind.OWNER_UPDATE, 0, {1}),
        ]

    def test_write_miss_with_dw_owner_and_sharers(self):
        # 4(b) in DW: the requester holds nothing, so the data moves with
        # the state field; the old owner keeps an UnOwned copy and the
        # write then reaches every sharer.
        run = Lockstep(default_mode=Mode.DISTRIBUTED_WRITE)
        run.do("write", 0, 0)
        run.do("read", 1, 0)
        run.do("read", 2, 0)
        home = run.protocol.home(0)
        assert run.logged("write", 3, 0) == [
            (MsgKind.OWN_REQ, 3, {home}),
            (MsgKind.OWN_FWD, home, {0}),
            (MsgKind.DATA_STATE_XFER, 0, {3}),
            (MsgKind.WRITE_UPDATE, 3, {0, 1, 2}),
        ]

    def test_dw_write_miss_at_a_stale_placeholder_moves_the_data(self):
        # A GR->DW switch leaves node 1's placeholder outside the vector.
        # Node 1 holds no valid copy, so its write miss must be answered
        # with the data, not with the state field alone.
        run = Lockstep()
        run.do("write", 0, 0)
        run.do("read", 1, 0)
        run.do("set_mode", 0, 0, True)
        home = run.protocol.home(0)
        assert run.logged("write", 1, 0) == [
            (MsgKind.OWN_REQ, 1, {home}),
            (MsgKind.OWN_FWD, home, {0}),
            (MsgKind.DATA_STATE_XFER, 0, {1}),
            (MsgKind.WRITE_UPDATE, 1, {0}),
        ]

    def test_write_miss_victim_replacement_follows_the_transfer(self):
        # One-entry caches: node 3's write miss on block 0 evicts its
        # modified exclusive block 1, but only after the old owner has
        # retired, so the victim's write-back comes last.
        run = Lockstep(cache_entries=1)
        run.do("write", 0, 0)
        run.do("read", 1, 0)
        run.do("write", 3, 1)
        home = run.protocol.home(0)
        assert run.logged(
            "write", 3, 0, model_first=[("evict", 3, 1)]
        ) == [
            (MsgKind.OWN_REQ, 3, {home}),
            (MsgKind.OWN_FWD, home, {0}),
            (MsgKind.DATA_STATE_XFER, 0, {3}),
            (MsgKind.OWNER_UPDATE, 0, {1}),
            (MsgKind.WRITEBACK, 3, {run.protocol.home(1)}),
        ]

    def test_exclusive_write_hit_is_silent(self):
        system, protocol = build()
        protocol.write(0, addr(5), 1)
        protocol.enable_message_log()
        protocol.write(0, addr(5), 2)
        assert transcript(protocol) == []


class TestReplacementSequences:
    def test_clean_exclusive_replacement(self):
        system, protocol = build()
        protocol.read(0, addr(5))
        protocol.enable_message_log()
        home = protocol.home(5)
        protocol.evict(0, 5)
        assert transcript(protocol) == [
            (MsgKind.REPLACE_NOTIFY, 0, {home}),
        ]

    def test_modified_exclusive_replacement_is_one_writeback(self):
        system, protocol = build()
        protocol.write(0, addr(5), 1)
        protocol.enable_message_log()
        home = protocol.home(5)
        protocol.evict(0, 5)
        assert transcript(protocol) == [
            (MsgKind.WRITEBACK, 0, {home}),
        ]

    def test_unowned_replacement_clears_flag_via_home(self):
        system, protocol = build(default_mode=Mode.DISTRIBUTED_WRITE)
        protocol.write(0, addr(5), 1)
        protocol.read(1, addr(5))
        protocol.enable_message_log()
        home = protocol.home(5)
        protocol.evict(1, 5)
        assert transcript(protocol) == [
            (MsgKind.REPLACE_NOTIFY, 1, {home}),
            (MsgKind.PRESENT_CLEAR, home, {0}),
        ]

    def test_nonexclusive_owner_handoff_sequence(self):
        system, protocol = build(default_mode=Mode.DISTRIBUTED_WRITE)
        protocol.write(0, addr(5), 1)
        protocol.read(1, addr(5))
        protocol.enable_message_log()
        home = protocol.home(5)
        protocol.evict(0, 5)
        assert transcript(protocol) == [
            (MsgKind.XFER_OFFER, 0, {1}),
            (MsgKind.ACK, 1, {0}),
            # Candidate acquires ownership "according to the protocol":
            (MsgKind.OWN_REQ, 1, {home}),
            (MsgKind.OWN_FWD, home, {0}),
            (MsgKind.STATE_XFER, 0, {1}),
            # The departing copy retires through the 5(c) path:
            (MsgKind.REPLACE_NOTIFY, 0, {home}),
            (MsgKind.PRESENT_CLEAR, home, {1}),
        ]

    def test_gr_handoff_to_a_placeholder_moves_the_data(self):
        # 5(b) in GR: the candidate holds only a placeholder, so the data
        # rides with the state field and the other placeholder repoints.
        run = Lockstep()
        run.do("write", 0, 0)
        run.do("read", 1, 0)
        run.do("read", 2, 0)
        home = run.protocol.home(0)
        assert run.logged("evict", 0, 0) == [
            (MsgKind.XFER_OFFER, 0, {1}),
            (MsgKind.ACK, 1, {0}),
            (MsgKind.OWN_REQ, 1, {home}),
            (MsgKind.OWN_FWD, home, {0}),
            (MsgKind.DATA_STATE_XFER, 0, {1}),
            (MsgKind.OWNER_UPDATE, 0, {2}),
            (MsgKind.REPLACE_NOTIFY, 0, {home}),
            (MsgKind.PRESENT_CLEAR, home, {1}),
        ]


class TestModeSwitchSequences:
    def test_switch_to_gr_is_one_invalidation_multicast(self):
        system, protocol = build(default_mode=Mode.DISTRIBUTED_WRITE)
        protocol.write(0, addr(5), 1)
        protocol.read(1, addr(5))
        protocol.read(2, addr(5))
        protocol.enable_message_log()
        protocol.set_mode(0, 5, Mode.GLOBAL_READ)
        assert transcript(protocol) == [
            (MsgKind.INVALIDATE, 0, {1, 2}),
        ]

    def test_switch_to_dw_by_owner_is_silent(self):
        system, protocol = build()
        protocol.write(0, addr(5), 1)
        protocol.read(1, addr(5))
        protocol.enable_message_log()
        protocol.set_mode(0, 5, Mode.DISTRIBUTED_WRITE)
        assert transcript(protocol) == []


class TestLogCostsMatchLedger:
    def test_log_totals_equal_stats_totals(self):
        system, protocol = build(default_mode=Mode.DISTRIBUTED_WRITE)
        protocol.enable_message_log()
        for node in range(4):
            protocol.read(node, addr(0))
        protocol.write(0, addr(0), 9)
        protocol.write(2, addr(0), 10)
        assert sum(
            entry.cost for entry in protocol.message_log
        ) == protocol.stats.total_bits
