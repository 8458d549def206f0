"""Error-injection tests: the protocol must fail loudly, not corrupt.

Each test corrupts protocol or system state in a way that cannot arise
from a well-formed reference stream, and asserts that the next operation
raises :class:`~repro.errors.ProtocolError` (a clear diagnosis) instead of
silently serving wrong data.
"""

import pytest

from repro.cache.state import Mode, StateField
from repro.errors import ConfigurationError, ProtocolError
from repro.types import Address

from tests.protocol.conftest import addr, build, field_of


#: The text the ownership transfer raises when the block store names a
#: cache that does not own the block.
NON_OWNER_TEXT = "block store says cache 6 owns block 0, but it does not"

#: The read miss, then every entry into the shared ownership transfer.
ENTRIES_NAMING_THE_OWNER = {
    "read_miss": (
        lambda p: p.read(3, addr(0)),
        "cache 6 asked to serve block 0 it does not own",
    ),
    "write_miss": (lambda p: p.write(3, addr(0), 2), NON_OWNER_TEXT),
    "write_hit_on_unowned_copy": (
        lambda p: p.write(1, addr(0), 2),
        NON_OWNER_TEXT,
    ),
    "set_mode_from_non_owner": (
        lambda p: p.set_mode(3, 0, Mode.GLOBAL_READ),
        NON_OWNER_TEXT,
    ),
    "evict_non_exclusive_owner": (
        lambda p: p.evict(0, 0),
        NON_OWNER_TEXT,
    ),
}


class TestCorruptedOwnerBookkeeping:
    @pytest.mark.parametrize("entry", list(ENTRIES_NAMING_THE_OWNER))
    def test_block_store_pointing_at_non_owner(self, entry):
        operation, text = ENTRIES_NAMING_THE_OWNER[entry]
        system, protocol = build(default_mode=Mode.DISTRIBUTED_WRITE)
        protocol.write(0, addr(0), 1)
        protocol.read(1, addr(0))  # an UnOwned copy at node 1
        # Corrupt: block store names a cache with no entry at all.
        system.memory_for(0).block_store.set_owner(0, 6)
        with pytest.raises(ProtocolError, match=text):
            operation(protocol)

    def test_placeholder_without_owner_field(self):
        system, protocol = build()
        protocol.write(0, addr(0), 1)
        protocol.read(1, addr(0))  # placeholder at node 1
        field_of(system, 1, 0).owner = None
        with pytest.raises(ProtocolError):
            protocol.read(1, addr(0))

    def test_owner_cycle_in_placeholder_chain_recovers_via_memory(self):
        system, protocol = build()
        protocol.write(0, addr(0), 1)
        protocol.read(1, addr(0))
        protocol.read(2, addr(0))
        # Forge a two-cycle: 1 -> 2 -> 1, with neither owning.  The
        # forwarding walk detects the revisit as a dead end, NAKs, and
        # the requester retries through the authoritative block store --
        # a forged cycle degrades to extra messages, not wrong data.
        field_of(system, 1, 0).owner = 2
        field_of(system, 2, 0).owner = 1
        from repro.protocol.messages import MsgKind

        naks_before = protocol.stats.traffic_messages[MsgKind.NAK.value]
        assert protocol.read(1, addr(0)) == 1
        assert (
            protocol.stats.traffic_messages[MsgKind.NAK.value]
            == naks_before + 1
        )

    def test_ownership_request_for_owned_block(self):
        system, protocol = build()
        protocol.write(0, addr(0), 1)
        with pytest.raises(ProtocolError, match="it already owns"):
            protocol._acquire_ownership(0, 0)

    def test_write_miss_at_the_recorded_owner_is_a_self_transfer(self):
        system, protocol = build()
        protocol.write(0, addr(0), 1)
        # Corrupt: the owner's copy turns invalid but stays owned, so its
        # next write misses and asks the transfer for its own block.
        field_of(system, 0, 0).valid = False
        with pytest.raises(
            ProtocolError,
            match="cache 0 requested ownership of block 0 it already owns",
        ):
            protocol.write(0, addr(0), 2)


class TestCorruptedPresentVector:
    def test_write_update_to_vector_member_without_copy(self):
        system, protocol = build(default_mode=Mode.DISTRIBUTED_WRITE)
        protocol.write(0, addr(0), 1)
        protocol.read(1, addr(0))
        # Corrupt: the vector names node 5, which holds nothing.
        field_of(system, 0, 0).present.add(5)
        with pytest.raises(ProtocolError):
            protocol.write(0, addr(0), 2)

    def test_invalidation_of_vector_member_without_entry(self):
        system, protocol = build(default_mode=Mode.DISTRIBUTED_WRITE)
        protocol.write(0, addr(0), 1)
        protocol.read(1, addr(0))
        field_of(system, 0, 0).present.add(5)
        with pytest.raises(ProtocolError):
            protocol.set_mode(0, 0, Mode.GLOBAL_READ)


class TestApiMisuse:
    def test_evicting_a_nonresident_block(self):
        system, protocol = build()
        with pytest.raises(ProtocolError):
            protocol.evict(0, 99)

    def test_out_of_range_offset_rejected_before_any_action(self):
        system, protocol = build(block_size_words=2)
        with pytest.raises(ConfigurationError):
            protocol.read(0, Address(0, 2))
        with pytest.raises(ConfigurationError):
            protocol.write(0, Address(0, -1), 1)
        # Nothing happened: no traffic, no state.
        assert system.network.total_bits == 0
        assert system.caches[0].find(0) is None

    def test_negative_block_rejected(self):
        system, protocol = build()
        with pytest.raises(ConfigurationError):
            protocol.read(0, Address(-1, 0))


class TestFailuresAreNotDestructive:
    def test_state_survives_a_rejected_reference(self):
        system, protocol = build()
        protocol.write(0, addr(0), 7)
        with pytest.raises(ConfigurationError):
            protocol.read(0, Address(0, 99))
        # The earlier state is intact and still serves correctly.
        assert protocol.read(0, addr(0)) == 7
        protocol.check_invariants()

    def test_install_refuses_to_clobber_owned_state(self):
        # The cache-level guard behind the protocol's replacement path.
        system, protocol = build(cache_entries=1)
        protocol.write(0, addr(0), 1)
        cache = system.caches[0]
        slot = cache.slot_for(1)
        entry = slot.entry
        entry.state_field = StateField(
            valid=True, owned=True, present={0}, owner=0
        )
        with pytest.raises(ProtocolError):
            cache.install(slot, 1)
