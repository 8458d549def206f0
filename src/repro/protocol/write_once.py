"""Goodman's write-once protocol, adapted to a multistage network (§4).

Goodman (1983) designed write-once for a snooping bus: the first write to a
shared block is written through to memory (and observed by every cache,
invalidating their copies); subsequent writes stay local.  On a multistage
network nothing can be observed for free, so -- as the paper's §1 notes for
all snoopy protocols -- the broadcast must be replaced by a *directory*:
the home memory module keeps, per block, the set of caches holding a copy
and whether one of them is dirty, and multicasts invalidations to exactly
the copies.  This is the adaptation simulated here; it is the protocol
eq. 10 models analytically with the two-state (exclusive/shared) Markov
chain of Figure 7.

Per-cache block states (Goodman's, encoded in the generic state field):

* ``INVALID`` -- no copy (``V = 0``);
* ``VALID``   -- clean, possibly shared (``V = 1, O = 0``);
* ``RESERVED``-- written exactly once, memory consistent, only copy
  (``V = 1, O = 1, M = 0``);
* ``DIRTY``   -- written repeatedly, memory stale, only copy
  (``V = 1, O = 1, M = 1``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.cache.entry import CacheEntry
from repro.cache.state import StateField
from repro.errors import ProtocolError
from repro.protocol.base import CoherenceProtocol
from repro.protocol.messages import MsgKind
from repro.sim import stats as ev
from repro.types import Address, BlockId, NodeId


class WriteOnceState(enum.Enum):
    """Goodman's four block states."""

    INVALID = "Invalid"
    VALID = "Valid"
    RESERVED = "Reserved"
    DIRTY = "Dirty"


def decode_state(entry: CacheEntry | None) -> WriteOnceState:
    """Read a Goodman state out of the generic state-field bits."""
    if entry is None or not entry.state_field.valid:
        return WriteOnceState.INVALID
    if not entry.state_field.owned:
        return WriteOnceState.VALID
    if entry.state_field.modified:
        return WriteOnceState.DIRTY
    return WriteOnceState.RESERVED


def encode_state(state: WriteOnceState) -> StateField:
    """A fresh state field encoding ``state``."""
    return StateField(
        valid=state is not WriteOnceState.INVALID,
        owned=state in (WriteOnceState.RESERVED, WriteOnceState.DIRTY),
        modified=state is WriteOnceState.DIRTY,
    )


@dataclass
class _DirectoryEntry:
    """Home-side bookkeeping: copy holders, plus the *exclusive* holder.

    ``dirty_holder`` names the cache holding the block Reserved or Dirty.
    The directory cannot observe the silent Reserved-to-Dirty promotion
    (a local write), so any miss while an exclusive holder exists recalls
    the block conservatively -- a Reserved holder's recall writes back
    data memory already has, which costs bits but never correctness.
    """

    sharers: set[NodeId] = field(default_factory=set)
    dirty_holder: NodeId | None = None


class WriteOnceProtocol(CoherenceProtocol):
    """Directory-adapted write-once over a :class:`~repro.sim.system.System`."""

    name = "write-once"

    def __init__(self, system) -> None:
        super().__init__(system)
        self._directory: dict[BlockId, _DirectoryEntry] = {}

    # ------------------------------------------------------------------

    def _dir(self, block: BlockId) -> _DirectoryEntry:
        entry = self._directory.get(block)
        if entry is None:
            entry = _DirectoryEntry()
            self._directory[block] = entry
        return entry

    def directory_sharers(self, block: BlockId) -> frozenset[NodeId]:
        """Caches the home module believes hold ``block`` (for tests)."""
        return frozenset(self._dir(block).sharers)

    # ------------------------------------------------------------------

    def read(self, node: NodeId, address: Address) -> int:
        self.system.check_address(address)
        self.stats.count(ev.READS)
        block, offset = address
        entry = self.system.caches[node].find(block)
        if decode_state(entry) is not WriteOnceState.INVALID:
            assert entry is not None
            self.stats.count(ev.READ_HITS)
            self.system.caches[node].touch(block)
            return entry.read_word(offset)
        self.stats.count(ev.READ_MISSES)
        entry = self._fetch_block(node, block)
        return entry.read_word(offset)

    def write(self, node: NodeId, address: Address, value: int) -> None:
        self.system.check_address(address)
        self.stats.count(ev.WRITES)
        block, offset = address
        home = self.home(block)
        entry = self.system.caches[node].find(block)
        state = decode_state(entry)
        if state in (WriteOnceState.RESERVED, WriteOnceState.DIRTY):
            # Local write; Reserved promotes to Dirty.
            assert entry is not None
            self.stats.count(ev.WRITE_HITS)
            self.system.caches[node].touch(block)
            entry.write_word(offset, value)
            entry.state_field.modified = True
            return
        if state is WriteOnceState.VALID:
            # The "write once": write through to memory and have the home
            # module invalidate every other copy.
            assert entry is not None
            self.stats.count(ev.WRITE_HITS)
            self.system.caches[node].touch(block)
            self._send(
                MsgKind.DIR_WRITE_THROUGH, node, home, self._cost_word
            )
            self.system.memory_for(block).write_word(block, offset, value)
            self._invalidate_others(node, block)
            entry.write_word(offset, value)
            entry.state_field.owned = True
            entry.state_field.modified = False  # memory is consistent
            return
        # Write miss: read the block with intent to modify -- fetch,
        # invalidate every other copy, write locally (block goes Dirty).
        self.stats.count(ev.WRITE_MISSES)
        entry = self._fetch_block(node, block)
        self._invalidate_others(node, block)
        entry.write_word(offset, value)
        entry.state_field.owned = True
        entry.state_field.modified = True

    # ------------------------------------------------------------------

    def _fetch_block(self, node: NodeId, block: BlockId) -> CacheEntry:
        """Miss service: recall a dirty copy if one exists, then deliver."""
        home = self.home(block)
        memory = self.system.memory_for(block)
        directory = self._dir(block)
        self._send(MsgKind.LOAD_REQ, node, home, self._cost_request)
        if directory.dirty_holder is not None:
            holder = directory.dirty_holder
            holder_entry = self.system.caches[holder].find(block)
            if holder_entry is None:
                raise ProtocolError(
                    f"directory says cache {holder} holds block {block} "
                    f"dirty, but it has no entry"
                )
            self._send(MsgKind.DIR_RECALL, home, holder, self._cost_request)
            self._send(
                MsgKind.WRITEBACK,
                holder,
                home,
                self._cost_block,
            )
            self.stats.count(ev.WRITEBACKS)
            memory.write_block(block, holder_entry.data)
            holder_entry.state_field.owned = False
            holder_entry.state_field.modified = False
            directory.dirty_holder = None
        self._send(
            MsgKind.BLOCK_REPLY,
            home,
            node,
            self._cost_block,
        )
        entry = self._allocate(node, block)
        entry.data = memory.read_block(block)
        entry.state_field = encode_state(WriteOnceState.VALID)
        directory.sharers.add(node)
        return entry

    def _invalidate_others(self, node: NodeId, block: BlockId) -> None:
        """Home-side invalidation multicast to every other copy."""
        home = self.home(block)
        directory = self._dir(block)
        others = frozenset(directory.sharers - {node})
        if others:
            self._multicast(
                MsgKind.DIR_INVALIDATE,
                home,
                others,
                self._cost_request,
            )
            self.stats.count(ev.INVALIDATIONS, len(others))
            for other in others:
                other_entry = self.system.caches[other].find(block)
                if other_entry is not None:
                    other_entry.state_field.valid = False
                    other_entry.state_field.owned = False
                    other_entry.state_field.modified = False
        directory.sharers = {node}
        directory.dirty_holder = node

    # ------------------------------------------------------------------

    def _allocate(self, node: NodeId, block: BlockId) -> CacheEntry:
        cache = self.system.caches[node]
        slot = cache.slot_for(block)
        if slot.needs_eviction(block):
            self._replace_entry(node, slot.entry)
        return cache.install(slot, block)

    def _replace_entry(self, node: NodeId, entry: CacheEntry) -> None:
        block = entry.tag
        assert block is not None
        self.stats.count(ev.REPLACEMENTS)
        state = decode_state(entry)
        home = self.home(block)
        directory = self._dir(block)
        if state is WriteOnceState.INVALID:
            # An invalidated husk; the directory already dropped us.
            directory.sharers.discard(node)
            return
        if state is WriteOnceState.DIRTY:
            self._send(
                MsgKind.WRITEBACK,
                node,
                home,
                self._cost_block,
            )
            self.stats.count(ev.WRITEBACKS)
            self.system.memory_for(block).write_block(block, entry.data)
        else:
            # Valid or Reserved: memory is current, just tell the home.
            self._send(MsgKind.REPLACE_NOTIFY, node, home, self._cost_request)
        directory.sharers.discard(node)
        if directory.dirty_holder == node:
            directory.dirty_holder = None
        entry.state_field = StateField()

    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Directory/cache agreement and single-dirty-copy invariants."""
        for block, directory in self._directory.items():
            holders = set()
            dirty = []
            for cache in self.system.caches:
                entry = cache.find(block)
                state = decode_state(entry)
                if state is not WriteOnceState.INVALID:
                    holders.add(cache.node_id)
                if state in (WriteOnceState.DIRTY, WriteOnceState.RESERVED):
                    dirty.append(cache.node_id)
            if holders != directory.sharers:
                raise ProtocolError(
                    f"write-once directory for block {block} says "
                    f"{sorted(directory.sharers)}, caches say "
                    f"{sorted(holders)}"
                )
            if len(dirty) > 1:
                raise ProtocolError(
                    f"write-once block {block} reserved/dirty at "
                    f"{dirty}"
                )
            if dirty and holders != set(dirty):
                raise ProtocolError(
                    f"write-once block {block} dirty at {dirty} "
                    f"while shared at {sorted(holders)}"
                )
