"""A Censier-Feautrier full-map directory protocol (the §1 baseline).

The classical "global directory" solution the paper positions itself
against: the home memory module keeps, for every block, a presence bit per
cache plus a dirty bit (``O(N M)`` bits of state), and every coherence
action consults it.  Write-invalidate semantics:

* read miss -- home supplies the block (recalling it from a dirty holder
  first) and sets the presence bit;
* write to a non-exclusive copy -- home invalidates all other copies,
  then the writer holds the block dirty and writes locally;
* replacement -- write back if dirty, always clear the presence bit.

This gives the comparison points the paper's storage argument (§1) and the
performance discussion need: same network, same costing, memory-side state
instead of cache-side state.
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


class FullMapState(enum.Enum):
    """Per-cache block states of the write-invalidate directory protocol."""

    INVALID = "Invalid"
    SHARED = "Shared"
    DIRTY = "Dirty"


def decode_state(entry: CacheEntry | None) -> FullMapState:
    """Read the directory-protocol state from the generic state field."""
    if entry is None or not entry.state_field.valid:
        return FullMapState.INVALID
    if entry.state_field.modified:
        return FullMapState.DIRTY
    return FullMapState.SHARED


@dataclass
class _DirectoryEntry:
    """One block's full-map entry: presence vector + dirty bit."""

    present: set[NodeId] = field(default_factory=set)
    dirty: bool = False


class FullMapProtocol(CoherenceProtocol):
    """Full-map write-invalidate directory protocol."""

    name = "full-map-directory"

    def __init__(self, system) -> None:
        super().__init__(system)
        self._directory: dict[BlockId, _DirectoryEntry] = {}

    def _dir(self, block: BlockId) -> _DirectoryEntry:
        entry = self._directory.get(block)
        if entry is None:
            entry = _DirectoryEntry()
            self._directory[block] = entry
        return entry

    def directory_present(self, block: BlockId) -> frozenset[NodeId]:
        """The presence vector the home module holds (for tests)."""
        return frozenset(self._dir(block).present)

    # ------------------------------------------------------------------

    def read(self, node: NodeId, address: Address) -> int:
        self.system.check_address(address)
        self.stats.count(ev.READS)
        block, offset = address
        entry = self.system.caches[node].find(block)
        if decode_state(entry) is not FullMapState.INVALID:
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
        entry = self.system.caches[node].find(block)
        state = decode_state(entry)
        if state is FullMapState.DIRTY:
            assert entry is not None
            self.stats.count(ev.WRITE_HITS)
            self.system.caches[node].touch(block)
            entry.write_word(offset, value)
            return
        if state is FullMapState.SHARED:
            assert entry is not None
            self.stats.count(ev.WRITE_HITS)
            self.system.caches[node].touch(block)
            # Ask the home for exclusivity: it invalidates other copies.
            self._send(
                MsgKind.OWN_REQ,
                node,
                self.home(block),
                self._cost_request,
            )
            self._invalidate_others(node, block)
        else:
            self.stats.count(ev.WRITE_MISSES)
            entry = self._fetch_block(node, block)
            self._invalidate_others(node, block)
        directory = self._dir(block)
        directory.dirty = True
        entry.write_word(offset, value)
        entry.state_field.modified = True
        entry.state_field.owned = True

    # ------------------------------------------------------------------

    def _fetch_block(self, node: NodeId, block: BlockId) -> CacheEntry:
        """Miss service: recall from a dirty holder, deliver from home."""
        home = self.home(block)
        memory = self.system.memory_for(block)
        directory = self._dir(block)
        self._send(MsgKind.LOAD_REQ, node, home, self._cost_request)
        if directory.dirty:
            (holder,) = directory.present
            holder_entry = self.system.caches[holder].find(block)
            if holder_entry is None:
                raise ProtocolError(
                    f"full-map directory says cache {holder} holds block "
                    f"{block} dirty, but it has no entry"
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
            holder_entry.state_field.modified = False
            holder_entry.state_field.owned = False
            directory.dirty = False
        self._send(
            MsgKind.BLOCK_REPLY,
            home,
            node,
            self._cost_block,
        )
        entry = self._allocate(node, block)
        entry.data = memory.read_block(block)
        entry.state_field = StateField(valid=True)
        directory.present.add(node)
        return entry

    def _invalidate_others(self, node: NodeId, block: BlockId) -> None:
        home = self.home(block)
        directory = self._dir(block)
        others = frozenset(directory.present - {node})
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
                    other_entry.state_field = StateField(valid=False)
        directory.present = {node}

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
        if state is FullMapState.INVALID:
            directory.present.discard(node)
            return
        if state is FullMapState.DIRTY:
            self._send(
                MsgKind.WRITEBACK,
                node,
                home,
                self._cost_block,
            )
            self.stats.count(ev.WRITEBACKS)
            self.system.memory_for(block).write_block(block, entry.data)
            directory.dirty = False
        else:
            self._send(MsgKind.REPLACE_NOTIFY, node, home, self._cost_request)
        directory.present.discard(node)
        entry.state_field = StateField()

    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Presence-vector accuracy and single-dirty-copy invariants."""
        for block, directory in self._directory.items():
            holders = set()
            dirty = []
            for cache in self.system.caches:
                entry = cache.find(block)
                state = decode_state(entry)
                if state is not FullMapState.INVALID:
                    holders.add(cache.node_id)
                if state is FullMapState.DIRTY:
                    dirty.append(cache.node_id)
            if holders != directory.present:
                raise ProtocolError(
                    f"full-map directory for block {block} says "
                    f"{sorted(directory.present)}, caches say "
                    f"{sorted(holders)}"
                )
            if directory.dirty:
                if len(holders) != 1 or not dirty:
                    raise ProtocolError(
                        f"full-map block {block} marked dirty with "
                        f"holders {sorted(holders)}"
                    )
            elif dirty:
                raise ProtocolError(
                    f"full-map block {block} dirty at {dirty} but the "
                    f"directory disagrees"
                )
