"""A limited-pointer directory (Dir_i-B), the era's other storage fix.

The paper attacks the full map's ``O(N M)`` state by moving it into the
caches; the contemporaneous alternative (Agarwal et al., ISCA 1988) keeps
the directory at memory but caps it at ``i`` *pointers* of ``log2 N`` bits
each plus a broadcast bit: when an ``i+1``-th sharer arrives the directory
overflows, sets the broadcast bit, and subsequent invalidations go to
*every* cache.  Implemented here as a comparison point: same
write-invalidate semantics as :class:`~repro.protocol.full_map.FullMapProtocol`,
different directory representation, and a broadcast penalty the full map
never pays.

State per block at the home module: up to ``i`` pointers, or broadcast
mode; per cached block the same Invalid / Shared / Dirty states, encoded
in the generic state field exactly as the full map does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.entry import CacheEntry
from repro.cache.state import StateField
from repro.errors import ConfigurationError, ProtocolError
from repro.protocol.base import CoherenceProtocol
from repro.protocol.full_map import FullMapState, decode_state
from repro.protocol.messages import MsgKind
from repro.sim import stats as ev
from repro.types import Address, BlockId, NodeId


@dataclass
class _DirectoryEntry:
    """``i`` pointers or broadcast; plus the dirty bit."""

    pointers: set[NodeId] = field(default_factory=set)
    broadcast: bool = False
    dirty: bool = False


class LimitedPointerProtocol(CoherenceProtocol):
    """``Dir_i B``: a directory of ``n_pointers`` per block."""

    name = "limited-pointer-directory"

    def __init__(self, system, *, n_pointers: int = 2) -> None:
        super().__init__(system)
        if n_pointers < 1:
            raise ConfigurationError(
                f"need at least one pointer, got {n_pointers}"
            )
        self.n_pointers = n_pointers
        self._directory: dict[BlockId, _DirectoryEntry] = {}

    def _dir(self, block: BlockId) -> _DirectoryEntry:
        entry = self._directory.get(block)
        if entry is None:
            entry = _DirectoryEntry()
            self._directory[block] = entry
        return entry

    def directory_state(
        self, block: BlockId
    ) -> tuple[frozenset[NodeId], bool]:
        """``(pointers, broadcast)`` for tests."""
        entry = self._dir(block)
        return frozenset(entry.pointers), entry.broadcast

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

    def _track_sharer(self, block: BlockId, node: NodeId) -> None:
        """Record a new copy holder; overflow flips to broadcast mode."""
        directory = self._dir(block)
        if directory.broadcast:
            return
        directory.pointers.add(node)
        if len(directory.pointers) > self.n_pointers:
            directory.pointers.clear()
            directory.broadcast = True
            self.stats.count("directory_overflows")

    def _fetch_block(self, node: NodeId, block: BlockId) -> CacheEntry:
        home = self.home(block)
        memory = self.system.memory_for(block)
        directory = self._dir(block)
        self._send(MsgKind.LOAD_REQ, node, home, self._cost_request)
        if directory.dirty:
            if directory.broadcast or len(directory.pointers) != 1:
                raise ProtocolError(
                    f"limited-pointer block {block} dirty without a "
                    f"single pointer"
                )
            (holder,) = directory.pointers
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
        self._track_sharer(block, node)
        return entry

    def _invalidate_others(self, node: NodeId, block: BlockId) -> None:
        """Invalidate every other copy; broadcast mode pays for everyone."""
        home = self.home(block)
        directory = self._dir(block)
        if directory.broadcast:
            # The directory no longer knows who holds copies: invalidate
            # every cache except the writer (the Dir_i B overflow cost).
            targets = frozenset(range(self.system.n_nodes)) - {node}
        else:
            targets = frozenset(directory.pointers - {node})
        if targets:
            self._multicast(
                MsgKind.DIR_INVALIDATE,
                home,
                targets,
                self._cost_request,
            )
            invalidated = 0
            for other in targets:
                other_entry = self.system.caches[other].find(block)
                if other_entry is not None and (
                    other_entry.state_field.valid
                ):
                    other_entry.state_field = StateField(valid=False)
                    invalidated += 1
            self.stats.count(ev.INVALIDATIONS, invalidated)
        directory.pointers = {node}
        directory.broadcast = False
        directory.dirty = True

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
            directory.pointers.discard(node)
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
        directory.pointers.discard(node)
        entry.state_field = StateField()

    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Pointer accuracy (when not overflowed) + single dirty copy."""
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
            if directory.broadcast:
                # Overflow: the directory may only under-approximate.
                if directory.pointers:
                    raise ProtocolError(
                        f"block {block}: broadcast mode with pointers "
                        f"{sorted(directory.pointers)}"
                    )
            else:
                if holders != directory.pointers:
                    raise ProtocolError(
                        f"block {block}: pointers "
                        f"{sorted(directory.pointers)}, holders "
                        f"{sorted(holders)}"
                    )
            if len(dirty) > 1:
                raise ProtocolError(
                    f"block {block} dirty at {dirty}"
                )
            if directory.dirty and not dirty:
                raise ProtocolError(
                    f"block {block}: directory dirty, no dirty copy"
                )
