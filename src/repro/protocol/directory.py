"""The shared core of the three directory baselines.

``full-map``, ``limited-pointer`` and ``write-once`` all keep their
coherence state at the home memory module -- per block, the caches
holding a copy and the one holding it exclusively -- and all invalidate on
write.  This module is everything they share, written once:

* the read path, and the write path up to a write hit on a shared copy;
* the miss service: ``LOAD_REQ``, a recall (``DIR_RECALL`` +
  ``WRITEBACK``) from the exclusive holder, then ``BLOCK_REPLY``;
* invalidation of every other copy, and replacement;
* the walk behind :meth:`~DirectoryProtocol.check_invariants`.

What differs stays in the subclasses: the write hit on a shared copy
(:meth:`~DirectoryProtocol._upgrade`: ``OWN_REQ``, or write-once's
write-through leaving the copy Reserved rather than Dirty), the limited
directory's pointer overflow to broadcast
(:meth:`~DirectoryProtocol._add_sharer`), and each protocol's invariants.

A copy's state is its V/O/M bits, read and written in place: Invalid
``V = O = M = 0``, Valid/Shared ``V = 1, O = M = 0``, Reserved ``V = O = 1,
M = 0`` and Dirty ``V = O = M = 1``; no other field of a
:class:`~repro.cache.state.StateField` is used.
"""

from __future__ import annotations

import abc

from repro.cache.cache import Cache
from repro.cache.entry import CacheEntry
from repro.errors import ProtocolError
from repro.protocol.base import CoherenceProtocol
from repro.protocol.messages import MsgKind
from repro.sim import stats as ev
from repro.types import BlockId, NodeId

# Bound once: on Python 3.11 every ``MsgKind.X`` read is an
# ``EnumType.__getattr__`` call (≈ 0.1 µs; a module global ≈ 0.01 µs).
BLOCK_REPLY = MsgKind.BLOCK_REPLY
DIR_INVALIDATE = MsgKind.DIR_INVALIDATE
DIR_RECALL = MsgKind.DIR_RECALL
LOAD_REQ = MsgKind.LOAD_REQ
OWN_REQ = MsgKind.OWN_REQ
REPLACE_NOTIFY = MsgKind.REPLACE_NOTIFY
WRITEBACK = MsgKind.WRITEBACK


class _DirectoryEntry:
    """One block's entry at its home module."""

    __slots__ = ("sharers", "holder", "broadcast")

    def __init__(self) -> None:
        #: Caches holding a copy (a limited directory's pointers).
        self.sharers: set[NodeId] = set()
        #: The cache holding the block Reserved or Dirty, if any.
        self.holder: NodeId | None = None
        #: A limited directory overflowed: every cache may hold a copy.
        self.broadcast = False


class DirectoryProtocol(CoherenceProtocol):
    """Write-invalidate coherence kept by a directory at the home module."""

    #: Opens the miss path's bookkeeping error.
    _error_prefix = ""

    def __init__(self, system) -> None:
        super().__init__(system)
        self._directory: dict[BlockId, _DirectoryEntry] = {}

    def _dir(self, block: BlockId) -> _DirectoryEntry:
        entry = self._directory.get(block)
        if entry is None:
            entry = self._directory[block] = _DirectoryEntry()
        return entry

    # ------------------------------------------------------------------

    def _read(self, node: NodeId, block: BlockId, offset: int) -> int:
        events = self.stats.events
        events[ev.READS] += 1
        cache = self._caches[node]
        entry = cache._lookup(block)
        if entry is not None and entry.state_field.valid:
            events[ev.READ_HITS] += 1
            return entry.data[offset]
        events[ev.READ_MISSES] += 1
        home = block % self._n_nodes
        return self._fetch(node, block, home, cache, entry).data[offset]

    def _write(
        self, node: NodeId, block: BlockId, offset: int, value: int
    ) -> None:
        events = self.stats.events
        events[ev.WRITES] += 1
        cache = self._caches[node]
        entry = cache._lookup(block)
        home = block % self._n_nodes
        if entry is not None and entry.state_field.valid:
            events[ev.WRITE_HITS] += 1
            if entry.state_field.owned:
                # Reserved or Dirty: a local write, and the copy is Dirty.
                entry.data[offset] = value
                entry.state_field.modified = True
                return
            modified = self._upgrade(node, block, offset, value, home)
        else:
            events[ev.WRITE_MISSES] += 1
            entry = self._fetch(node, block, home, cache, entry)
            modified = True
        self._invalidate_others(node, block, home)
        entry.data[offset] = value
        entry.state_field.owned = True
        entry.state_field.modified = modified

    def _upgrade(
        self, node: NodeId, block: BlockId, offset: int, value: int,
        home: NodeId,
    ) -> bool:
        """A write hit on a shared copy, before the others are invalidated.

        Asks the home for exclusivity; returns the copy's M bit once the
        write is done (Dirty).
        """
        self._send(OWN_REQ, node, home, self._cost_request)
        return True

    def _add_sharer(self, directory: _DirectoryEntry, node: NodeId) -> None:
        """Record a new copy holder."""
        directory.sharers.add(node)

    # ------------------------------------------------------------------

    def _fetch(
        self, node: NodeId, block: BlockId, home: NodeId, cache: Cache,
        entry: CacheEntry | None,
    ) -> CacheEntry:
        """Miss service: recall from the exclusive holder, deliver from home.

        ``entry`` is the block's own (invalidated) entry at ``node``, if it
        has one: it is refreshed in place, which touches its slot exactly
        as reinstalling it would.  Either way its state field is Invalid.
        """
        memory = self._memories[home]
        directory = self._dir(block)
        self._send(LOAD_REQ, node, home, self._cost_request)
        holder = directory.holder
        if holder is not None:
            held = self._caches[holder].find(block)
            if held is None:
                raise ProtocolError(
                    f"{self._error_prefix}directory says cache {holder} "
                    f"holds block {block} dirty, but it has no entry"
                )
            self._send(DIR_RECALL, home, holder, self._cost_request)
            self._send(WRITEBACK, holder, home, self._cost_block)
            self.stats.events[ev.WRITEBACKS] += 1
            memory.write_block(block, held.data)
            held.state_field.owned = held.state_field.modified = False
            directory.holder = None
        self._send(BLOCK_REPLY, home, node, self._cost_block)
        if entry is None:
            slot = cache.slot_for(block)
            if slot.needs_eviction(block):
                self._replace_entry(node, slot.entry)
            entry = cache._claim(slot, block)
        else:
            cache.touch(block)
        entry.data = memory._read_block(block)
        entry.state_field.valid = True
        self._add_sharer(directory, node)
        return entry

    def _invalidate_others(
        self, node: NodeId, block: BlockId, home: NodeId
    ) -> None:
        """Invalidate every other copy; ``node`` is left the only holder."""
        directory = self._directory[block]
        if directory.broadcast:
            # The directory no longer knows who holds copies: invalidate
            # every cache except the writer (the Dir_i B overflow cost).
            targets = frozenset(range(self._n_nodes)) - {node}
        else:
            targets = frozenset(directory.sharers - {node})
        if targets:
            self._multicast(
                DIR_INVALIDATE, home, targets, self._cost_request
            )
            invalidated = 0
            for other in targets:
                copy = self._caches[other].find(block)
                field = None if copy is None else copy.state_field
                if field is not None and field.valid:
                    field.valid = field.owned = field.modified = False
                    invalidated += 1
            self.stats.events[ev.INVALIDATIONS] += invalidated
        directory.sharers = {node}
        directory.holder = node
        directory.broadcast = False

    def _replace_entry(self, node: NodeId, entry: CacheEntry) -> None:
        """Retire a victim: write back a Dirty copy, else notify the home."""
        block = entry.tag
        assert block is not None
        self.stats.events[ev.REPLACEMENTS] += 1
        directory = self._dir(block)
        field = entry.state_field
        if field.valid:
            home = block % self._n_nodes
            if field.modified:
                self._send(WRITEBACK, node, home, self._cost_block)
                self.stats.events[ev.WRITEBACKS] += 1
                self._memories[home].write_block(block, entry.data)
            else:
                # Valid or Reserved: memory is current, just tell the home.
                self._send(
                    REPLACE_NOTIFY, node, home, self._cost_request
                )
            if directory.holder == node:
                directory.holder = None
            field.valid = field.owned = field.modified = False
        directory.sharers.discard(node)

    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Directory/cache agreement, per block, in directory order."""
        for block, directory in self._directory.items():
            holders = set()
            owners = []
            for cache in self._caches:
                entry = cache.find(block)
                if entry is not None and entry.state_field.valid:
                    holders.add(cache.node_id)
                    if entry.state_field.owned:
                        owners.append(cache.node_id)
            self._check_block(block, directory, holders, owners)

    @abc.abstractmethod
    def _check_block(
        self,
        block: BlockId,
        directory: _DirectoryEntry,
        holders: set[NodeId],
        owners: list[NodeId],
    ) -> None:
        """Raise :class:`ProtocolError` unless ``block`` is consistent.

        ``holders`` are the caches with a valid copy and ``owners`` those
        holding it Reserved or Dirty, in cache order.
        """
