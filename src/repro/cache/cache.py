"""The per-processor private cache: a set-associative tag/state/data table.

The cache is deliberately *mechanism only*: it finds entries, picks victims
and installs tags, but takes no protocol action.  The coherence protocols
drive it through a two-phase allocation so they can run the paper's
replacement actions (§2.2 item 5) between choosing a victim and overwriting
it:

>>> slot = cache.slot_for(block)          # where the block would live
>>> if slot.needs_eviction(block): ...    # protocol replaces slot.entry
>>> entry = cache.install(slot, block)    # now overwrite the slot
"""

from __future__ import annotations

from typing import NamedTuple

from repro.cache.entry import CacheEntry
from repro.cache.replacement import ReplacementPolicy, make_policy
from repro.cache.state import StateField
from repro.errors import ConfigurationError, ProtocolError
from repro.types import BlockId, NodeId


class Slot(NamedTuple):
    """A concrete location ``(set_index, way)`` within a cache."""

    set_index: int
    way: int
    entry: CacheEntry

    def needs_eviction(self, block: BlockId) -> bool:
        """True when installing ``block`` would displace other state."""
        return self.entry.occupied and self.entry.tag != block


class Cache:
    """One private cache attached to processor/port ``node_id``.

    Parameters
    ----------
    node_id:
        The cache's network port (equals its processor id).
    n_entries:
        Total cache entries (blocks the cache can hold).
    block_size_words:
        Words per block; sizes the data portion of each entry.
    associativity:
        Ways per set; ``None`` means fully associative.
    policy / seed:
        Replacement policy name (``"lru"``, ``"fifo"``, ``"random"``) and
        RNG seed for the random policy.
    """

    def __init__(
        self,
        node_id: NodeId,
        n_entries: int,
        block_size_words: int,
        *,
        associativity: int | None = None,
        policy: str = "lru",
        seed: int = 0,
    ) -> None:
        if n_entries <= 0:
            raise ConfigurationError(
                f"cache needs at least one entry, got {n_entries}"
            )
        if block_size_words <= 0:
            raise ConfigurationError(
                f"block size must be positive, got {block_size_words}"
            )
        n_ways = n_entries if associativity is None else associativity
        if n_ways <= 0 or n_entries % n_ways != 0:
            raise ConfigurationError(
                f"associativity {n_ways} must evenly divide "
                f"{n_entries} entries"
            )
        self.node_id = node_id
        self.n_entries = n_entries
        self.block_size_words = block_size_words
        self.n_ways = n_ways
        self.n_sets = n_entries // n_ways
        # A set's ways are built by slot_for() on first use: a replayed
        # trace touches a few of them, and every other path to an entry
        # goes through _index, which only install() fills.
        self._sets: list[list[CacheEntry] | None] = [None] * self.n_sets
        # Tag index: block -> (set_index, way) for every tagged entry.
        # Tags are only ever written by install() and drop(), which keep
        # this exact; every lookup below is O(1) instead of a way scan.
        self._index: dict[BlockId, tuple[int, int]] = {}
        self.policy: ReplacementPolicy = make_policy(
            policy, self.n_sets, n_ways, seed=seed
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def set_index(self, block: BlockId) -> int:
        """The set ``block`` maps to."""
        return block % self.n_sets

    def find(self, block: BlockId) -> CacheEntry | None:
        """The entry tagged with ``block`` (valid *or* invalid), if any."""
        location = self._index.get(block)
        if location is None:
            return None
        return self._sets[location[0]][location[1]]

    def _lookup(self, block: BlockId) -> CacheEntry | None:
        """:meth:`find`, and a valid entry's recency refreshed: a hit."""
        location = self._index.get(block)
        if location is None:
            return None
        entry = self._sets[location[0]][location[1]]
        if entry.state_field.valid:
            self.policy._touch(*location)
        return entry

    def locate(self, block: BlockId) -> tuple[int, int] | None:
        """The ``(set_index, way)`` of ``block``'s entry, if tagged."""
        return self._index.get(block)

    def _ways(self, set_index: int) -> list[CacheEntry]:
        ways = self._sets[set_index]
        if ways is None:
            ways = self._sets[set_index] = [
                CacheEntry() for _ in range(self.n_ways)
            ]
        return ways

    def slot_for(self, block: BlockId) -> Slot:
        """Where ``block`` would live: its current slot, a free way, or the
        replacement policy's victim (in that order of preference)."""
        set_index = self.set_index(block)
        ways = self._ways(set_index)
        location = self._index.get(block)
        if location is not None:
            return Slot(set_index, location[1], ways[location[1]])
        for way, entry in enumerate(ways):
            if not entry.occupied:
                return Slot(set_index, way, entry)
        way = self.policy.choose_victim(set_index)
        return Slot(set_index, way, ways[way])

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def install(self, slot: Slot, block: BlockId) -> CacheEntry:
        """Claim ``slot`` for ``block``: clear it, tag it, mark it used.

        The caller must have finished any replacement protocol on the
        previous occupant; installing over live *owned* state is a protocol
        bug and raises.
        """
        entry = self._claim(slot, block)
        entry.state_field = StateField()
        entry.data = [0] * self.block_size_words
        return entry

    def _claim(self, slot: Slot, block: BlockId) -> CacheEntry:
        """:meth:`install` for a caller that sets state field and data."""
        set_index, way, entry = slot
        if entry.occupied and entry.tag != block and entry.state_field.owned:
            raise ProtocolError(
                f"cache {self.node_id}: installing block {block} over "
                f"unreplaced owned block {entry.tag}"
            )
        if entry.tag is not None:
            del self._index[entry.tag]
        entry.tag = block
        self._index[block] = (set_index, way)
        self.policy._touch(set_index, way)
        return entry

    def touch(self, block: BlockId) -> None:
        """Refresh replacement recency for a hit on ``block``."""
        location = self._index.get(block)
        if location is None:
            raise ProtocolError(
                f"cache {self.node_id}: touch of non-resident block {block}"
            )
        self.policy._touch(*location)

    def drop(self, block: BlockId) -> None:
        """Clear the entry tagged ``block`` (protocol already cleaned up)."""
        location = self._index.get(block)
        if location is None:
            raise ProtocolError(
                f"cache {self.node_id}: drop of non-resident block {block}"
            )
        set_index, way = location
        self._sets[set_index][way].clear()
        del self._index[block]
        self.policy.forget(set_index, way)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def iter_entries(self):
        """Yield every entry (occupied or not), set by set."""
        for set_index in range(self.n_sets):
            yield from self._ways(set_index)

    def _built_entries(self):
        """Entries of the sets built so far; an unbuilt set holds nothing."""
        for ways in self._sets:
            if ways is not None:
                yield from ways

    def resident_blocks(self) -> list[BlockId]:
        """Tags of all occupied entries (valid or invalid placeholders)."""
        return [
            entry.tag
            for entry in self._built_entries()
            if entry.tag is not None
        ]

    def occupancy(self) -> float:
        """Fraction of entries currently occupied."""
        occupied = sum(1 for entry in self._built_entries() if entry.occupied)
        return occupied / self.n_entries

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Cache(node_id={self.node_id}, n_entries={self.n_entries}, "
            f"ways={self.n_ways}, sets={self.n_sets})"
        )
