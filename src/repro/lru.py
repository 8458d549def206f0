"""One bounded least-recently-used map for every memo in the package.

Route plans, the result cache's hot tier and the serve layer's wire memos
all want the same thing: a size-capped mapping whose ``get`` refreshes
recency and whose ``put`` evicts the stalest entry, with hit, miss and
eviction counts so the memo's worth can be read off instead of ablated.
(:mod:`repro.cache.replacement` is the *modelled* cache's policy and has
nothing to do with this.)
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterable


class BoundedLRU:
    """A mapping of at most ``maxsize`` entries, evicted least recently used.

    A stored value of ``None`` is indistinguishable from a miss.  Not
    thread-safe: a caller that shares one across threads holds its own
    lock around ``get`` / ``put``.
    """

    __slots__ = ("maxsize", "hits", "misses", "evictions", "_entries")

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[Hashable, object] = OrderedDict()

    def get(self, key: Hashable) -> object | None:
        """The value under ``key``, refreshing its LRU position."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: object) -> None:
        """Insert ``value``, evicting the least recently used on overflow."""
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        while len(entries) > self.maxsize:
            entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (the counters are kept)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def keys(self) -> Iterable[Hashable]:
        """The stored keys, least recently used first."""
        return self._entries.keys()

    def stats(self) -> dict[str, int | float]:
        """Size, bound, counters and the resulting hit rate."""
        lookups = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(entries={len(self._entries)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
