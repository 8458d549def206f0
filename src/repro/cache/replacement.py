"""Replacement policies for the set-associative cache.

Block replacement triggers real protocol work in this system (§2.2 item 5:
write-backs, ownership hand-off, present-flag clearing), so which entry gets
evicted is experimentally interesting.  Policies are deliberately tiny state
machines over ``(set_index, way)`` pairs; the cache calls the unchecked
``_touch`` on every access and :meth:`choose_victim` when it needs a way.
"""

from __future__ import annotations

import abc
import random
from collections import OrderedDict

from repro.errors import ConfigurationError


class ReplacementPolicy(abc.ABC):
    """Chooses which way of a set to evict."""

    def __init__(self, n_sets: int, n_ways: int) -> None:
        if n_sets <= 0 or n_ways <= 0:
            raise ConfigurationError(
                f"need positive set/way counts, got {n_sets}x{n_ways}"
            )
        self.n_sets = n_sets
        self.n_ways = n_ways

    def touch(self, set_index: int, way: int) -> None:
        """Record an access to ``(set_index, way)``."""
        self._check(set_index, way)
        self._touch(set_index, way)

    def _touch(self, set_index: int, way: int) -> None:
        """:meth:`touch` of a slot the cache located itself: unchecked."""

    @abc.abstractmethod
    def choose_victim(self, set_index: int) -> int:
        """Way to evict from ``set_index`` when every way is occupied."""

    def forget(self, set_index: int, way: int) -> None:
        """Entry was cleared; drop any recency state for it (optional)."""

    def _check(self, set_index: int, way: int) -> None:
        if not 0 <= set_index < self.n_sets:
            raise ConfigurationError(f"set index {set_index} out of range")
        if not 0 <= way < self.n_ways:
            raise ConfigurationError(f"way {way} out of range")


class LruPolicy(ReplacementPolicy):
    """Evict the least recently used way."""

    def __init__(self, n_sets: int, n_ways: int) -> None:
        super().__init__(n_sets, n_ways)
        # Per set: ways ordered oldest-first, built when the set is first
        # used (a replay touches a handful of a cache's sets).  Every way
        # starts present so never-touched ways are evicted before touched
        # ones.
        self._order: list[OrderedDict[int, None] | None] = [None] * n_sets

    def _ways(self, set_index: int) -> OrderedDict[int, None]:
        order = self._order[set_index]
        if order is None:
            order = self._order[set_index] = OrderedDict.fromkeys(
                range(self.n_ways)
            )
        return order

    def touch(self, set_index: int, way: int) -> None:
        self._check(set_index, way)
        # (_touch inlined: the kernel makes this call on every batched hit.)
        (self._order[set_index] or self._ways(set_index)).move_to_end(way)

    def _touch(self, set_index: int, way: int) -> None:
        (self._order[set_index] or self._ways(set_index)).move_to_end(way)

    def choose_victim(self, set_index: int) -> int:
        self._check(set_index, 0)
        return next(iter(self._ways(set_index)))

    def forget(self, set_index: int, way: int) -> None:
        self._check(set_index, way)
        # A cleared entry becomes the coldest way again.
        self._ways(set_index).move_to_end(way, last=False)


class FifoPolicy(ReplacementPolicy):
    """Evict ways round-robin in allocation order."""

    def __init__(self, n_sets: int, n_ways: int) -> None:
        super().__init__(n_sets, n_ways)
        self._next: list[int] = [0] * n_sets

    def choose_victim(self, set_index: int) -> int:
        self._check(set_index, 0)
        victim = self._next[set_index]
        self._next[set_index] = (victim + 1) % self.n_ways
        return victim


class RandomPolicy(ReplacementPolicy):
    """Evict a uniformly random way (seeded for reproducibility)."""

    def __init__(self, n_sets: int, n_ways: int, seed: int = 0) -> None:
        super().__init__(n_sets, n_ways)
        self._rng = random.Random(seed)

    def choose_victim(self, set_index: int) -> int:
        self._check(set_index, 0)
        return self._rng.randrange(self.n_ways)


_POLICIES = {
    "lru": LruPolicy,
    "fifo": FifoPolicy,
    "random": RandomPolicy,
}


def make_policy(
    name: str, n_sets: int, n_ways: int, seed: int = 0
) -> ReplacementPolicy:
    """Build a policy by name (``"lru"``, ``"fifo"`` or ``"random"``)."""
    try:
        cls = _POLICIES[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown replacement policy {name!r}; "
            f"choose from {sorted(_POLICIES)}"
        ) from None
    if cls is RandomPolicy:
        return RandomPolicy(n_sets, n_ways, seed=seed)
    return cls(n_sets, n_ways)
