"""Memoised route plans: compute a multicast tree once, replay it forever.

Every multicast scheme in :mod:`repro.network.multicast` (a unicast is
scheme 1 to one destination) walks the omega network switch by switch to
discover *which links carry how many tag bits* and *which switches
forward (and split) the message*.  That walk depends only on
``(scheme, source, destination set, topology)`` -- never on the payload
size, whose contribution to every link is a flat ``+M`` -- so its outcome
can be computed once and replayed.  How often a plan is replayed is
measured, not assumed: ``bench/run.py --trace 1`` reports
``network.plan_hit_share``, which read 0.035 on ``fig8_sweep``, 0.0 on
``migratory_n64`` and 0.033 on ``kernel_n1024`` (seed 1989, ROADMAP.md):
the message ledger settles each distinct message once per window, so a
destination set rarely meets its own cache entry twice.  Precomputed
routing tables are the standard device in the wormhole-routing MIN and
NoC multicast literature.

Two classes:

* :class:`RoutePlan` -- the payload-independent outcome of one routing
  operation: an immutable tuple of ``(level, position, tag_bits, parent)``
  entries (one per link load), the switch traversals with their split
  flags, and flat counter indices precomputed for
  :meth:`~repro.network.topology.OmegaNetwork.apply_plan_traffic`.
  ``cost_for(M)`` and ``loads_for(M)`` reconstitute the exact per-payload
  numbers the switch-by-switch walk would have produced; ``cost_for`` is
  two multiplications, ``loads_for`` allocates one ``LinkLoad`` per link
  and is only called when something reads a result's ``.loads``.  Each
  send gets its own :class:`~repro.network.multicast.MulticastResult`,
  which builds its loads once, on first read.
* :class:`RoutePlanCache` -- a :class:`~repro.lru.BoundedLRU` of plans
  and of the price records multicasts are priced from before any plan
  exists.  Each :class:`~repro.network.topology.OmegaNetwork` instance
  owns one, so plans
  can never leak across topologies: a different network (or port count)
  starts from an empty cache, and :meth:`OmegaNetwork.reset_traffic` zeroes
  counters while leaving the plans -- they describe wiring, not traffic.

Replaying a plan is *bit-identical* to the walk it replaces: the same
``LinkLoad`` tuples (identical values, parents and order), the same
per-link and per-switch counter increments, the same delivered sets
(tests/network/test_routeplan.py, against ``route_plans = None``).
"""

from __future__ import annotations

from typing import Sequence

from repro.lru import BoundedLRU
from repro.network.link import LinkLoad

class RoutePlan:
    """The payload-independent part of one routing or multicast operation.

    Parameters
    ----------
    scheme:
        The :class:`~repro.network.multicast.MulticastScheme` this plan
        replays (``UNICAST`` for a unicast, scheme 1 to one destination).
    source:
        Injection port.
    requested / delivered:
        The destination set asked for and the set actually reached
        (scheme 3 may over-deliver to its enclosing subcube).
    entries:
        One ``(level, position, tag_bits, parent)`` tuple per link load,
        in the exact order the switch-by-switch walk emits them.
    switch_ops:
        One ``(stage, switch_index, split)`` tuple per switch traversal.
    n_ports / n_switches_per_stage:
        Geometry of the network the plan was built for, used to precompute
        the flat counter indices consumed by
        :meth:`~repro.network.topology.OmegaNetwork.apply_plan_traffic`.
    """

    __slots__ = (
        "scheme",
        "source",
        "requested",
        "delivered",
        "entries",
        "switch_ops",
        "link_ops",
        "switch_msg_slots",
        "switch_split_slots",
        "tag_total",
        "n_loads",
        "over_delivers",
        "_links_used",
    )

    def __init__(
        self,
        scheme: object,
        source: int,
        requested: frozenset[int],
        delivered: frozenset[int],
        entries: Sequence[tuple[int, int, int, int | None]],
        switch_ops: Sequence[tuple[int, int, bool]],
        *,
        n_ports: int,
        n_switches_per_stage: int,
    ) -> None:
        self.scheme = scheme
        self.source = source
        self.requested = requested
        self.delivered = delivered
        self.entries = tuple(entries)
        self.switch_ops = tuple(switch_ops)
        self.link_ops = tuple(
            (level * n_ports + position, tag)
            for level, position, tag, _ in self.entries
        )
        self.switch_msg_slots = tuple(
            stage * n_switches_per_stage + index
            for stage, index, _ in self.switch_ops
        )
        self.switch_split_slots = tuple(
            stage * n_switches_per_stage + index
            for stage, index, split in self.switch_ops
            if split
        )
        self.tag_total = sum(tag for _, _, tag, _ in self.entries)
        self.n_loads = len(self.entries)
        self.over_delivers = delivered != requested
        self._links_used: int | None = None

    # ------------------------------------------------------------------

    def cost_for(self, payload_bits: int) -> int:
        """Total bits this operation places on links for payload ``M``.

        Equals ``sum(load.bits for load in loads_for(M))`` by construction:
        every load carries ``M`` payload bits plus its tag remainder.
        """
        return self.n_loads * payload_bits + self.tag_total

    @property
    def links_used(self) -> int:
        """Distinct links touched (scheme 1 may touch one link repeatedly)."""
        if self._links_used is None:
            self._links_used = len({slot for slot, _ in self.link_ops})
        return self._links_used

    def loads_for(self, payload_bits: int) -> tuple[LinkLoad, ...]:
        """The exact :class:`LinkLoad` tuple the cold path would build.

        Not memoised here: the replayed result builds its loads once, on
        first read.
        """
        return tuple(
            LinkLoad(level, position, payload_bits + tag, parent)
            for level, position, tag, parent in self.entries
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RoutePlan(scheme={self.scheme!r}, source={self.source}, "
            f"loads={self.n_loads}, switches={len(self.switch_ops)})"
        )


class RoutePlanCache(BoundedLRU):
    """A bounded LRU of :class:`RoutePlan` values keyed by route identity.

    Keys are ``(scheme tag, source, frozen destination set)`` tuples.  The
    value under a multicast key is that destination set's price record
    (closed-form loads by level first, each plan only once something
    walks it), so a send is one lookup and one entry under every scheme.
    The cache itself is owned by one network instance, so topology is
    implied by ownership and plans can never be replayed against a
    network with different wiring.  ``hits`` / ``misses`` make the cache
    observable (``bench/`` reports the hit share); ``walks`` counts the
    plans built from a price record.
    """

    __slots__ = ("walks",)

    def __init__(self, maxsize: int = 4096) -> None:
        super().__init__(maxsize)
        self.walks = 0

    def stats(self) -> dict[str, int | float]:
        """Hit/miss/walk counters and the resulting hit rate.

        A traced run publishes every key as a ``route_plans_*`` gauge, so
        the key set is part of the trace format.
        """
        stats = super().stats()
        return {
            "plans": stats["entries"],
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "walks": self.walks,
            "hit_rate": stats["hit_rate"],
        }
