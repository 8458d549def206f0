"""The multicast schemes of §3, simulated switch by switch.

Three ways of delivering one message to ``n`` destination caches through the
omega network, plus the combined scheme of eq. 8:

* **Scheme 1** (:func:`multicast_scheme1`) -- one destination-tag unicast per
  destination.  Cost grows linearly in ``n`` (eq. 2) because common links are
  paid once per destination.
* **Scheme 2** (:func:`multicast_scheme2`) -- the ``N``-bit present-flag
  vector itself is the routing tag.  Every switch splits the vector in half
  and forwards each half only if it still names a destination, so common
  links are traversed once.  This is the paper's novel scheme.
* **Scheme 3** (:func:`multicast_scheme3`) -- Wen's broadcast-bit routing:
  a ``2m``-bit tag ``b_0..b_{m-1} d_0..d_{m-1}`` where ``b_i = 1`` makes
  stage ``i`` forward to both outputs.  It can only address a *subcube*
  (``2**l`` destinations whose addresses differ in ``l`` fixed bit
  positions); delivering to an arbitrary set means covering it with the
  minimal enclosing subcube and over-delivering.
* **Combined scheme** (:func:`multicast_combined`, eq. 8) -- price all three
  by closed form (:func:`scheme_load_counts`) and build and commit only the
  cheapest.

Every function both *measures* (returns the exact per-link loads) and
*accounts* (increments the network's link and switch counters), so closed
forms from :mod:`repro.network.cost` can be validated against what actually
flows through the fabric.

A multicast is priced before it is walked.  The cache entry of a
``(scheme, source, destination set)`` is a :class:`_PriceRecord`: the
three schemes' link counts by level (:func:`scheme_level_loads`, pure
arithmetic on the sorted destination set), from which eq. 8 picks its
winner and :func:`message_levels` answers what a message costs on every
level -- all a traffic report needs.  The switch-by-switch walk that says
*which* links carry it is made once per record and scheme, the first time
a send or a per-link read needs the
:class:`~repro.network.routeplan.RoutePlan`; repeat sends replay the plan
with bit-identical loads and counter increments.  Source and destinations
are validated once, when the record is made (the builders then walk
unchecked); the memoised fast path skips re-validation (an invalid set
can never hit, because records are only cached after validating).

A :class:`MulticastResult` carries its cost as plain arithmetic on the
plan (``n_loads * M + tag_total``); the per-link :class:`LinkLoad` tuple is
materialised from the plan the first time something reads ``.loads`` --
the message log, a recorder, the timing model -- and never on the
protocols' send path (docs/PERF.md, "The message path").
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import FrozenInstanceError
from functools import lru_cache
from itertools import accumulate
from operator import mul
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import ConfigurationError, MulticastError
from repro.network.link import LinkLoad
from repro.network.message import Message
from repro.network.routeplan import RoutePlan
from repro.network.topology import OmegaNetwork
from repro.types import NodeId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.selector import BreakEvenRegisters


class MulticastScheme(enum.Enum):
    """Which multicast algorithm moves the message through the network."""

    UNICAST = 1  # scheme 1: one unicast per destination
    VECTOR = 2  # scheme 2: present-flag vector as routing tag
    BROADCAST_TAG = 3  # scheme 3: Wen's broadcast-bit subcube routing
    COMBINED = 4  # eq. 8: cheapest of the three

    def choose(self, n_destinations: int) -> "MulticastScheme":
        """The scheme that sends to ``n_destinations``: this one, always.

        The same question §5's
        :class:`~repro.network.selector.BreakEvenRegisters` answer from a
        present-flag popcount; a fixed scheme ignores the count.
        """
        return self


class MulticastResult:
    """Outcome of one multicast operation.

    ``delivered`` can be a strict superset of ``requested`` when scheme 3
    covers an arbitrary destination set with its minimal enclosing subcube;
    coherence actions in this system (write updates, invalidations, owner-id
    updates) are idempotent and ignorable by non-holders, so over-delivery
    is functionally harmless and only costs bits.

    ``cost`` is the bits placed on links (this operation's share of
    eq. 1).  Immutable, and compares, hashes and prints as the frozen
    dataclass of ``(scheme, source, requested, delivered, loads)`` it
    replaces.  A result replayed from a plan (:meth:`from_plan`) holds the
    plan instead of the loads and builds them on first read.
    """

    __slots__ = (
        "scheme",
        "source",
        "requested",
        "delivered",
        "cost",
        "_loads",
        "_plan",
        "_payload_bits",
    )

    def __init__(
        self,
        scheme: MulticastScheme,
        source: NodeId,
        requested: frozenset[NodeId],
        delivered: frozenset[NodeId],
        loads: tuple[LinkLoad, ...],
    ) -> None:
        self._fill(
            scheme, source, requested, delivered,
            sum(load.bits for load in loads), loads, None, 0,
        )

    @classmethod
    def from_plan(
        cls, plan: RoutePlan, payload_bits: int
    ) -> "MulticastResult":
        """The result of replaying ``plan`` with ``payload_bits`` payload."""
        result = cls.__new__(cls)
        result._fill(
            plan.scheme,
            plan.source,
            plan.requested,
            plan.delivered,
            plan.cost_for(payload_bits),
            None,
            plan,
            payload_bits,
        )
        return result

    def _fill(self, *values: object) -> None:
        """Set every slot, in ``__slots__`` order, past the frozen guard."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @property
    def loads(self) -> tuple[LinkLoad, ...]:
        """Per-link traffic with dependency structure, in walk order."""
        loads = self._loads
        if loads is None:
            loads = self._plan.loads_for(self._payload_bits)
            object.__setattr__(self, "_loads", loads)
        return loads

    @property
    def links_used(self) -> int:
        """Distinct links touched (scheme 1 may touch one link repeatedly)."""
        if self._plan is not None:
            return self._plan.links_used
        # Pack (level, position) into one int per load: counting distinct
        # keys without allocating an intermediate tuple object per load.
        return len({(load.level << 32) | load.position for load in self.loads})

    def _fields(self) -> tuple:
        return (
            self.scheme,
            self.source,
            self.requested,
            self.delivered,
            self.loads,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(scheme={self.scheme!r}, "
            f"source={self.source!r}, requested={self.requested!r}, "
            f"delivered={self.delivered!r}, loads={self.loads!r})"
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (type(self), self._fields())


def _freeze(dests: Iterable[NodeId]) -> frozenset[NodeId]:
    """The destination set as a frozenset, without validating members."""
    return dests if type(dests) is frozenset else frozenset(dests)


def _as_destset(network: OmegaNetwork, dests: Iterable[NodeId]) -> frozenset:
    """Validated destination frozenset.

    Called when a plan is *built*; plan-cache hits skip it (only validated
    sets are ever cached, so an invalid set can never hit).
    """
    dest_set = _freeze(dests)
    n_ports = network.n_ports
    for dest in dest_set:
        if not 0 <= dest < n_ports:
            raise MulticastError(
                f"destination {dest} outside 0..{n_ports - 1}"
            )
    return dest_set


def _validate(
    network: OmegaNetwork, source: NodeId, dest_set: frozenset[NodeId]
) -> None:
    """Check a plan's ports once, at plan entry.

    Every position a builder then visits is a rotation of an in-range
    one, so the walks themselves run unchecked.
    """
    _as_destset(network, dest_set)
    network._check_port(source)


def _replay(
    network: OmegaNetwork,
    plan: RoutePlan,
    payload_bits: int,
    commit: bool,
) -> MulticastResult:
    """Replay ``plan`` for one payload size, accounting it if ``commit``.

    Only a watched send (faults, a recorder, the message log) or a
    network-level caller gets here: a protocol inside a ledger window
    posts instead, so the result is built per send, not memoised.
    """
    if commit:
        network.apply_plan_traffic(plan, payload_bits)
    return MulticastResult.from_plan(plan, payload_bits)


# ----------------------------------------------------------------------
# Scheme 1: repeated unicast
# ----------------------------------------------------------------------


def _build_scheme1_plan(
    network: OmegaNetwork, source: NodeId, dest_set: frozenset[NodeId]
) -> RoutePlan:
    """One destination-tag unicast per destination, concatenated."""
    m = network.n_stages
    entries: list[tuple[int, int, int, int | None]] = []
    switch_ops: list[tuple[int, int, bool]] = []
    for dest in sorted(dest_set):
        base = len(entries)
        positions = network._route_positions(source, dest)
        for level, position in enumerate(positions):
            parent = base + level - 1 if level > 0 else None
            entries.append((level, position, m - level, parent))
        for stage in range(m):
            switch_ops.append((stage, positions[stage + 1] // 2, False))
    return RoutePlan(
        MulticastScheme.UNICAST,
        source,
        dest_set,
        dest_set,
        entries,
        switch_ops,
        n_ports=network.n_ports,
        n_switches_per_stage=network.n_ports // 2,
    )


def unicast_plan(
    network: OmegaNetwork, source: NodeId, dest: NodeId
) -> RoutePlan:
    """The (memoised) plan of one unicast: scheme 1 to ``{dest}``.

    Kept under its own ``("u", source, dest)`` key, not counted as a
    walk, and cached only once both ports are validated.
    """
    cache = network.route_plans
    key = ("u", source, dest)
    plan = cache.get(key) if cache is not None else None
    if plan is None:
        network._check_port(source)
        network._check_port(dest)
        plan = _build_scheme1_plan(network, source, frozenset((dest,)))
        if cache is not None:
            cache.put(key, plan)
    return plan


def multicast_scheme1(
    network: OmegaNetwork,
    message: Message,
    dests: Iterable[NodeId],
    *,
    commit: bool = True,
) -> MulticastResult:
    """Deliver ``message`` by sending one scheme-1 unicast per destination."""
    return _payload_send(
        network, MulticastScheme.UNICAST, message.source,
        message.payload_bits, _freeze(dests), commit,
    )


# ----------------------------------------------------------------------
# Scheme 2: present-flag vector routing
# ----------------------------------------------------------------------


def _build_scheme2_plan(
    network: OmegaNetwork, source: NodeId, dest_set: frozenset[NodeId]
) -> RoutePlan:
    """The present-flag vector's split tree, link loads and switch forks."""
    sorted_dests = sorted(dest_set)
    n = network.n_ports
    m = network.n_stages
    entries: list[tuple[int, int, int, int | None]] = []
    switch_ops: list[tuple[int, int, bool]] = []
    if dest_set:
        # A branch is (link position, destination range [lo, hi), index of
        # the entry that fed it); the range always has size N / 2**level
        # and contains >= 1 destination.
        branches: list[tuple[int, int, int, int]] = [(source, 0, n, 0)]
        entries.append((0, source, n, None))
        for stage in range(m):
            next_branches: list[tuple[int, int, int, int]] = []
            half = n >> (stage + 1)  # subvector length after the split
            for position, lo, hi, parent in branches:
                shuffled = network._shuffle(position)
                mid = (lo + hi) // 2
                lo_i = bisect.bisect_left(sorted_dests, lo)
                mid_i = bisect.bisect_left(sorted_dests, mid)
                hi_i = bisect.bisect_left(sorted_dests, hi)
                go_low = mid_i > lo_i
                go_high = hi_i > mid_i
                switch_ops.append(
                    (stage, shuffled // 2, go_low and go_high)
                )
                if go_low:
                    out = shuffled & ~1
                    next_branches.append((out, lo, mid, len(entries)))
                    entries.append((stage + 1, out, half, parent))
                if go_high:
                    out = shuffled | 1
                    next_branches.append((out, mid, hi, len(entries)))
                    entries.append((stage + 1, out, half, parent))
            branches = next_branches
        final_positions = {position for position, _, _, _ in branches}
        if final_positions != dest_set:
            raise MulticastError(
                f"scheme 2 routing reached {sorted(final_positions)} "
                f"instead of {sorted(dest_set)}"
            )
    return RoutePlan(
        MulticastScheme.VECTOR,
        source,
        dest_set,
        dest_set,
        entries,
        switch_ops,
        n_ports=n,
        n_switches_per_stage=n // 2,
    )


def multicast_scheme2(
    network: OmegaNetwork,
    message: Message,
    dests: Iterable[NodeId],
    *,
    commit: bool = True,
) -> MulticastResult:
    """Deliver ``message`` using the present-flag vector as routing tag.

    The full ``N``-bit vector rides the level-0 link; each switch splits the
    incoming vector into two halves and forwards a half iff it still contains
    a set flag.  The vector shrinks to ``N / 2**i`` bits at link level ``i``,
    which is exactly the per-stage cost the paper tabulates for eq. 3.
    """
    return _payload_send(
        network, MulticastScheme.VECTOR, message.source,
        message.payload_bits, _freeze(dests), commit,
    )


# ----------------------------------------------------------------------
# Scheme 3: broadcast-bit subcube routing
# ----------------------------------------------------------------------


def enclosing_subcube(
    network: OmegaNetwork, dests: Iterable[NodeId]
) -> tuple[int, int]:
    """Minimal subcube ``(base, varying_mask)`` covering ``dests``.

    The subcube contains every port agreeing with ``base`` on the bits
    *outside* ``varying_mask``; its size is ``2 ** popcount(varying_mask)``.
    """
    dest_list = sorted(_as_destset(network, dests))
    if not dest_list:
        raise MulticastError("cannot compute a subcube for zero destinations")
    base = dest_list[0]
    varying = 0
    for dest in dest_list[1:]:
        varying |= base ^ dest
    return base & ~varying, varying


def subcube_members(
    network: OmegaNetwork, base: int, varying_mask: int
) -> frozenset[NodeId]:
    """All ports of the subcube ``(base, varying_mask)``."""
    bits = [b for b in range(network.n_stages) if (varying_mask >> b) & 1]
    members = []
    for combo in range(1 << len(bits)):
        address = base
        for j, b in enumerate(bits):
            if (combo >> j) & 1:
                address |= 1 << b
        members.append(address)
    return frozenset(members)


def _build_scheme3_plan(
    network: OmegaNetwork, source: NodeId, dest_set: frozenset[NodeId]
) -> RoutePlan:
    """Wen's broadcast-bit tree over the minimal enclosing subcube."""
    base, varying = enclosing_subcube(network, dest_set)
    delivered = subcube_members(network, base, varying)
    m = network.n_stages
    entries: list[tuple[int, int, int, int | None]] = [
        (0, source, 2 * m, None)
    ]
    switch_ops: list[tuple[int, int, bool]] = []
    branches: list[tuple[int, int]] = [(source, 0)]
    for stage in range(m):
        # Stage i consumes b_i and d_i: MSB-first, stage i governs address
        # bit (m - 1 - stage).
        bit_index = m - 1 - stage
        broadcast = (varying >> bit_index) & 1
        tag_left = 2 * (m - stage - 1)
        next_branches: list[tuple[int, int]] = []
        for position, parent in branches:
            shuffled = network._shuffle(position)
            if broadcast:
                outs = [shuffled & ~1, shuffled | 1]
            else:
                outs = [(shuffled & ~1) | ((base >> bit_index) & 1)]
            switch_ops.append((stage, shuffled // 2, bool(broadcast)))
            for out in outs:
                next_branches.append((out, len(entries)))
                entries.append((stage + 1, out, tag_left, parent))
        branches = next_branches
    if frozenset(position for position, _ in branches) != delivered:
        raise MulticastError(
            f"scheme 3 routing reached "
            f"{sorted(position for position, _ in branches)} "
            f"instead of {sorted(delivered)}"
        )
    return RoutePlan(
        MulticastScheme.BROADCAST_TAG,
        source,
        dest_set,
        delivered,
        entries,
        switch_ops,
        n_ports=network.n_ports,
        n_switches_per_stage=network.n_ports // 2,
    )


def multicast_scheme3(
    network: OmegaNetwork,
    message: Message,
    dests: Iterable[NodeId],
    *,
    exact: bool = True,
    commit: bool = True,
) -> MulticastResult:
    """Deliver ``message`` with Wen's ``2m``-bit broadcast-bit routing tag.

    With ``exact=True`` the destination set must itself be a subcube (the
    restriction stated in §3.3); with ``exact=False`` the minimal enclosing
    subcube is used and the message is over-delivered.
    """
    return _payload_send(
        network, MulticastScheme.BROADCAST_TAG, message.source,
        message.payload_bits, _freeze(dests), commit, exact,
    )


# ----------------------------------------------------------------------
# Pricing by closed form, and the combined scheme (eq. 8)
# ----------------------------------------------------------------------


#: Plan builder per concrete scheme, indexed ``scheme.value - 1``; eq. 8
#: considers them in this order, which is also its tie-break.
_CANDIDATE_BUILDERS = (
    _build_scheme1_plan,
    _build_scheme2_plan,
    _build_scheme3_plan,
)


@lru_cache(maxsize=None)
def level_tags(m: int) -> tuple[tuple[int, ...], ...]:
    """Tag bits on one link at levels ``0 .. m`` under schemes 1, 2 and 3.

    The destination tag shrinks a bit per stage (``m - i``), the
    present-flag vector halves (``N >> i``), Wen's tag sheds a broadcast
    and an address bit (``2 (m - i)``).
    """
    levels = range(m + 1)
    return (
        tuple(m - i for i in levels),
        tuple(1 << (m - i) for i in levels),
        tuple(2 * (m - i) for i in levels),
    )


def scheme_level_loads(
    network: OmegaNetwork, dest_set: frozenset[NodeId]
) -> tuple[list[int], list[int], list[int]]:
    """Links used at levels ``0 .. m`` by schemes 1, 2 and 3, unwalked.

    Exactly the per-level link counts of each scheme's built
    :class:`RoutePlan`, from the sorted destination set alone (they do
    not depend on the source: every source sees the same tree shape).
    With ``m = log2 N`` and ``k`` destinations:

    * scheme 1 -- ``k`` paths: ``k`` links on every level;
    * scheme 2 -- one link per distinct destination prefix
      ``dest >> (m - i)``.  A destination whose highest bit differing
      from its sorted predecessor is bit ``h - 1`` forks off at level
      ``m + 1 - h`` and adds a link to every level from there down;
    * scheme 3 -- the enclosing subcube's varying mask is the OR of those
      same adjacent differences; the branch count doubles after every
      stage whose address bit varies.

    Each link at level ``i`` carries the payload plus
    ``level_tags(m)[scheme][i]`` tag bits.  :mod:`repro.network.cost`
    prints the same costs for the placements the paper analyses
    (power-of-two ``n``, aligned blocks); these hold for any non-empty
    destination set.
    """
    m = network.n_stages
    ordered = sorted(dest_set)
    forks = [1] + [0] * m
    varying = 0
    for previous, dest in zip(ordered, ordered[1:]):
        differing = previous ^ dest
        forks[m + 1 - differing.bit_length()] += 1
        varying |= differing
    cube = [1]
    for level in range(1, m + 1):
        cube.append(cube[-1] << ((varying >> (m - level)) & 1))
    return [len(ordered)] * (m + 1), list(accumulate(forks)), cube


class _PriceRecord:
    """What one ``(source, destination set)`` costs, and its plans.

    The cache entry of a multicast: the three schemes' closed-form link
    counts by level and in total, plus the plan of each scheme that
    something has walked (under eq. 8 the winner depends on the payload
    size, so a record can come to hold more than one; almost always it
    holds one, and a replay nobody reads per link holds none).
    """

    __slots__ = ("levels", "counts", "plans")

    def __init__(
        self, network: OmegaNetwork, dest_set: frozenset[NodeId]
    ) -> None:
        self.levels = scheme_level_loads(network, dest_set)
        self.counts = tuple(
            (sum(loads), sum(map(mul, loads, tags)))
            for loads, tags in zip(
                self.levels, level_tags(network.n_stages)
            )
        )
        self.plans: list[RoutePlan | None] = [None, None, None]

    def winner(self, scheme: MulticastScheme, payload_bits: int) -> int:
        """Index of the scheme that sends: eq. 8 by arithmetic.

        Ties break in scheme order 1, 2, 3, exactly like probing all
        three built plans.
        """
        if scheme is not MulticastScheme.COMBINED:
            return scheme.value - 1
        costs = [
            n_loads * payload_bits + tag_total
            for n_loads, tag_total in self.counts
        ]
        return costs.index(min(costs))  # first minimum: scheme order


def scheme_load_counts(
    network: OmegaNetwork, dest_set: frozenset[NodeId]
) -> tuple[tuple[int, int], ...]:
    """``(n_loads, tag_total)`` of schemes 1, 2 and 3, without a fabric walk.

    Exactly the two numbers the built :class:`RoutePlan` of each scheme
    would carry, so ``n_loads * M + tag_total`` is its cost for payload
    ``M``: :func:`scheme_level_loads` summed over the levels.
    """
    return _PriceRecord(network, dest_set).counts


def _price_record(
    network: OmegaNetwork,
    scheme: MulticastScheme,
    source: NodeId,
    dest_set: frozenset[NodeId],
) -> _PriceRecord:
    """Fetch (or validate, price and cache) one multicast's record."""
    cache = getattr(network, "route_plans", None)
    key = (scheme, source, dest_set)
    record = cache.get(key) if cache is not None else None
    if record is None:
        _validate(network, source, dest_set)
        record = _PriceRecord(network, dest_set)
        if cache is not None:
            cache.put(key, record)
    return record


def _record_plan(
    network: OmegaNetwork,
    scheme: MulticastScheme,
    source: NodeId,
    dest_set: frozenset[NodeId],
    payload_bits: int,
) -> RoutePlan:
    """The plan a send commits: the only one of the record's ever built."""
    record = _price_record(network, scheme, source, dest_set)
    winner = record.winner(scheme, payload_bits)
    plan = record.plans[winner]
    if plan is None:
        plan = _CANDIDATE_BUILDERS[winner](network, source, dest_set)
        record.plans[winner] = plan
        if getattr(network, "route_plans", None) is not None:
            network.route_plans.walks += 1
    return plan


def message_levels(
    network: OmegaNetwork,
    scheme: MulticastScheme | BreakEvenRegisters,
    source: NodeId,
    dests: frozenset[NodeId],
    payload_bits: int,
) -> tuple[Sequence[int], tuple[int, ...]]:
    """``(links, tag bits per link)`` by level of one message, unwalked.

    Level ``i`` carries ``links[i] * (payload_bits + tags[i])`` bits,
    which is what the committed plan's ``loads_for(payload_bits)`` sum to
    there.  ``scheme`` resolves the destination count as
    :class:`Multicaster` resolves it.
    """
    tags = level_tags(network.n_stages)
    if len(dests) < 2:
        # No destination, or one: plain unicast under every scheme.
        return (len(dests),) * len(tags[0]), tags[0]
    scheme = scheme.choose(len(dests))
    record = _price_record(network, scheme, source, dests)
    winner = record.winner(scheme, payload_bits)
    return record.levels[winner], tags[winner]


def _payload_send(
    network: OmegaNetwork,
    scheme: MulticastScheme,
    source: NodeId,
    payload_bits: int,
    dest_set: frozenset[NodeId],
    commit: bool,
    exact: bool = False,
) -> MulticastResult:
    """One multicast by ``scheme``: scheme 3 over-delivers unless ``exact``."""
    if not dest_set:
        if scheme is MulticastScheme.BROADCAST_TAG:
            raise MulticastError("scheme 3 needs at least one destination")
        return MulticastResult(scheme, source, dest_set, dest_set, ())
    plan = _record_plan(network, scheme, source, dest_set, payload_bits)
    if exact and plan.over_delivers:
        raise MulticastError(
            f"destinations {sorted(dest_set)} do not form a subcube "
            f"(minimal cover has {len(plan.delivered)} members); "
            f"pass exact=False to over-deliver"
        )
    return _replay(network, plan, payload_bits, commit)


def multicast_combined(
    network: OmegaNetwork,
    message: Message,
    dests: Iterable[NodeId],
    *,
    commit: bool = True,
) -> MulticastResult:
    """Price schemes 1, 2 and 3 and commit the cheapest (eq. 8).

    Scheme 3 competes with its minimal enclosing subcube (over-delivering
    where the destination set is not itself a subcube), mirroring §3.4 where
    it addresses the whole block of ``n1`` adjacently-placed tasks.

    The comparison is arithmetic on :func:`scheme_load_counts`
    (``n_loads * M + tag_total`` per candidate), not three fabric walks:
    only the winner's plan is ever built.  Ties break in scheme order
    1, 2, 3.
    """
    return _payload_send(
        network, MulticastScheme.COMBINED, message.source,
        message.payload_bits, _freeze(dests), commit,
    )


def multicast(
    network: OmegaNetwork,
    message: Message,
    dests: Iterable[NodeId],
    scheme: MulticastScheme = MulticastScheme.COMBINED,
    *,
    commit: bool = True,
) -> MulticastResult:
    """Deliver ``message`` to ``dests`` using ``scheme``.

    For :data:`MulticastScheme.BROADCAST_TAG` the enclosing subcube is used
    (over-delivery allowed), since protocol destination sets are arbitrary.
    """
    return _payload_send(
        network, scheme, message.source, message.payload_bits,
        _freeze(dests), commit,
    )


def multicast_plan_for(
    network: OmegaNetwork,
    scheme: MulticastScheme | BreakEvenRegisters,
    source: NodeId,
    dest_set: frozenset[NodeId],
    payload_bits: int,
) -> RoutePlan:
    """The exact plan :meth:`Multicaster.send_payload` would commit.

    This is how the network walks a message it has only priced: a
    ``(source, destination set)`` pair fully determines the plan -- the
    scheme-2 split tree in particular is a pure function of it -- so
    replaying it with
    :meth:`~repro.network.topology.OmegaNetwork.apply_plan_traffic_scaled`
    is bit-identical to that many sends.  ``payload_bits`` only matters
    under the combined scheme, where it picks the eq. 8 winner (ties
    break in scheme order 1, 2, 3, like the send path).
    """
    if not dest_set:
        raise MulticastError("plan lookup needs at least one destination")
    if len(dest_set) == 1:
        # A single destination is plain unicast under every scheme.
        (dest,) = dest_set
        return unicast_plan(network, source, dest)
    # Scheme 3 over-delivers (exact=False) for arbitrary sets, as the
    # send path does.
    return _record_plan(
        network, scheme.choose(len(dest_set)), source, dest_set, payload_bits
    )


class Multicaster:
    """A network bound to a multicast scheme choice.

    The coherence protocols talk to the network exclusively through this
    object, so switching the protocol between schemes (for the ablation
    benchmarks) is a one-argument change.  ``scheme`` is a
    :class:`MulticastScheme` or §5's
    :class:`~repro.network.selector.BreakEvenRegisters`: each send asks
    it ``choose(len(dests))`` which scheme carries that destination set,
    as the network's ledger does for a posted multicast.  One
    destination is a plain unicast whatever the scheme.

    The :class:`~repro.network.message.Message`-free ``send_payload`` /
    ``send_payload_one`` entry points carry the two fields the fabric
    actually routes on (source port, payload size) and skip one object
    construction per protocol message -- the protocols' hot path.

    When the network carries a fault injector (``network.fault_injector``
    is not ``None``), every entry point first checks that the unique
    omega route to each destination is alive and raises
    :class:`~repro.errors.UnreachableRouteError` otherwise, *before* any
    traffic is accounted.  Both the memoised route-plan fast path and the
    cold re-walk path pass through these same entry points, so they see
    identical faults.
    """

    def __init__(
        self,
        network: OmegaNetwork,
        scheme: MulticastScheme | BreakEvenRegisters = (
            MulticastScheme.COMBINED
        ),
    ) -> None:
        if (
            not isinstance(scheme, MulticastScheme)
            and scheme.network_size != network.n_ports
        ):
            raise ConfigurationError(
                f"registers compiled for N={scheme.network_size}, "
                f"network has {network.n_ports} ports"
            )
        self.network = network
        self.scheme = scheme

    def send(
        self, message: Message, dests: Sequence[NodeId] | frozenset[NodeId]
    ) -> MulticastResult:
        """Deliver ``message`` to ``dests`` and account its traffic."""
        return self.send_payload(message.source, message.payload_bits, dests)

    def send_payload(
        self,
        source: NodeId,
        payload_bits: int,
        dests: Sequence[NodeId] | frozenset[NodeId],
    ) -> MulticastResult:
        """Deliver ``payload_bits`` from ``source`` to ``dests``."""
        dest_set = _freeze(dests)
        if not dest_set:
            scheme = self.scheme
            if not isinstance(scheme, MulticastScheme):
                # Registers choose for one destination or more.
                scheme = MulticastScheme.COMBINED
            return MulticastResult(scheme, source, dest_set, dest_set, ())
        if len(dest_set) == 1:
            # A single destination is plain unicast under every scheme.
            (dest,) = dest_set
            return self.send_payload_one(source, payload_bits, dest)
        injector = self.network.fault_injector
        if injector is not None:
            for dest in dest_set:
                injector.check_route(source, dest)
        return _payload_send(
            self.network, self.scheme.choose(len(dest_set)), source,
            payload_bits, dest_set, True,
        )

    def send_payload_one(
        self, source: NodeId, payload_bits: int, dest: NodeId
    ) -> MulticastResult:
        """Unicast ``payload_bits`` from ``source`` to ``dest``."""
        network = self.network
        injector = network.fault_injector
        if injector is not None:
            injector.check_route(source, dest)
        return _replay(
            network, unicast_plan(network, source, dest), payload_bits, True
        )
