"""The omega multistage interconnection network.

An ``N x N`` omega network (Lawrie, 1975) consists of ``m = log2 N``
identical stages; each stage is a perfect-shuffle permutation of the ``N``
positions followed by a column of ``N / 2`` two-by-two switches.  The network
provides a path from every input to every output, selected by the
*destination-tag* property: at stage ``i`` the message leaves the switch on
output ``d_i``, the ``i``-th most significant bit of the destination address.

Figure 3 of the paper views the paths from one source to all destinations as
a binary tree; this module materialises that structure with explicit
:class:`~repro.network.link.Link` and :class:`~repro.network.switch.Switch`
objects so that the communication-cost metric of eq. 1 (bits summed over all
links) can be measured rather than only computed from closed forms.

Port conventions
----------------
The multiprocessor attaches cache ``j`` *and* memory module ``j`` to port
``j`` (a dance-hall arrangement): every message between distinct nodes --
cache to cache, cache to memory, memory to cache -- traverses the full
``m``-stage fabric once.  A message whose source and destination ports are
equal (for example a memory module replying to its local cache, which cannot
happen in this system but is allowed by the API) still traverses the network,
matching the paper's cost model in which every global access crosses the
network.

Accounting layout
-----------------
All traffic counters live in four flat ``array('q')`` buffers owned by the
network (link bits, link messages, switch messages, switch splits); the
:class:`~repro.network.link.Link` and :class:`~repro.network.switch.Switch`
objects are views into them, so per-object reads and the bulk fast path
(:meth:`OmegaNetwork.apply_plan_traffic`, which replays a memoised
:class:`~repro.network.routeplan.RoutePlan`) always agree.  The network
also owns the :class:`~repro.network.routeplan.RoutePlanCache` that the
routing and multicast layers memoise their plans in; plans describe wiring,
not traffic, so :meth:`reset_traffic` clears the counters but not the
plans.

The message ledger
------------------
Between :meth:`OmegaNetwork.open_window` and
:meth:`OmegaNetwork.close_window` (a protocol opens one for the length of
a :func:`~repro.sim.engine.run_trace` replay) a protocol message is not
sent but *posted*: the ledger counts each distinct ``(kind, source,
dests, payload)``.  Settling -- at the close, or before any read through
the accessors below -- prices the ledger by closed form: a unicast
crosses every level whatever its ports, so unicasts are priced once per
``(kind, payload)``, a multicast by one call per distinct message
(:func:`~repro.network.multicast.message_levels`).  The bits reach the
window's ``account`` sink once per kind and the network's per-level
totals, which is all ``total_bits``, ``bits_by_level()`` and
``total_messages`` need.  The settled ledger is kept as it is, and the
fabric is walked, once per distinct message through
:meth:`apply_plan_traffic_scaled`, only when something reads a link or a
switch.  Array addition commutes, so every reader sees exactly what
per-send accounting would have produced (docs/PERF.md, "The message
path"), also around the window's edges
(``tests/sim/test_link_ledger.py``):

* *an exception mid-trace* -- the window is closed in a ``finally`` and
  settles what was posted, so ledgers and arrays end as per-send
  accounting leaves them at the failing reference;
* *``reset_traffic()`` inside a window* -- messages posted before it are
  counted at the ``account`` sink and absent from the links;
* *a replay tier flushing its deferred hits with no window open* -- the
  flush holds one of its own (or, where none can open, sends them one by
  one), so everything is accounted when the replay returns.
"""

from __future__ import annotations

from array import array
from operator import add, itemgetter
from typing import NamedTuple, Sequence

from repro.errors import ConfigurationError
from repro.network.link import Link
from repro.network.routeplan import RoutePlan, RoutePlanCache
from repro.network.switch import Switch
from repro.types import NodeId, ilog2, is_power_of_two


class LinkUtilization(NamedTuple):
    """Zero-copy view of the per-link counters, row-major by level.

    ``bits[level * n_positions + position]`` is the bit count of the link
    at ``(level, position)``; likewise ``messages``.  Both are
    :class:`memoryview`\\ s over the network's live ``array('q')``
    buffers -- reading tracks ongoing traffic, and nothing is copied.
    (Messages a replay posted to the ledger reach the buffers when a view
    is fetched; a view held across a replay lags until it is fetched
    again.)
    """

    n_levels: int
    n_positions: int
    bits: memoryview
    messages: memoryview


class SwitchUtilization(NamedTuple):
    """Zero-copy view of the per-switch counters, row-major by stage.

    ``messages[stage * n_positions + index]`` is the traversal count of
    the switch at ``(stage, index)``; ``splits`` counts the traversals
    where the multicast tree forked inside that switch.
    """

    n_stages: int
    n_positions: int
    messages: memoryview
    splits: memoryview


class OmegaNetwork:
    """An ``N x N`` omega network of ``2 x 2`` switches with traffic counters.

    Parameters
    ----------
    n_ports:
        Number of input (and output) ports ``N``.  Must be a power of two,
        at least 2.  The paper restricts its analysis to ``2 x 2`` switches;
        so does this model.

    Attributes
    ----------
    n_ports:
        ``N``.
    n_stages:
        ``m = log2 N`` switch stages.  There are ``m + 1`` link levels,
        numbered ``0 .. m`` as in the paper (level ``m`` reaches the
        destination endpoints).
    """

    def __init__(self, n_ports: int) -> None:
        if n_ports < 2 or not is_power_of_two(n_ports):
            raise ConfigurationError(
                f"an omega network needs a power-of-two port count >= 2, "
                f"got {n_ports}"
            )
        self.n_ports = n_ports
        self.n_stages = ilog2(n_ports)
        n_links = (self.n_stages + 1) * n_ports
        n_switches = self.n_stages * (n_ports // 2)
        self._link_bits = array("q", bytes(8 * n_links))
        self._link_messages = array("q", bytes(8 * n_links))
        self._switch_messages = array("q", bytes(8 * n_switches))
        self._switch_splits = array("q", bytes(8 * n_switches))
        #: The :class:`Link` / :class:`Switch` view objects, built when
        #: one is first asked for: a replay accounts through the buffers.
        self._links: list[list[Link]] | None = None
        self._switches: list[list[Switch]] | None = None
        #: Memoised route plans for this topology (see
        #: :mod:`repro.network.routeplan`).  Setting this to ``None``
        #: disables memoisation -- every operation re-walks the fabric --
        #: and nothing else: the ledger still opens.  With the message
        #: log on too, every send is walked cold, one by one: the
        #: reference path the tests compare against.
        self.route_plans: RoutePlanCache | None = RoutePlanCache()
        #: Optional :class:`~repro.faults.injector.FaultInjector` attached
        #: by :class:`~repro.sim.system.System` when its fault plan is
        #: non-empty.  The :class:`~repro.network.multicast.Multicaster`
        #: entry points consult it, so the memoised fast path and the
        #: cold path see the exact same faults.  ``None`` = lossless
        #: network, zero overhead.
        self.fault_injector = None
        #: The message ledger: ``(kind, source, dests, payload_bits) ->
        #: posts not yet priced`` while an accounting window is open
        #: (``_window`` holds its multicast scheme and account sink),
        #: ``None`` while it is closed.
        self._ledger: dict[tuple, int] | None = None
        self._window: tuple | None = None
        #: Messages priced but not yet in the arrays -- each settled
        #: ledger as ``(scheme, ledger)`` -- and what they add to each
        #: level's bits and to the link traversals.
        self._unwalked: list[tuple] = []
        self._unwalked_bits = [0] * (self.n_stages + 1)
        self._unwalked_hops = 0

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def shuffle(self, position: int) -> int:
        """Perfect shuffle: rotate the ``m``-bit position left by one.

        This is the wiring pattern in front of every switch stage.
        """
        self._check_port(position)
        return self._shuffle(position)

    def _shuffle(self, position: int) -> int:
        """:meth:`shuffle` for a position already known to be in range."""
        return ((position << 1) | (position >> (self.n_stages - 1))) & (
            self.n_ports - 1
        )

    def inverse_shuffle(self, position: int) -> int:
        """Inverse perfect shuffle: rotate the ``m``-bit position right."""
        self._check_port(position)
        m = self.n_stages
        return ((position >> 1) | ((position & 1) << (m - 1))) & (
            self.n_ports - 1
        )

    def destination_bit(self, dest: NodeId, stage: int) -> int:
        """Bit of ``dest`` consumed by switch stage ``stage`` (MSB first)."""
        self._check_port(dest)
        self._check_stage(stage)
        return (dest >> (self.n_stages - 1 - stage)) & 1

    def link(self, level: int, position: int) -> Link:
        """The link at ``(level, position)``; levels run ``0 .. m``."""
        if not 0 <= level <= self.n_stages:
            raise ConfigurationError(
                f"link level must be in 0..{self.n_stages}, got {level}"
            )
        self._check_port(position)
        self._walk()
        return self._link_views()[level][position]

    def switch(self, stage: int, index: int) -> Switch:
        """The switch at ``(stage, index)``; stages run ``0 .. m-1``."""
        self._check_stage(stage)
        if not 0 <= index < self.n_ports // 2:
            raise ConfigurationError(
                f"switch index must be in 0..{self.n_ports // 2 - 1}, "
                f"got {index}"
            )
        self._walk()
        return self._switch_views()[stage][index]

    def switch_for_position(self, stage: int, position: int) -> Switch:
        """The switch whose input ports include stage position ``position``."""
        self._check_port(position)
        return self.switch(stage, position // 2)

    def iter_links(self):
        """Yield every link, level by level."""
        self._walk()
        for level_links in self._link_views():
            yield from level_links

    def iter_switches(self):
        """Yield every switch, stage by stage."""
        self._walk()
        for stage_switches in self._switch_views():
            yield from stage_switches

    def _link_views(self) -> list[list[Link]]:
        if self._links is None:
            counters = (self._link_bits, self._link_messages)
            n_ports = self.n_ports
            self._links = [
                [
                    Link(
                        level,
                        position,
                        counters=counters,
                        slot=level * n_ports + position,
                    )
                    for position in range(n_ports)
                ]
                for level in range(self.n_stages + 1)
            ]
        return self._links

    def _switch_views(self) -> list[list[Switch]]:
        if self._switches is None:
            counters = (self._switch_messages, self._switch_splits)
            per_stage = self.n_ports // 2
            self._switches = [
                [
                    Switch(
                        stage,
                        index,
                        counters=counters,
                        slot=stage * per_stage + index,
                    )
                    for index in range(per_stage)
                ]
                for stage in range(self.n_stages)
            ]
        return self._switches

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def route_positions(self, source: NodeId, dest: NodeId) -> list[int]:
        """Positions occupied by a message at link levels ``0 .. m``.

        Element ``0`` is the source port; element ``i`` (``i >= 1``) is the
        position of the link entering stage ``i`` (or, for ``i == m``, the
        destination port).  The destination-tag property guarantees the last
        element equals ``dest``.
        """
        self._check_port(source)
        self._check_port(dest)
        return self._route_positions(source, dest)

    def _route_positions(self, source: NodeId, dest: NodeId) -> list[int]:
        """:meth:`route_positions` for ports already known to be in range.

        The plan builders validate a plan's source and destinations once
        and walk with this; every intermediate position is an ``m``-bit
        rotation of an in-range one, in range by construction.
        """
        shuffle = self._shuffle
        positions = [source]
        x = source
        for bit in range(self.n_stages - 1, -1, -1):  # MSB first
            x = (shuffle(x) & ~1) | ((dest >> bit) & 1)
            positions.append(x)
        return positions

    def route_links(self, source: NodeId, dest: NodeId) -> list[Link]:
        """The ``m + 1`` links traversed from ``source`` to ``dest``."""
        self._walk()
        links = self._link_views()
        return [
            links[level][position]
            for level, position in enumerate(self.route_positions(source, dest))
        ]

    # ------------------------------------------------------------------
    # Traffic accounting
    # ------------------------------------------------------------------

    def reset_traffic(self) -> None:
        """Zero every link and switch counter.

        Inside an open accounting window the messages posted so far are
        settled first, so their kinds' bits still reach the window's
        account sink, and then dropped with the counters (the window
        stays open): a reset means "no traffic on the links so far",
        walked or not.  Memoised route plans survive: they describe the
        network's wiring, which a traffic reset does not change.
        """
        self._settle()
        self._unwalked.clear()
        self._unwalked_bits = [0] * (self.n_stages + 1)
        self._unwalked_hops = 0
        for buffer in (
            self._link_bits,
            self._link_messages,
            self._switch_messages,
            self._switch_splits,
        ):
            buffer[:] = array("q", bytes(8 * len(buffer)))

    def open_window(self, scheme, account) -> dict[tuple, int]:
        """Start a message ledger and return it for the caller to post in.

        A post is ``ledger[kind, source, dests, payload_bits] += 1`` with
        ``dests`` a port (a unicast) or a frozenset, multicast under
        ``scheme``; settling calls ``account(kind, bits, messages)`` once
        per kind, in first-post order.  Whoever opens a window
        closes it in a ``finally``; outside one, traffic reaches the
        arrays send by send.  Pricing and the walk need no plan cache:
        with ``route_plans = None`` they only memoise nothing.
        """
        self._window = (scheme, account)
        self._ledger = {}
        return self._ledger

    def close_window(self) -> None:
        """Settle the ledger and stop taking posts."""
        try:
            self._settle()
        finally:
            self._ledger = self._window = None

    def _settle(self) -> None:
        """Price every posted message; the window (if any) stays open.

        A unicast crosses all ``m + 1`` levels whatever its ports, so
        unicasts are priced once per ``(kind, payload)``, a multicast by
        one :func:`~repro.network.multicast.message_levels` call, and
        its links are summed per ``(kind, payload, tags)`` and turned
        into bits once per group.  Nothing is accounted until all of it
        is priced and every port is checked.
        """
        ledger = self._ledger
        if not ledger:
            return
        # Imported here: the multicast layer is built on this module.
        from repro.network.multicast import level_tags, message_levels

        scheme, account = self._window
        n_ports = self.n_ports
        # Kinds in first-post order: the key order per-send accounting
        # leaves in ``Stats``.
        spent = dict.fromkeys(map(itemgetter(0), ledger), 0)
        sent = dict.fromkeys(spent, 0)
        # Multicast links by level, summed per (kind, payload, tags).
        multicasts: dict[tuple, Sequence[int]] = {}
        unicasts: dict[tuple, int] = {}
        for (kind, source, dest, bits), count in ledger.items():
            if type(dest) is not int:
                if len(dest) != 1:
                    links, tags = message_levels(
                        self, scheme, source, dest, bits
                    )
                    if count != 1:
                        links = [n_links * count for n_links in links]
                    group = (kind, bits, tags)
                    summed = multicasts.get(group)
                    multicasts[group] = (
                        links if summed is None
                        else list(map(add, summed, links))
                    )
                    sent[kind] += count
                    continue
                (dest,) = dest
            if not (0 <= source < n_ports and 0 <= dest < n_ports):
                self._check_port(source)
                self._check_port(dest)
            group = (kind, bits)
            unicasts[group] = unicasts.get(group, 0) + count
        levels = [0] * (self.n_stages + 1)
        hops = 0
        for (kind, bits, tags), links in multicasts.items():
            on_level = [
                n_links * (bits + tag) for n_links, tag in zip(links, tags)
            ]
            levels = list(map(add, levels, on_level))
            spent[kind] += sum(on_level)
            hops += sum(links)
        tags = level_tags(self.n_stages)[0]
        payload = messages = 0
        for (kind, bits), count in unicasts.items():
            spent[kind] += count * (bits * len(tags) + sum(tags))
            sent[kind] += count
            payload += bits * count
            messages += count
        for kind, bits in spent.items():
            account(kind, bits, sent[kind])
        self._unwalked_bits = [
            unwalked + on_level + payload + tag * messages
            for unwalked, on_level, tag in zip(
                self._unwalked_bits, levels, tags
            )
        ]
        self._unwalked_hops += hops + messages * len(tags)
        self._unwalked.append((scheme, dict(ledger)))
        ledger.clear()

    def _walk(self) -> None:
        """Settle, then put every priced message on its links and switches."""
        self._settle()
        if self._unwalked:
            from repro.network.multicast import multicast_plan_for

            for scheme, entries in self._unwalked:
                for (_, source, dests, bits), count in entries.items():
                    if type(dests) is int:  # a unicast, posted by its port
                        dests = frozenset((dests,))
                    if dests:  # an empty multicast counts, goes nowhere
                        plan = multicast_plan_for(
                            self, scheme, source, dests, bits
                        )
                        self.apply_plan_traffic_scaled(plan, bits, count)
            self._unwalked.clear()
            self._unwalked_bits = [0] * (self.n_stages + 1)
            self._unwalked_hops = 0

    def apply_plan_traffic(self, plan: RoutePlan, payload_bits: int) -> None:
        """Account one replay of ``plan`` carrying ``payload_bits`` payload.

        Increments exactly the counters the plan's original switch-by-switch
        walk would have: every link load adds ``payload_bits`` plus its tag
        remainder (and one message), every switch traversal adds one message
        (and one split where the tree forked).
        """
        self.apply_plan_traffic_scaled(plan, payload_bits, 1)

    def apply_plan_traffic_scaled(
        self, plan: RoutePlan, payload_bits: int, count: int
    ) -> None:
        """Account ``count`` identical replays of ``plan`` in one pass.

        Exactly ``count`` successive :meth:`apply_plan_traffic` calls --
        the increments are linear in ``count``, so batched application is
        bit-identical and the walk of a priced message, which knows its
        repeat count up front, skips the per-replay loop.
        """
        bits = self._link_bits
        messages = self._link_messages
        for slot, tag in plan.link_ops:
            bits[slot] += (payload_bits + tag) * count
            messages[slot] += count
        switch_messages = self._switch_messages
        for slot in plan.switch_msg_slots:
            switch_messages[slot] += count
        switch_splits = self._switch_splits
        for slot in plan.switch_split_slots:
            switch_splits[slot] += count

    @property
    def total_bits(self) -> int:
        """Communication cost accumulated so far (eq. 1 over all traffic)."""
        self._settle()
        return sum(self._link_bits) + sum(self._unwalked_bits)

    @property
    def total_messages(self) -> int:
        """Link traversals accumulated so far (each hop of each message)."""
        self._settle()
        return sum(self._link_messages) + self._unwalked_hops

    def bits_by_level(self) -> list[int]:
        """Bits carried per link level, ``[L_0, L_1, ..., L_m]`` of eq. 1."""
        self._settle()
        n = self.n_ports
        return [
            sum(self._link_bits[level * n : (level + 1) * n]) + unwalked
            for level, unwalked in enumerate(self._unwalked_bits)
        ]

    def link_utilization(self) -> LinkUtilization:
        """The per-link counters as a :class:`LinkUtilization` view.

        This is the supported way to read the flat accounting buffers in
        bulk (heatmaps, exports): it hands out ``memoryview``\\ s, never
        copies, so calling it on the hot path costs nothing.  Layout is
        row-major: slot ``level * n_ports + position``.
        """
        self._walk()
        return LinkUtilization(
            self.n_stages + 1,
            self.n_ports,
            memoryview(self._link_bits),
            memoryview(self._link_messages),
        )

    def switch_utilization(self) -> SwitchUtilization:
        """The per-switch counters as a :class:`SwitchUtilization` view.

        Same contract as :meth:`link_utilization`; layout is row-major
        with ``n_ports // 2`` switches per stage.
        """
        self._walk()
        return SwitchUtilization(
            self.n_stages,
            self.n_ports // 2,
            memoryview(self._switch_messages),
            memoryview(self._switch_splits),
        )

    def busiest_links(self, count: int = 8) -> list[Link]:
        """The ``count`` links that carried the most bits (load imbalance)."""
        return sorted(self.iter_links(), key=lambda l: l.bits, reverse=True)[
            :count
        ]

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.n_ports:
            raise ConfigurationError(
                f"port {port} outside 0..{self.n_ports - 1}"
            )

    def _check_stage(self, stage: int) -> None:
        if not 0 <= stage < self.n_stages:
            raise ConfigurationError(
                f"stage {stage} outside 0..{self.n_stages - 1}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OmegaNetwork(n_ports={self.n_ports}, "
            f"n_stages={self.n_stages})"
        )
