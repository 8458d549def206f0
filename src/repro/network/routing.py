"""Destination-tag unicast routing (the basis of multicast scheme 1).

Lawrie's routing scheme for omega networks: the routing tag is the ``m``-bit
destination address ``d_0 d_1 ... d_{m-1}``; switch stage ``i`` forwards to
output ``d_i`` and strips that bit.  A message of ``M`` payload bits therefore
places ``M + (m - i)`` bits on its link at level ``i`` -- the term summed in
eq. 2 of the paper.

A unicast is the one-destination send: the ``(level, position)`` path and
its tag remainders depend only on ``(source, dest)``, so :func:`unicast`
builds a :class:`~repro.network.routeplan.RoutePlan` once per pair (stored
in the network's plan cache) and replays it exactly as a multicast's plan
is replayed, returning the same
:class:`~repro.network.multicast.MulticastResult` -- identical loads,
identical counter increments -- on every subsequent call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.network.message import Message
from repro.network.routeplan import RoutePlan
from repro.network.topology import OmegaNetwork
from repro.types import NodeId

if TYPE_CHECKING:
    from repro.network.multicast import MulticastResult


def tag_bits_scheme1(network: OmegaNetwork, level: int) -> int:
    """Routing-tag bits still attached at link level ``level`` (scheme 1)."""
    if not 0 <= level <= network.n_stages:
        raise ValueError(
            f"level must be in 0..{network.n_stages}, got {level}"
        )
    return network.n_stages - level


def route_path(
    network: OmegaNetwork, source: NodeId, dest: NodeId
) -> list[tuple[int, int]]:
    """The ``(level, position)`` link keys from ``source`` to ``dest``."""
    return [
        (level, position)
        for level, position in enumerate(
            network.route_positions(source, dest)
        )
    ]


def build_unicast_plan(
    network: OmegaNetwork, source: NodeId, dest: NodeId
) -> RoutePlan:
    """The payload-independent plan of one destination-tag unicast.

    Validates both ports (once each, via
    :meth:`OmegaNetwork.route_positions`, whose walk is then unchecked),
    so a plan-cache hit may skip re-validation.
    """
    positions = network.route_positions(source, dest)
    m = network.n_stages
    entries = [
        (level, position, m - level, level - 1 if level > 0 else None)
        for level, position in enumerate(positions)
    ]
    # The switch traversed at stage i only rewrites the low bit of the
    # shuffled position, so it is identified by its *output* position,
    # which is the level-(i+1) link position.
    switch_ops = [
        (stage, positions[stage + 1] // 2, False) for stage in range(m)
    ]
    return RoutePlan(
        None,
        source,
        frozenset((dest,)),
        frozenset((dest,)),
        entries,
        switch_ops,
        n_ports=network.n_ports,
        n_switches_per_stage=network.n_ports // 2,
    )


def unicast_plan(
    network: OmegaNetwork, source: NodeId, dest: NodeId
) -> RoutePlan:
    """The (memoised) route plan from ``source`` to ``dest``."""
    cache = network.route_plans
    if cache is None:
        return build_unicast_plan(network, source, dest)
    key = ("u", source, dest)
    plan = cache.get(key)
    if plan is None:
        plan = build_unicast_plan(network, source, dest)
        cache.put(key, plan)
    return plan


def unicast(
    network: OmegaNetwork,
    message: Message,
    dest: NodeId,
    *,
    commit: bool = True,
) -> MulticastResult:
    """Route ``message`` from its source to ``dest``, accounting traffic.

    The result is the one-destination
    :class:`~repro.network.multicast.MulticastResult` (scheme 1) that
    :meth:`~repro.network.multicast.Multicaster.send_payload_one` returns
    for the same pair.  With ``commit=True`` (the default) the traversed
    links and switches accumulate the traffic; with ``commit=False`` the
    result is computed without touching any counter (a "what would this
    cost" probe).
    """
    # Imported here: the multicast layer is built on this module.
    from repro.network.multicast import _replay

    plan = unicast_plan(network, message.source, dest)
    return _replay(network, plan, message.payload_bits, commit)
