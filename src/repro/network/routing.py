"""Destination-tag unicast routing (the basis of multicast scheme 1).

Lawrie's routing scheme for omega networks: the routing tag is the ``m``-bit
destination address ``d_0 d_1 ... d_{m-1}``; switch stage ``i`` forwards to
output ``d_i`` and strips that bit.  A message of ``M`` payload bits therefore
places ``M + (m - i)`` bits on its link at level ``i`` -- the term summed in
eq. 2 of the paper.

A unicast is scheme 1 to one destination: :func:`unicast` replays the
plan :func:`~repro.network.multicast.unicast_plan` builds with scheme 1's
own builder (once per ``(source, dest)`` pair, kept in the network's plan
cache), so it returns the same
:class:`~repro.network.multicast.MulticastResult` -- identical loads,
identical counter increments -- as a scheme-1 multicast to ``{dest}``.
"""

from __future__ import annotations

from repro.network.message import Message
from repro.network.multicast import MulticastResult, _replay, unicast_plan
from repro.network.topology import OmegaNetwork
from repro.types import NodeId


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
    plan = unicast_plan(network, message.source, dest)
    return _replay(network, plan, message.payload_bits, commit)
