"""Blocking and contention analysis for the omega network.

The paper's opening problem statement is *network traffic caused by several
processors accessing the global shared memory* (it cites the author's own
contention survey for the details).  The communication-cost metric of eq. 1
counts bits, not collisions -- but the same link-level model supports
asking the contention questions too, and they explain *why* reducing link
traffic (schemes 2/3, the two-mode protocol) matters on a blocking network:

* an omega network is **blocking**: two messages whose paths share a link
  cannot proceed simultaneously.  :func:`conflicting_pairs` finds exactly
  which source/destination pairs of a batch collide, and
  :func:`is_conflict_free` decides whether a permutation can be routed in
  one pass;
* :func:`passable_rounds` greedily schedules a batch into conflict-free
  rounds (a lower-is-better congestion measure);
* :func:`link_load_profile` turns accumulated per-link counters into a
  distribution summary, exposing hot spots such as the tree root of a
  scheme-1 multicast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError
from repro.network.topology import OmegaNetwork
from repro.types import NodeId


Pair = tuple[NodeId, NodeId]


def path_links(
    network: OmegaNetwork, source: NodeId, dest: NodeId
) -> frozenset[tuple[int, int]]:
    """The ``(level, position)`` link keys of one path."""
    return frozenset(
        (level, position)
        for level, position in enumerate(
            network.route_positions(source, dest)
        )
    )


def conflicting_pairs(
    network: OmegaNetwork, pairs: Sequence[Pair]
) -> list[tuple[Pair, Pair]]:
    """All batch-internal collisions: pairs whose paths share a link.

    Sources must be distinct and destinations must be distinct (two
    messages from one port, or to one port, trivially collide at the
    endpoint link; the interesting question is interior blocking).
    """
    _check_batch(network, pairs)
    paths = [(pair, path_links(network, *pair)) for pair in pairs]
    collisions = []
    for index, (first_pair, first_path) in enumerate(paths):
        for second_pair, second_path in paths[index + 1 :]:
            if first_path & second_path:
                collisions.append((first_pair, second_pair))
    return collisions


def is_conflict_free(
    network: OmegaNetwork, pairs: Sequence[Pair]
) -> bool:
    """Whether the batch can be routed simultaneously (no shared link)."""
    return not conflicting_pairs(network, pairs)


def passable_rounds(
    network: OmegaNetwork, pairs: Sequence[Pair]
) -> list[list[Pair]]:
    """Greedy schedule of a batch into conflict-free rounds.

    Each round is a set of pairs whose paths are link-disjoint; every pair
    appears in exactly one round.  The round count is a simple congestion
    measure: 1 means the batch passes like a crossbar, larger values
    quantify the omega network's blocking.
    """
    _check_batch(network, pairs)
    remaining = [(pair, path_links(network, *pair)) for pair in pairs]
    rounds: list[list[Pair]] = []
    while remaining:
        used: set[tuple[int, int]] = set()
        this_round: list[Pair] = []
        deferred = []
        for pair, path in remaining:
            if path & used:
                deferred.append((pair, path))
            else:
                used |= path
                this_round.append(pair)
        rounds.append(this_round)
        remaining = deferred
    return rounds


def identity_is_passable(network: OmegaNetwork) -> bool:
    """The identity permutation routes in one pass on an omega network."""
    pairs = [(port, port) for port in range(network.n_ports)]
    return is_conflict_free(network, pairs)


@dataclass(frozen=True)
class LinkLoadProfile:
    """Distribution summary of per-link bit counters."""

    total_bits: int
    n_links: int
    busiest_bits: int
    busiest_link: tuple[int, int]
    mean_bits: float

    @property
    def imbalance(self) -> float:
        """Busiest-link load over mean load (1.0 = perfectly even)."""
        if self.mean_bits == 0:
            return 0.0
        return self.busiest_bits / self.mean_bits


def link_load_profile(network: OmegaNetwork) -> LinkLoadProfile:
    """Summarise the accumulated per-link traffic of a network."""
    utilization = getattr(network, "link_utilization", None)
    if utilization is not None:
        # Scan the flat counter buffer (slot = level * N + pos, the same
        # level-major order iter_links yields, so ties resolve
        # identically) instead of touching every Link view; fetched
        # through the network, which first walks what a replay only priced.
        bits = utilization().bits
        n_links = len(bits)
        total = sum(bits)
        busiest_slot = max(range(n_links), key=bits.__getitem__)
        n_ports = network.n_ports
        return LinkLoadProfile(
            total_bits=total,
            n_links=n_links,
            busiest_bits=bits[busiest_slot],
            busiest_link=(busiest_slot // n_ports, busiest_slot % n_ports),
            mean_bits=total / n_links if n_links else 0.0,
        )
    links = list(network.iter_links())
    total = sum(link.bits for link in links)
    busiest = max(links, key=lambda link: link.bits)
    return LinkLoadProfile(
        total_bits=total,
        n_links=len(links),
        busiest_bits=busiest.bits,
        busiest_link=busiest.key,
        mean_bits=total / len(links) if links else 0.0,
    )


def _check_batch(network: OmegaNetwork, pairs: Sequence[Pair]) -> None:
    sources = [source for source, _ in pairs]
    dests = [dest for _, dest in pairs]
    for port in (*sources, *dests):
        if not 0 <= port < network.n_ports:
            raise ConfigurationError(
                f"port {port} outside 0..{network.n_ports - 1}"
            )
    if len(set(sources)) != len(sources):
        raise ConfigurationError(
            f"batch has duplicate sources: {sorted(sources)}"
        )
    if len(set(dests)) != len(dests):
        raise ConfigurationError(
            f"batch has duplicate destinations: {sorted(dests)}"
        )
