"""Eq. 8 by arithmetic: the closed forms must equal the built plans.

The combined scheme prices schemes 1, 2 and 3 with
:func:`scheme_load_counts` and builds only the winner, so these tests
hold the closed forms against every candidate's *built* plan, and the
chosen winner against ``min`` over the three built plans.  A replay's
message ledger goes further and never builds a plan for a report at all:
:func:`message_levels` must give, level by level, the links and bits the
walked plan's ``loads_for(M)`` put there.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, MulticastError
from repro.network import cost
from repro.network.multicast import (
    Multicaster,
    MulticastScheme,
    message_levels,
    multicast_plan_for,
    scheme_load_counts,
)
from repro.network.topology import OmegaNetwork

CANDIDATES = (
    MulticastScheme.UNICAST,
    MulticastScheme.VECTOR,
    MulticastScheme.BROADCAST_TAG,
)
PAYLOADS = (0, 20, 84, 4096)
ALL_SCHEMES = CANDIDATES + (MulticastScheme.COMBINED,)


@st.composite
def sends(draw):
    """``(n_ports, source, destination set)`` with >= 2 destinations."""
    n_ports = draw(st.sampled_from([8, 64, 256, 1024]))
    port = st.integers(min_value=0, max_value=n_ports - 1)
    # Clustered as well as scattered sets: clusters are where scheme 3's
    # subcube is tight enough to win.
    span = min(n_ports, draw(st.sampled_from([4, 16, n_ports])))
    base = draw(st.integers(min_value=0, max_value=n_ports - span))
    member = st.integers(min_value=base, max_value=base + span - 1)
    dest_set = draw(st.frozensets(member, min_size=2, max_size=24))
    return n_ports, draw(port), dest_set


def _built_plans(n_ports, source, dest_set):
    """Each candidate's plan, built on its own network."""
    return [
        multicast_plan_for(OmegaNetwork(n_ports), scheme, source, dest_set, 0)
        for scheme in CANDIDATES
    ]


@settings(max_examples=150, deadline=None)
@given(sends())
def test_closed_forms_equal_the_built_plans(send):
    n_ports, source, dest_set = send
    counts = scheme_load_counts(OmegaNetwork(n_ports), dest_set)
    plans = _built_plans(n_ports, source, dest_set)
    assert list(counts) == [(plan.n_loads, plan.tag_total) for plan in plans]


@settings(max_examples=150, deadline=None)
@given(sends(), st.sampled_from(PAYLOADS))
def test_winner_is_min_over_built_plans_ties_in_scheme_order(send, payload):
    n_ports, source, dest_set = send
    plans = _built_plans(n_ports, source, dest_set)
    # ``min`` keeps the first minimum: scheme order 1, 2, 3.
    expected = min(plans, key=lambda plan: plan.cost_for(payload))
    network = OmegaNetwork(n_ports)
    chosen = multicast_plan_for(
        network, MulticastScheme.COMBINED, source, dest_set, payload
    )
    assert chosen.scheme is expected.scheme
    assert chosen.link_ops == expected.link_ops
    assert chosen.switch_ops == expected.switch_ops
    result = Multicaster(network, MulticastScheme.COMBINED).send_payload(
        source, payload, dest_set
    )
    assert result.scheme is expected.scheme
    assert result.cost == expected.cost_for(payload)
    assert result.loads == expected.loads_for(payload)
    assert result.requested == dest_set
    assert result.delivered == expected.delivered
    # One destination set, one record holding one plan.
    assert network.route_plans.stats()["plans"] == 1


def test_scheme3_win_keeps_over_delivery():
    # {0, 1, 2} at N=64, M=20: the subcube {0, 1, 2, 3} costs 264 bits,
    # the vector tree 331, three unicasts 483.
    network = OmegaNetwork(64)
    dest_set = frozenset({0, 1, 2})
    result = Multicaster(network, MulticastScheme.COMBINED).send_payload(
        9, 20, dest_set
    )
    assert result.scheme is MulticastScheme.BROADCAST_TAG
    assert result.cost == 264
    assert result.requested == dest_set
    assert result.delivered == frozenset({0, 1, 2, 3})


@settings(max_examples=60, deadline=None)
@given(sends(), st.sampled_from(PAYLOADS))
def test_over_delivery_is_preserved_when_scheme3_wins(send, payload):
    n_ports, source, dest_set = send
    network = OmegaNetwork(n_ports)
    result = Multicaster(network, MulticastScheme.COMBINED).send_payload(
        source, payload, dest_set
    )
    if result.scheme is MulticastScheme.BROADCAST_TAG:
        cube = _built_plans(n_ports, source, dest_set)[2]
        assert result.delivered == cube.delivered
        assert result.delivered >= result.requested
    else:
        assert result.delivered == result.requested


@pytest.mark.parametrize("n_ports", [8, 64, 256, 1024])
def test_closed_forms_agree_with_the_paper_on_its_placements(n_ports):
    network = OmegaNetwork(n_ports)
    for payload in PAYLOADS:
        for n in (2, 4, 8):
            spread = frozenset(cost.worst_case_placement(n_ports, n))
            block = frozenset(cost.adjacent_placement(n_ports, n))
            s1, s2, _ = scheme_load_counts(network, spread)
            assert s1[0] * payload + s1[1] == cost.cc1(n, n_ports, payload)
            assert s2[0] * payload + s2[1] == cost.cc2_worst(
                n, n_ports, payload
            )
            _, _, s3 = scheme_load_counts(network, block)
            assert s3[0] * payload + s3[1] == cost.cc3(n, n_ports, payload)


@pytest.mark.parametrize(
    "scheme", CANDIDATES + (MulticastScheme.COMBINED,),
    ids=lambda scheme: scheme.name.lower(),
)
def test_invalid_ports_raise_before_anything_is_cached(scheme):
    network = OmegaNetwork(8)
    caster = Multicaster(network, scheme)
    with pytest.raises(MulticastError):
        caster.send_payload(0, 20, frozenset({1, 8}))
    with pytest.raises(MulticastError):
        multicast_plan_for(network, scheme, 0, frozenset({-1, 2}), 20)
    with pytest.raises(ConfigurationError):
        caster.send_payload(8, 20, frozenset({1, 2}))
    assert len(network.route_plans) == 0


# ---------------------------------------------------------------------------
# By level: what the message ledger prices without a walk
# ---------------------------------------------------------------------------


def _walked_levels(network, plan, payload):
    """``(links, bits)`` by level, summed from the plan's ``loads_for``."""
    links = [0] * (network.n_stages + 1)
    bits = [0] * (network.n_stages + 1)
    for load in plan.loads_for(payload):
        links[load.level] += 1
        bits[load.level] += load.bits
    return links, bits


def _closed_levels(network, scheme, source, dests, payload):
    links, tags = message_levels(network, scheme, source, dests, payload)
    return list(links), [n * (payload + tag) for n, tag in zip(links, tags)]


def _assert_levels_equal_the_walk(network, source, dest_set, payloads):
    """All four schemes' closed forms against the three walked plans."""
    # A concrete scheme's plan does not depend on the payload.
    plans = [
        multicast_plan_for(network, scheme, source, dest_set, 0)
        for scheme in CANDIDATES
    ]
    for payload in payloads:
        walked = [_walked_levels(network, plan, payload) for plan in plans]
        costs = [plan.cost_for(payload) for plan in plans]
        for scheme, levels, cost in zip(CANDIDATES, walked, costs):
            closed = _closed_levels(
                network, scheme, source, dest_set, payload
            )
            assert closed == levels
            assert sum(closed[1]) == cost
        # Eq. 8's pick and tie-break: the first minimum in scheme order.
        winner = costs.index(min(costs))
        assert walked[winner] == _closed_levels(
            network, MulticastScheme.COMBINED, source, dest_set, payload
        )
        chosen = multicast_plan_for(
            network, MulticastScheme.COMBINED, source, dest_set, payload
        )
        assert chosen.link_ops == plans[winner].link_ops
        if len(dest_set) > 1:
            assert chosen.scheme is CANDIDATES[winner]


@pytest.mark.parametrize("n_ports", [4, 8])
def test_levels_equal_the_walk_exhaustively(n_ports):
    # Every non-empty destination set from every source, schemes 1, 2, 3
    # and COMBINED, M in {0, 20, 84}.
    network = OmegaNetwork(n_ports)
    for size in range(1, n_ports + 1):
        for members in combinations(range(n_ports), size):
            for source in range(n_ports):
                _assert_levels_equal_the_walk(
                    network, source, frozenset(members), PAYLOADS[:3]
                )


@pytest.mark.slow
def test_levels_equal_the_walk_exhaustively_at_16():
    # All 65 535 sets, each from one source (inside the set and outside
    # it by turns: the tree's shape does not depend on the source, only
    # its positions do, and N <= 8 above tries every source) and with
    # one of the three payloads by turns (links and bits are both linear
    # in M, and the links are compared as such).
    network = OmegaNetwork(16)
    turn = 0
    for size in range(1, 17):
        for members in combinations(range(16), size):
            outside = set(range(16)).difference(members)
            source = min(outside) if outside and turn % 2 else members[0]
            _assert_levels_equal_the_walk(
                network, source, frozenset(members), PAYLOADS[turn % 3 :][:1]
            )
            turn += 1


@pytest.mark.parametrize("n_ports", [4, 64])
def test_one_destination_is_priced_as_a_unicast(n_ports):
    network = OmegaNetwork(n_ports)
    for source, dest in [(0, 0), (0, n_ports - 1), (n_ports - 1, 1)]:
        only = frozenset((dest,))
        plan = multicast_plan_for(
            network, MulticastScheme.VECTOR, source, only, 20
        )
        for scheme in ALL_SCHEMES:
            assert _closed_levels(
                network, scheme, source, only, 20
            ) == _walked_levels(network, plan, 20)
    assert all(key[0] == "u" for key in network.route_plans.keys())


def test_no_destination_costs_nothing_on_any_level():
    network = OmegaNetwork(8)
    links, _ = message_levels(
        network, MulticastScheme.VECTOR, 0, frozenset(), 20
    )
    assert list(links) == [0] * (network.n_stages + 1)
    assert len(network.route_plans) == 0


@st.composite
def large_sends(draw):
    """``sends()`` at the sizes the benchmark runs, single sets included."""
    n_ports = draw(st.sampled_from([64, 1024]))
    port = st.integers(min_value=0, max_value=n_ports - 1)
    span = draw(st.sampled_from([4, 16, n_ports]))
    base = draw(st.integers(min_value=0, max_value=n_ports - span))
    member = st.integers(min_value=base, max_value=base + span - 1)
    dest_set = draw(st.frozensets(member, min_size=1, max_size=48))
    return n_ports, draw(port), dest_set


@settings(max_examples=150, deadline=None)
@given(large_sends())
def test_levels_equal_the_walk_at_benchmark_sizes(send):
    n_ports, source, dest_set = send
    _assert_levels_equal_the_walk(
        OmegaNetwork(n_ports), source, dest_set, PAYLOADS
    )
