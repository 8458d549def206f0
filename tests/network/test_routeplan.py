"""Route-plan memoisation: bit-identity, isolation, lifecycle.

The contract under test (see repro/network/routeplan.py): replaying a
memoised plan is *indistinguishable* from re-walking the fabric -- same
:class:`MulticastResult` values, same counter increments -- and plans can
never leak across networks or survive into a network they do not describe.
The cold reference path is the same code with ``network.route_plans`` set
to ``None``.
"""

import random

import pytest

from repro.network.link import Link, LinkLoad
from repro.network.message import Message
from repro.network.multicast import (
    Multicaster,
    MulticastScheme,
    multicast_combined,
    multicast_scheme1,
    multicast_scheme2,
    multicast_scheme3,
)
from repro.network.routeplan import RoutePlanCache
from repro.network.routing import unicast
from repro.network.topology import OmegaNetwork
from repro.types import Address, Op, Reference


def _message(source, bits=20):
    return Message(source=source, payload_bits=bits)


SCHEME_CALLS = [
    ("scheme1", lambda net, msg, dests: multicast_scheme1(net, msg, dests)),
    ("scheme2", lambda net, msg, dests: multicast_scheme2(net, msg, dests)),
    (
        "scheme3",
        lambda net, msg, dests: multicast_scheme3(
            net, msg, dests, exact=False
        ),
    ),
    ("combined", lambda net, msg, dests: multicast_combined(net, msg, dests)),
]


class TestCachedEqualsCold:
    """Property-style: memoised results == cold results, counters too."""

    @pytest.mark.parametrize("n_ports", [8, 16, 64])
    @pytest.mark.parametrize("name,send", SCHEME_CALLS, ids=lambda x: "")
    def test_randomized_destsets(self, n_ports, name, send):
        rng = random.Random(n_ports * 1009)
        warm = OmegaNetwork(n_ports)
        cold = OmegaNetwork(n_ports)
        cold.route_plans = None
        for round_index in range(20):
            source = rng.randrange(n_ports)
            size = rng.randint(1, n_ports - 1)
            dests = frozenset(rng.sample(range(n_ports), size))
            payload = rng.choice((0, 20, 84))
            message = _message(source, payload)
            # Twice warm: the second send is guaranteed to replay a plan.
            warm_first = send(warm, message, dests)
            warm_second = send(warm, message, dests)
            cold_first = send(cold, message, dests)
            cold_second = send(cold, message, dests)
            assert warm_first == cold_first, (name, source, dests)
            assert warm_second == cold_second
            assert warm_first == warm_second
        assert warm.total_bits == cold.total_bits
        assert warm.total_messages == cold.total_messages
        assert warm.bits_by_level() == cold.bits_by_level()
        for warm_switch, cold_switch in zip(
            warm.iter_switches(), cold.iter_switches()
        ):
            assert warm_switch.messages == cold_switch.messages
            assert warm_switch.splits == cold_switch.splits

    def test_unicast_cached_equals_cold(self):
        warm = OmegaNetwork(16)
        cold = OmegaNetwork(16)
        cold.route_plans = None
        for source in range(16):
            for dest in (0, 5, 15):
                warm_result = unicast(warm, _message(source), dest)
                cold_result = unicast(cold, _message(source), dest)
                assert warm_result == cold_result
        assert warm.total_bits == cold.total_bits

    def test_replay_preserves_load_order_and_parents(self):
        warm = OmegaNetwork(16)
        cold = OmegaNetwork(16)
        cold.route_plans = None
        dests = frozenset({1, 4, 9, 12})
        message = _message(3)
        multicast_scheme2(warm, message, dests)  # build
        warm_result = multicast_scheme2(warm, message, dests)  # replay
        cold_result = multicast_scheme2(cold, message, dests)
        assert warm_result.loads == cold_result.loads
        parents = [load.parent for load in warm_result.loads]
        assert parents == [load.parent for load in cold_result.loads]


class TestPlanLifecycle:
    def test_reset_traffic_clears_counters_but_keeps_plans(self):
        network = OmegaNetwork(16)
        caster = Multicaster(network)
        caster.send(_message(2), frozenset({5, 9, 11}))
        assert network.total_bits > 0
        plans_before = len(network.route_plans)
        assert plans_before > 0
        network.reset_traffic()
        assert network.total_bits == 0
        assert network.total_messages == 0
        assert all(link.bits == 0 for link in network.iter_links())
        assert len(network.route_plans) == plans_before
        # Replaying after the reset re-accounts exactly one send's worth.
        result = caster.send(_message(2), frozenset({5, 9, 11}))
        assert network.total_bits == result.cost

    def test_plans_do_not_leak_across_topologies(self):
        small = OmegaNetwork(8)
        large = OmegaNetwork(64)
        dests = frozenset({1, 3, 6})
        small_result = multicast_scheme2(small, _message(0), dests)
        large_result = multicast_scheme2(large, _message(0), dests)
        # Same key, different networks: independent caches, different trees.
        assert small.route_plans is not large.route_plans
        assert small_result.loads != large_result.loads
        small_cold = OmegaNetwork(8)
        small_cold.route_plans = None
        assert small_result == multicast_scheme2(
            small_cold, _message(0), dests
        )

    def test_disabled_cache_builds_nothing(self):
        network = OmegaNetwork(16)
        network.route_plans = None
        multicast_combined(network, _message(0), frozenset({3, 7}))
        unicast(network, _message(1), 9)
        assert network.route_plans is None  # nothing resurrects it

    def test_validation_still_raised_on_memoised_entry_points(self):
        from repro.errors import MulticastError

        network = OmegaNetwork(8)
        with pytest.raises(MulticastError):
            multicast_scheme2(network, _message(0), frozenset({99}))
        # ... and again, to prove the invalid set was never cached.
        with pytest.raises(MulticastError):
            multicast_scheme2(network, _message(0), frozenset({99}))

    def test_combined_rechooses_winner_per_payload(self):
        # The break-even between schemes depends on the payload size, so
        # a cached combined record must re-price per message.
        network = OmegaNetwork(64)
        dests = frozenset(range(32))
        small = multicast_combined(network, _message(0, 0), dests)
        large = multicast_combined(network, _message(0, 10_000), dests)
        assert small.cost <= large.cost
        cold = OmegaNetwork(64)
        cold.route_plans = None
        assert small == multicast_combined(cold, _message(0, 0), dests)
        assert large == multicast_combined(cold, _message(0, 10_000), dests)


class TestCombinedAccounting:
    """A destination set under COMBINED: one lookup, one entry, one plan."""

    def test_cold_send_is_one_miss_and_one_entry(self):
        network = OmegaNetwork(64)
        caster = Multicaster(network, MulticastScheme.COMBINED)
        dests = frozenset({3, 7, 40})
        caster.send_payload(0, 20, dests)
        stats = network.route_plans.stats()
        assert (stats["plans"], stats["hits"], stats["misses"]) == (1, 0, 1)
        for _ in range(9):
            caster.send_payload(0, 20, dests)
        stats = network.route_plans.stats()
        assert (stats["plans"], stats["hits"], stats["misses"]) == (1, 9, 1)
        assert stats["hit_rate"] == 0.9
        # One plan was built from the key's entry, at the first send.
        assert stats["walks"] == 1

    def test_record_key_is_scheme_source_destset(self):
        # bench/benchlib/probes.py harvests destination sets by this shape.
        network = OmegaNetwork(64)
        dests = frozenset({3, 7, 40})
        Multicaster(network, MulticastScheme.COMBINED).send_payload(
            5, 20, dests
        )
        assert list(network.route_plans.keys()) == [
            (MulticastScheme.COMBINED, 5, dests)
        ]

    def test_only_winning_candidates_are_ever_built(self):
        network = OmegaNetwork(64)
        caster = Multicaster(network, MulticastScheme.COMBINED)
        dests = frozenset(range(32))
        schemes = {
            caster.send_payload(0, bits, dests).scheme
            for bits in (0, 20, 10_000, 0, 20)
        }
        (record,) = (network.route_plans.get(key) for key in
                     list(network.route_plans.keys()))
        built = {plan.scheme for plan in record.plans if plan is not None}
        assert built == schemes
        assert len(network.route_plans) == 1


class TestRoutePlanCache:
    def test_lru_eviction_bounds_the_cache(self):
        cache = RoutePlanCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b becomes LRU
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert len(cache) == 2
        assert cache.evictions == 1

    def test_stats_track_hits_and_misses(self):
        cache = RoutePlanCache()
        cache.get("missing")
        cache.put("k", object())
        cache.get("k")
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["plans"] == 1
        assert stats["walks"] == 0

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            RoutePlanCache(maxsize=0)


class TestSlots:
    """The hot dataclasses must stay ``__dict__``-free."""

    @pytest.mark.parametrize(
        "instance",
        [
            Link(0, 0),
            LinkLoad(0, 0, 20),
            Message(source=0, payload_bits=20),
            Reference(node=0, op=Op.READ, address=Address(0, 0)),
        ],
        ids=["Link", "LinkLoad", "Message", "Reference"],
    )
    def test_no_instance_dict(self, instance):
        assert not hasattr(instance, "__dict__")

    def test_links_used_counts_distinct_links(self):
        network = OmegaNetwork(8)
        result = multicast_scheme1(network, _message(0), frozenset({3, 5}))
        # Two unicasts share the level-0 source link: loads > links_used.
        assert len(result.loads) == 2 * (network.n_stages + 1)
        keys = {(load.level, load.position) for load in result.loads}
        assert result.links_used == len(keys)
        assert result.links_used < len(result.loads)
