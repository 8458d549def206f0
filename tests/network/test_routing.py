"""Unit tests for destination-tag unicast routing and its cost model."""

import pytest

from repro.errors import ConfigurationError
from repro.network import cost
from repro.network.message import Message
from repro.network.multicast import (
    Multicaster,
    MulticastScheme,
    multicast_plan_for,
    multicast_scheme1,
)
from repro.network.routing import (
    route_path,
    tag_bits_scheme1,
    unicast,
)
from repro.network.topology import OmegaNetwork


class TestTagBits:
    def test_tag_shrinks_one_bit_per_stage(self):
        net = OmegaNetwork(16)
        assert [tag_bits_scheme1(net, level) for level in range(5)] == [
            4,
            3,
            2,
            1,
            0,
        ]

    def test_out_of_range_level(self):
        net = OmegaNetwork(16)
        with pytest.raises(ValueError):
            tag_bits_scheme1(net, 5)


class TestUnicast:
    def test_cost_matches_eq2_single_destination(self):
        for n_ports in (4, 16, 256):
            net = OmegaNetwork(n_ports)
            for payload in (0, 7, 20):
                result = unicast(
                    net,
                    Message(source=1, payload_bits=payload),
                    dest=2 % n_ports,
                    commit=False,
                )
                assert result.cost == cost.cc1(1, n_ports, payload)

    def test_loads_cover_all_levels(self):
        net = OmegaNetwork(8)
        result = unicast(
            net, Message(source=0, payload_bits=4), dest=6, commit=False
        )
        assert [load.level for load in result.loads] == [0, 1, 2, 3]
        # Level 0 carries the full 3-bit tag, the final level none.
        assert result.loads[0].bits == 4 + 3
        assert result.loads[-1].bits == 4

    def test_commit_updates_link_counters(self):
        net = OmegaNetwork(8)
        result = unicast(net, Message(source=2, payload_bits=10), dest=5)
        assert net.total_bits == result.cost
        for load in result.loads:
            assert net.link(load.level, load.position).bits == load.bits

    def test_commit_false_leaves_counters_untouched(self):
        net = OmegaNetwork(8)
        unicast(net, Message(source=2, payload_bits=10), dest=5, commit=False)
        assert net.total_bits == 0
        assert all(s.messages == 0 for s in net.iter_switches())

    def test_commit_records_one_switch_per_stage(self):
        net = OmegaNetwork(8)
        unicast(net, Message(source=0, payload_bits=1), dest=7)
        assert sum(s.messages for s in net.iter_switches()) == net.n_stages

    def test_route_path_matches_topology(self):
        net = OmegaNetwork(16)
        keys = route_path(net, 3, 9)
        assert keys == [
            (level, position)
            for level, position in enumerate(net.route_positions(3, 9))
        ]

    def test_source_equals_destination_still_traverses(self):
        # The dance-hall model: even a port-to-itself message crosses the
        # fabric (m + 1 link loads).
        net = OmegaNetwork(8)
        result = unicast(
            net, Message(source=4, payload_bits=0), dest=4, commit=False
        )
        assert len(result.loads) == net.n_stages + 1


class TestUnicastIsSchemeOne:
    """A unicast is the scheme-1 plan to one destination."""

    @pytest.mark.parametrize("n_ports", [2, 4, 8, 16, 32])
    def test_every_pair_equals_scheme1_to_one_destination(self, n_ports):
        net = OmegaNetwork(n_ports)
        for source in range(n_ports):
            for dest in range(n_ports):
                message = Message(source=source, payload_bits=20)
                result = unicast(net, message, dest, commit=False)
                assert result.scheme is MulticastScheme.UNICAST
                assert result == multicast_scheme1(
                    net, message, frozenset((dest,)), commit=False
                )

    def test_kept_under_its_own_key_and_not_counted_as_a_walk(self):
        net = OmegaNetwork(8)
        unicast(net, Message(source=1, payload_bits=20), dest=6)
        assert list(net.route_plans.keys()) == [("u", 1, 6)]
        assert net.route_plans.stats()["walks"] == 0


def _counters(net):
    links, switches = net.link_utilization(), net.switch_utilization()
    return (
        net.total_bits, net.total_messages, links.bits.tolist(),
        links.messages.tolist(), switches.messages.tolist(),
        switches.splits.tolist(),
    )


ONE_DESTINATION_ENTRIES = {
    "unicast": lambda net, source, dest: unicast(
        net, Message(source=source, payload_bits=20), dest
    ),
    "send_payload_one": lambda net, source, dest: Multicaster(
        net
    ).send_payload_one(source, 20, dest),
    "multicast_plan_for": lambda net, source, dest: multicast_plan_for(
        net, MulticastScheme.COMBINED, source, frozenset((dest,)), 20
    ),
}


class TestPortContract:
    """Out-of-range ports are refused alike by every one-destination
    entry, cached or cold, on every call, before anything is counted."""

    @pytest.mark.parametrize("cached", [True, False], ids=["cached", "cold"])
    @pytest.mark.parametrize("entry", list(ONE_DESTINATION_ENTRIES))
    @pytest.mark.parametrize(
        "source, dest, text",
        [(-1, 3, "port -1 outside 0..7"), (2, 8, "port 8 outside 0..7")],
        ids=["source", "dest"],
    )
    def test_refused_on_first_and_repeated_calls(
        self, entry, cached, source, dest, text
    ):
        net = OmegaNetwork(8)
        if not cached:
            net.route_plans = None
        call = ONE_DESTINATION_ENTRIES[entry]
        before = _counters(net)
        for _ in range(2):
            with pytest.raises(ConfigurationError) as raised:
                call(net, source, dest)
            assert str(raised.value) == text
        assert _counters(net) == before
        if cached:
            assert len(net.route_plans) == 0  # nothing invalid was kept
        call(net, 2, 3)  # a valid pair still goes through
