"""Unit tests for the omega-network structure."""

import pytest

from repro.errors import ConfigurationError
from repro.network.topology import OmegaNetwork


class TestConstruction:
    def test_stage_count_is_log2(self):
        assert OmegaNetwork(2).n_stages == 1
        assert OmegaNetwork(8).n_stages == 3
        assert OmegaNetwork(1024).n_stages == 10

    @pytest.mark.parametrize("bad", [0, 1, 3, 6, 12, 100, -8])
    def test_rejects_non_power_of_two(self, bad):
        with pytest.raises(ConfigurationError):
            OmegaNetwork(bad)

    def test_link_count_per_level(self):
        net = OmegaNetwork(8)
        for level in range(net.n_stages + 1):
            positions = {net.link(level, p).position for p in range(8)}
            assert positions == set(range(8))

    def test_switch_count_per_stage(self):
        net = OmegaNetwork(16)
        switches = list(net.iter_switches())
        assert len(switches) == net.n_stages * 8

    def test_total_links(self):
        net = OmegaNetwork(16)
        assert len(list(net.iter_links())) == (net.n_stages + 1) * 16

    def test_view_objects_are_built_on_first_access_and_kept(self):
        # A replay accounts through the flat buffers; the Link / Switch
        # views over them exist once somebody asks for one.
        net = OmegaNetwork(8)
        assert net._links is None and net._switches is None
        link = net.link(2, 5)
        assert net._switches is None
        assert net.link(2, 5) is link
        assert link in list(net.iter_links())
        assert net.route_links(0, 5)[0] is net.link(0, 0)
        switch = net.switch(1, 3)
        assert net.switch(1, 3) is switch
        assert net.switch_for_position(1, 7) is switch
        assert switch in list(net.iter_switches())
        # Views made late still read traffic accounted before them.
        late = OmegaNetwork(8)
        late._link_bits[2 * 8 + 5] += 11
        assert late.link(2, 5).bits == 11


class TestShuffle:
    def test_shuffle_is_rotate_left(self):
        net = OmegaNetwork(8)  # 3-bit positions
        assert net.shuffle(0b001) == 0b010
        assert net.shuffle(0b100) == 0b001
        assert net.shuffle(0b110) == 0b101

    def test_shuffle_is_permutation(self):
        net = OmegaNetwork(32)
        assert sorted(net.shuffle(p) for p in range(32)) == list(range(32))

    def test_inverse_shuffle_inverts(self):
        net = OmegaNetwork(64)
        for position in range(64):
            assert net.inverse_shuffle(net.shuffle(position)) == position
            assert net.shuffle(net.inverse_shuffle(position)) == position

    def test_m_shuffles_are_identity(self):
        net = OmegaNetwork(16)
        for position in range(16):
            value = position
            for _ in range(net.n_stages):
                value = net.shuffle(value)
            assert value == position


class TestRouting:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_every_pair_routes_to_destination(self, n):
        net = OmegaNetwork(n)
        for source in range(n):
            for dest in range(n):
                positions = net.route_positions(source, dest)
                assert positions[0] == source
                assert positions[-1] == dest
                assert len(positions) == net.n_stages + 1

    def test_route_links_touch_each_level_once(self):
        net = OmegaNetwork(16)
        links = net.route_links(3, 12)
        assert [link.level for link in links] == list(
            range(net.n_stages + 1)
        )

    def test_destination_bit_is_msb_first(self):
        net = OmegaNetwork(8)
        assert net.destination_bit(0b110, 0) == 1
        assert net.destination_bit(0b110, 1) == 1
        assert net.destination_bit(0b110, 2) == 0

    def test_same_destination_paths_converge(self):
        # All paths to one destination share the final link.
        net = OmegaNetwork(8)
        finals = {
            net.route_positions(source, 5)[-1] for source in range(8)
        }
        assert finals == {5}

    def test_out_of_range_ports_rejected(self):
        net = OmegaNetwork(8)
        with pytest.raises(ConfigurationError):
            net.route_positions(8, 0)
        with pytest.raises(ConfigurationError):
            net.route_positions(0, -1)


class TestValidateOncePerPlan:
    """Plan builders check their ports at entry, not on every hop."""

    def test_public_walks_keep_their_checks_and_messages(self):
        net = OmegaNetwork(8)
        for call, message in [
            (lambda: net.shuffle(8), r"port 8 outside 0\.\.7"),
            (lambda: net.route_positions(0, -1), r"port -1 outside 0\.\.7"),
            (lambda: net.destination_bit(9, 0), r"port 9 outside 0\.\.7"),
            (lambda: net.destination_bit(0, 3), r"stage 3 outside 0\.\.2"),
        ]:
            with pytest.raises(ConfigurationError, match=message):
                call()

    def test_unchecked_walk_matches_the_checked_one(self):
        net = OmegaNetwork(64)
        for source in (0, 21, 63):
            assert net._shuffle(source) == net.shuffle(source)
            for dest in (0, 42, 63):
                positions = [source]
                for stage in range(net.n_stages):
                    low = net.destination_bit(dest, stage)
                    positions.append((net.shuffle(positions[-1]) & ~1) | low)
                assert net._route_positions(source, dest) == positions
                assert net.route_positions(source, dest) == positions

    def test_builders_check_ports_once_per_plan(self, monkeypatch):
        from repro.network.multicast import Multicaster, MulticastScheme

        checks = []
        check_port = OmegaNetwork._check_port

        def counting(self, port):
            checks.append(port)
            check_port(self, port)

        monkeypatch.setattr(OmegaNetwork, "_check_port", counting)
        net = OmegaNetwork(1024)
        # One unicast plan per (source, dest), shared by every scheme.
        Multicaster(net).send_payload_one(3, 20, 900)
        Multicaster(net).send_payload_one(3, 20, 900)
        assert sorted(checks) == [3, 900]
        for scheme in MulticastScheme:
            caster = Multicaster(net, scheme)
            del checks[:]
            caster.send_payload(7, 20, frozenset({1, 500, 501, 1023}))
            caster.send_payload(7, 20, frozenset({1, 500, 501, 1023}))
            # Destinations are range-checked as a set; the source once.
            assert checks == [7]


class TestTrafficCounters:
    def test_counters_start_zero(self):
        net = OmegaNetwork(8)
        assert net.total_bits == 0
        assert net.total_messages == 0

    def test_carry_accumulates(self):
        net = OmegaNetwork(8)
        net.link(0, 3).carry(10)
        net.link(0, 3).carry(5)
        net.link(2, 1).carry(7)
        assert net.total_bits == 22
        assert net.total_messages == 3
        assert net.bits_by_level()[0] == 15
        assert net.bits_by_level()[2] == 7

    def test_reset_traffic(self):
        net = OmegaNetwork(8)
        net.link(1, 0).carry(9)
        net.switch(0, 0).record(split=True)
        net.reset_traffic()
        assert net.total_bits == 0
        assert net.switch(0, 0).messages == 0
        assert net.switch(0, 0).splits == 0

    def test_busiest_links_ordering(self):
        net = OmegaNetwork(8)
        net.link(0, 0).carry(1)
        net.link(1, 1).carry(100)
        net.link(2, 2).carry(50)
        top = net.busiest_links(2)
        assert [link.bits for link in top] == [100, 50]

    def test_negative_bits_rejected(self):
        net = OmegaNetwork(8)
        with pytest.raises(ValueError):
            net.link(0, 0).carry(-1)

    def test_bad_link_level_rejected(self):
        net = OmegaNetwork(8)
        with pytest.raises(ConfigurationError):
            net.link(net.n_stages + 1, 0)

    def test_bad_switch_index_rejected(self):
        net = OmegaNetwork(8)
        with pytest.raises(ConfigurationError):
            net.switch(0, 4)
        with pytest.raises(ConfigurationError):
            net.switch(3, 0)
