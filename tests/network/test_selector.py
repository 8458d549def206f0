"""Tests for the §5 break-even registers, a scheme choice by popcount."""

import pytest

from repro.errors import ConfigurationError
from repro.network import cost
from repro.network.message import Message
from repro.network.multicast import (
    Multicaster,
    MulticastScheme,
    multicast_combined,
)
from repro.network.selector import (
    BreakEvenRegisters,
    compile_registers,
    register_table,
)
from repro.network.topology import OmegaNetwork
from repro.runner.spec import ExperimentSpec, WorkloadSpec
from repro.sim.system import System, SystemConfig


class TestCompileRegisters:
    def test_thresholds_are_ordered(self):
        registers = compile_registers(1024, 128, 20)
        assert registers.scheme2_threshold <= registers.scheme3_threshold

    def test_choice_matches_closed_form_winner_at_powers(self):
        """For power-of-two counts inside the partition, the register
        decision must equal the cheapest-scheme computation."""
        registers = compile_registers(1024, 128, 20)
        scheme_by_enum = {
            MulticastScheme.UNICAST: 1,
            MulticastScheme.VECTOR: 2,
            MulticastScheme.BROADCAST_TAG: 3,
        }
        n = 1
        while n <= 128:
            chosen = scheme_by_enum[registers.choose(n)]
            cheapest = cost.cheapest_scheme(n, 128, 1024, 20)
            # The register decision is monotone (thresholded); the true
            # winner is too for these parameters, so they agree exactly.
            assert chosen == cheapest
            n *= 2

    def test_scheme2_never_wins_with_huge_messages_on_tiny_partitions(self):
        # For n1 = 1 the only destination counts are 1; scheme 1 must win.
        registers = compile_registers(64, 1, 20)
        assert registers.choose(1) is MulticastScheme.UNICAST

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            compile_registers(3, 1, 20)
        with pytest.raises(ConfigurationError):
            compile_registers(64, 128, 20)  # partition exceeds N
        with pytest.raises(ConfigurationError):
            compile_registers(64, 16, -1)
        with pytest.raises(ConfigurationError):
            BreakEvenRegisters(64, 16, 20, 4, 8).choose(0)


class TestRegisterMulticaster:
    """A :class:`Multicaster` whose scheme is a register file."""

    def test_small_sets_go_unicast(self):
        net = OmegaNetwork(64)
        caster = Multicaster(net, compile_registers(64, 16, 20))
        result = caster.send(Message(source=0, payload_bits=20), [3])
        assert result.scheme is MulticastScheme.UNICAST

    def test_large_sets_go_scheme3(self):
        net = OmegaNetwork(1024)
        caster = Multicaster(
            net, compile_registers(1024, 128, 20)
        )
        result = caster.send(
            Message(source=0, payload_bits=20), range(128)
        )
        assert result.scheme is MulticastScheme.BROADCAST_TAG
        assert result.delivered == frozenset(range(128))

    def test_empty_send(self):
        net = OmegaNetwork(64)
        caster = Multicaster(net, compile_registers(64, 16, 20))
        result = caster.send(Message(source=0, payload_bits=20), [])
        assert result.cost == 0
        assert result.scheme is MulticastScheme.COMBINED

    def test_network_size_mismatch_rejected(self):
        net = OmegaNetwork(64)
        with pytest.raises(ConfigurationError):
            Multicaster(net, compile_registers(128, 16, 20))
        with pytest.raises(ConfigurationError):
            System(
                SystemConfig(
                    n_nodes=64, multicast_scheme=compile_registers(128, 16, 20)
                )
            )

    def test_one_destination_is_a_plain_unicast(self):
        # Hand-built registers that would pick scheme 2 for a single
        # destination: one destination is a unicast under every scheme.
        net = OmegaNetwork(64)
        caster = Multicaster(net, BreakEvenRegisters(64, 16, 20, 1, 8))
        result = caster.send(Message(source=0, payload_bits=20), [3])
        assert result.scheme is MulticastScheme.UNICAST

    def test_a_fixed_scheme_chooses_itself(self):
        for scheme in MulticastScheme:
            assert scheme.choose(1) is scheme is scheme.choose(1024)

    def test_compiled_registers_send_one_destination_by_unicast(self):
        network_size = 4
        while network_size <= 2048:
            n_partition = 1
            while n_partition <= network_size:
                for message_bits in (0, 20, 60, 200):
                    registers = compile_registers(
                        network_size, n_partition, message_bits
                    )
                    assert registers.choose(1) is MulticastScheme.UNICAST
                n_partition *= 2
            network_size *= 2

    def test_a_spec_refuses_registers(self):
        config = SystemConfig(
            n_nodes=64, multicast_scheme=compile_registers(64, 16, 20)
        )
        workload = WorkloadSpec(
            "markov", 64, 100, 0.3, tasks=tuple(range(16))
        )
        with pytest.raises(ConfigurationError, match="MulticastScheme"):
            ExperimentSpec("two-mode", workload, config)

    def test_register_decision_close_to_probing_oracle(self):
        """The whole §5 point: an O(1) popcount decision should recover
        nearly all of the probing combined scheme's savings for
        destinations inside the partition."""
        net = OmegaNetwork(256)
        registers = compile_registers(256, 32, 20)
        caster = Multicaster(net, registers)
        message = Message(source=7, payload_bits=20)
        register_total = 0
        probing_total = 0
        for n in (1, 2, 4, 8, 16, 32):
            dests = cost.spread_in_partition_placement(256, n, 32)
            by_registers = caster.send(message, dests).cost
            by_probing = multicast_combined(
                net, message, dests, commit=False
            ).cost
            # Per message the registers may be off near a threshold (they
            # compare worst-case closed forms, the probe measures the
            # actual placement) but never catastrophically.
            assert by_registers <= by_probing * 2
            register_total += by_registers
            probing_total += by_probing
        assert register_total <= probing_total * 1.3


class TestRegisterTable:
    def test_rows_cover_the_grid(self):
        rows = register_table(1024, partitions=(16, 128),
                              message_sizes=(0, 20))
        assert len(rows) == 4

    def test_thresholds_shrink_with_message_size(self):
        # Bigger messages favour scheme 2 earlier (§3.2 claim, through
        # the registers).
        rows = {
            (n1, m): s2
            for n1, m, s2, _ in register_table(
                1024, partitions=(128,), message_sizes=(0, 20, 60)
            )
        }
        assert rows[(128, 60)] <= rows[(128, 20)] <= rows[(128, 0)]
