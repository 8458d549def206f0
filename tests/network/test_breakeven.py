"""Break-even analysis tests, including the paper's provable claims."""

import pytest

from repro.analysis.figures import table2_data, table3_data, table4_data
from repro.errors import ConfigurationError
from repro.network import cost
from repro.network.breakeven import (
    breakeven_scheme2_vs_scheme1,
    breakeven_scheme3_vs_scheme2,
    cc1_real,
    cc2_prime_real,
    cc2_worst_real,
)


def _powers_up_to(limit):
    value = 1
    while value <= limit:
        yield value
        value *= 2


class TestRealValuedExtensions:
    def test_real_forms_agree_with_integer_forms_at_powers(self):
        for n in (1, 2, 8, 64):
            assert cc1_real(n, 1024, 20) == cost.cc1(n, 1024, 20)
            assert cc2_worst_real(n, 1024, 20) == cost.cc2_worst(
                n, 1024, 20
            )
            assert cc2_prime_real(n, 128, 1024, 20) == cost.cc2_prime(
                n, 128, 1024, 20
            )


class TestScheme2VsScheme1:
    def test_paper_claim_breakeven_exists_for_n_ge_4(self):
        """§3.2: 'There exists an n <= N such that scheme 2 results in
        less communication cost than scheme 1, for N >= 4.'

        At the smallest machine (N=4, M=0) the two schemes *tie* exactly at
        n = N (CC1 = CC2 = 12), so the claim holds non-strictly there and
        strictly everywhere else.
        """
        for network in (4, 8, 64, 256, 1024):
            for m_bits in (0, 20, 40, 100):
                point = breakeven_scheme2_vs_scheme1(network, m_bits)
                exists_nonstrict = any(
                    cost.cc2_worst(n, network, m_bits)
                    <= cost.cc1(n, network, m_bits)
                    for n in _powers_up_to(network)
                )
                assert exists_nonstrict
                if point.first_winning_n is not None:
                    assert point.first_winning_n <= network

    def test_paper_claim_breakeven_decreases_with_message_size(self):
        """§3.2: 'Break-even will decrease when the message size (M)
        increases.'"""
        for network in (64, 256, 1024):
            values = [
                breakeven_scheme2_vs_scheme1(network, m).first_winning_n
                for m in (0, 20, 40, 100, 200)
            ]
            assert values == sorted(values, reverse=True)

    def test_paper_claim_breakeven_increases_with_network_size(self):
        """§3.2: 'Break-even will increase when the number of caches (N)
        increases.'"""
        for m_bits in (0, 20, 100):
            values = [
                breakeven_scheme2_vs_scheme1(n, m_bits).first_winning_n
                for n in (64, 128, 256, 512, 1024)
            ]
            assert values == sorted(values)

    def test_first_winning_n_is_correct_boundary(self):
        point = breakeven_scheme2_vs_scheme1(64, 0)
        n = point.first_winning_n
        assert cost.cc2_worst(n, 64, 0) < cost.cc1(n, 64, 0)
        if n > 1:
            assert cost.cc2_worst(n // 2, 64, 0) >= cost.cc1(n // 2, 64, 0)

    def test_crossover_brackets_first_win(self):
        point = breakeven_scheme2_vs_scheme1(64, 0)
        assert point.crossover is not None
        assert point.crossover <= point.first_winning_n

    def test_crossover_is_a_root(self):
        point = breakeven_scheme2_vs_scheme1(256, 20)
        x = point.crossover
        difference = cc2_worst_real(x, 256, 20) - cc1_real(x, 256, 20)
        assert abs(difference) < 1.0

    def test_small_network_rejected(self):
        with pytest.raises(ConfigurationError):
            breakeven_scheme2_vs_scheme1(2, 20)


class TestScheme3VsScheme2:
    def test_paper_claim_scheme3_eventually_wins(self):
        """§3.4: 'There exists an n <= n1 such that scheme 3 results in
        less communication cost than scheme 2.'"""
        point = breakeven_scheme3_vs_scheme2(128, 1024, 20)
        assert point.first_winning_n is not None
        assert point.first_winning_n <= 128

    def test_paper_claim_breakeven_increases_with_message_size(self):
        """§3.4: break-even between schemes 2 and 3 rises with M."""
        values = [
            breakeven_scheme3_vs_scheme2(128, 1024, m).first_winning_n
            for m in (0, 20, 40, 60)
        ]
        assert values == sorted(values)

    def test_paper_claim_breakeven_decreases_with_network_size(self):
        """§3.4: break-even between schemes 2 and 3 falls with N."""
        values = [
            breakeven_scheme3_vs_scheme2(128, n, 20).first_winning_n
            for n in (256, 512, 1024, 2048)
        ]
        assert values == sorted(values, reverse=True)


class TestTables:
    """Cells of the Table 2-4 builders in :mod:`repro.analysis.figures`."""

    def test_table2_generator_shape(self):
        ours = table2_data().ours
        for cell in ((64, 0), (64, 40), (128, 0), (128, 40)):
            first = breakeven_scheme2_vs_scheme1(*cell).first_winning_n
            assert first is not None
            assert ours[cell] == first

    def test_scheme_choice_table_by_message_size(self):
        table = table3_data(network_size=1024, n_partition=128).ours
        assert {(0, 4), (0, 128), (20, 4), (20, 128)} <= set(table)
        assert table[(20, 4)] == 1  # scheme 1 for few destinations
        assert table[(20, 128)] == 3  # scheme 3 for the full partition

    def test_scheme_choice_table_by_network_size(self):
        table = table4_data(message_bits=20, n_partition=128).ours
        assert table[(256, 128)] == 3
        assert table[(2048, 128)] == 3
