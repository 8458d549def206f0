"""Unit tests for the replacement policies."""

import pytest

from repro.cache.replacement import (
    FifoPolicy,
    LruPolicy,
    RandomPolicy,
    make_policy,
)
from repro.errors import ConfigurationError


class TestLru:
    def test_untouched_ways_evicted_first(self):
        policy = LruPolicy(1, 4)
        policy.touch(0, 0)
        policy.touch(0, 2)
        assert policy.choose_victim(0) == 1  # never touched

    def test_least_recent_touch_wins(self):
        policy = LruPolicy(1, 3)
        policy.touch(0, 0)
        policy.touch(0, 1)
        policy.touch(0, 2)
        policy.touch(0, 0)  # refresh way 0
        assert policy.choose_victim(0) == 1

    def test_forget_makes_way_coldest(self):
        policy = LruPolicy(1, 3)
        for way in range(3):
            policy.touch(0, way)
        policy.forget(0, 2)
        assert policy.choose_victim(0) == 2

    def test_sets_are_independent(self):
        policy = LruPolicy(2, 2)
        policy.touch(0, 0)
        policy.touch(1, 1)
        assert policy.choose_victim(0) == 1
        assert policy.choose_victim(1) == 0

    def test_sets_are_built_on_first_use(self):
        # A set nobody touched evicts way 0 first, whichever of the three
        # operations reaches it first.
        policy = LruPolicy(1024, 4)
        assert not any(policy._order)
        assert policy.choose_victim(7) == 0
        assert policy.choose_victim(7) == 0  # choosing is not touching
        policy.touch(9, 0)
        assert policy.choose_victim(9) == 1
        policy.forget(11, 2)
        assert policy.choose_victim(11) == 2
        for way in (2, 0, 1, 3):
            policy.touch(11, way)
        assert policy.choose_victim(11) == 2
        assert [
            index for index, order in enumerate(policy._order) if order
        ] == [7, 9, 11]

    def test_out_of_range_rejected(self):
        policy = LruPolicy(2, 2)
        with pytest.raises(ConfigurationError):
            policy.touch(2, 0)
        with pytest.raises(ConfigurationError):
            policy.touch(0, 2)


class TestFifo:
    def test_round_robin(self):
        policy = FifoPolicy(1, 3)
        assert [policy.choose_victim(0) for _ in range(5)] == [
            0,
            1,
            2,
            0,
            1,
        ]

    def test_touch_does_not_change_order(self):
        policy = FifoPolicy(1, 2)
        policy.touch(0, 1)
        policy.touch(0, 1)
        assert policy.choose_victim(0) == 0


class TestRandom:
    def test_seeded_determinism(self):
        first = RandomPolicy(1, 8, seed=5)
        second = RandomPolicy(1, 8, seed=5)
        picks_a = [first.choose_victim(0) for _ in range(20)]
        picks_b = [second.choose_victim(0) for _ in range(20)]
        assert picks_a == picks_b

    def test_victims_in_range(self):
        policy = RandomPolicy(1, 4, seed=0)
        assert all(
            0 <= policy.choose_victim(0) < 4 for _ in range(50)
        )


class TestFactory:
    def test_builds_each_policy(self):
        assert isinstance(make_policy("lru", 1, 2), LruPolicy)
        assert isinstance(make_policy("FIFO", 1, 2), FifoPolicy)
        assert isinstance(make_policy("random", 1, 2, seed=3), RandomPolicy)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_policy("mru", 1, 2)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            LruPolicy(0, 2)
        with pytest.raises(ConfigurationError):
            FifoPolicy(2, 0)
