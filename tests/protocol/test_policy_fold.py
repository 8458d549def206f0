"""The fold contract of :class:`~repro.protocol.modes.ModePolicy`, alone.

``fold`` answers, for a run of references to one block under a fixed
``(mode, n_sharers)``, how many pass before ``decide`` would switch the
mode; ``commit`` then observes that many in one step.  The reference for
both is the loop the protocol runs -- ``observe`` then ``decide``, once
per reference -- and the two must agree exactly: same cut index, same
``_BlockCounters`` afterwards, same set of blocks with counters at all.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.state import Mode
from repro.protocol.modes import (
    AdaptiveModePolicy,
    ModePolicy,
    OracleModePolicy,
    PerBlockModePolicy,
    StaticModePolicy,
    _BlockCounters,
)
from repro.types import Op

BLOCK = 5
MODES = [Mode.GLOBAL_READ, Mode.DISTRIBUTED_WRITE]
COUNTING = [OracleModePolicy, AdaptiveModePolicy]


def loop(policy, ops, visible, mode, n_sharers):
    """The per-reference loop: index of the first switching reference."""
    if visible is None:
        visible = [True] * len(ops)
    for index, (op, seen) in enumerate(zip(ops, visible)):
        policy.observe(
            BLOCK,
            Op.WRITE if op else Op.READ,
            owner_visible=bool(seen),
            mode=mode,
            n_sharers=n_sharers,
        )
        desired = policy.decide(BLOCK, mode, n_sharers)
        if desired is not None and desired is not mode:
            return index
    return len(ops)


def check(policy_cls, window, carried, ops, visible, mode, n_sharers):
    """fold == the loop's cut; commit == the loop's counters."""

    def fresh():
        policy = policy_cls(window)
        if carried is not None:
            policy._counters[BLOCK] = copy.copy(carried)
        return policy

    cut = loop(fresh(), ops, visible, mode, n_sharers)
    policy = fresh()
    before = copy.deepcopy(policy._counters)
    # Visibility arrives as a one-shot iterable, as the kernel sends it.
    once = None if visible is None else iter(visible)
    assert policy.fold(BLOCK, ops, once, mode, n_sharers) == cut
    assert policy._counters == before  # pure
    # The loop over the clean prefix alone: what commit must reproduce.
    reference = fresh()
    prefix_visible = None if visible is None else visible[:cut]
    assert loop(reference, ops[:cut], prefix_visible, mode, n_sharers) == cut
    once = None if visible is None else iter(prefix_visible)
    policy.commit(BLOCK, ops[:cut], once, mode, n_sharers)
    assert policy._counters == reference._counters
    return cut


@st.composite
def runs(draw):
    window = draw(st.sampled_from([2, 3, 32, 64]))
    # Write-poor to write-rich, so windows fall on both sides of w1.
    bias = draw(st.sampled_from([0.0, 0.03, 0.1, 0.3, 0.6, 1.0]))
    draws = draw(st.lists(st.floats(0, 1, exclude_max=True), max_size=200))
    ops = [int(x < bias) for x in draws]
    visible = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.booleans(), min_size=len(ops), max_size=len(ops)
            ),
        )
    )
    carried = None
    if draw(st.booleans()):
        # Anything decide can leave behind, including counts taken in
        # the other mode before an external set_mode (gr_reads need not
        # equal references - writes, in either direction).
        references = draw(st.integers(0, window - 1))
        writes = draw(st.integers(0, references))
        gr_reads = draw(st.integers(0, references - writes))
        carried = _BlockCounters(references, gr_reads, writes)
    return window, carried, ops, visible


class TestCountingFold:
    @pytest.mark.parametrize("policy_cls", COUNTING)
    @given(
        run=runs(),
        mode=st.sampled_from(MODES),
        n_sharers=st.integers(0, 64),
    )
    @settings(max_examples=400, deadline=None)
    def test_fold_and_commit_match_the_loop(
        self, policy_cls, run, mode, n_sharers
    ):
        window, carried, ops, visible = run
        check(policy_cls, window, carried, ops, visible, mode, n_sharers)

    @pytest.mark.parametrize("policy_cls", COUNTING)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "window, n_sharers, writes",
        [
            (32, 14, 4),  # 4/32 == 2/16
            (64, 14, 8),
            (64, 62, 2),  # 2/64 == 2/64
            (2, 2, 1),  # 1/2 == 2/4
            (3, 1, 2),  # 2/3 == 2/3, but 1 - 1/3 is one ulp above
            (3, 4, 1),  # 1/3 == 2/6, but 1 - 2/3 is one ulp above
        ],
    )
    def test_threshold_ties(
        self, policy_cls, mode, window, n_sharers, writes
    ):
        # A window exactly on w1 = 2 / (n + 2): "<=" keeps distributed
        # write, and only the very float expressions decide uses agree
        # with it -- at every placement of the writes in the window, and
        # with the tie in the first, a middle and the last window.
        assert writes / window == 2.0 / (n_sharers + 2)
        in_gr = mode is Mode.GLOBAL_READ
        # Filler windows that want the mode the block is in.
        quiet = [1] * window if in_gr else [0] * window
        for shift in range(window):
            tie = [0] * window
            for k in range(writes):
                tie[(shift + k) % window] = 1
            for lead in range(3):
                ops = quiet * lead + tie + quiet * (2 - lead)
                cut = check(
                    policy_cls, window, None, ops, None, mode, n_sharers
                )
                if policy_cls is OracleModePolicy:
                    # w == w1 wants distributed write: a switch on the
                    # tie window's last reference, from global read only.
                    assert cut == (
                        (lead + 1) * window - 1 if in_gr else len(ops)
                    )

    @pytest.mark.parametrize("policy_cls", COUNTING)
    def test_the_canonical_tie_cuts_where_it_should(self, policy_cls):
        # window 32, n = 14, 4 writes: w == w1 exactly, distributed
        # write is wanted.  In global read that switches on the window's
        # last reference; in distributed write nothing happens.
        ops = [1, 1, 1, 1] + [0] * 28 + [1] * 32
        assert check(
            policy_cls, 32, None, ops, None, Mode.GLOBAL_READ, 14
        ) == 31
        assert check(
            policy_cls, 32, None, ops, None, Mode.DISTRIBUTED_WRITE, 14
        ) == 63  # the all-write window that follows wants global read

    @pytest.mark.parametrize("policy_cls", COUNTING)
    @pytest.mark.parametrize("before", MODES)
    def test_a_carry_that_straddles_an_external_set_mode(
        self, policy_cls, before
    ):
        # Half a window observed one by one in one mode, then software
        # switches the block (nobody tells the policy), then a run is
        # folded in the other mode: the carried gr_reads were counted
        # under the old rule and must be honoured as they stand.
        after = MODES[1 - MODES.index(before)]
        for head in ([0] * 20, [1] * 5 + [0] * 15, [1, 0] * 10):
            for tail in ([0] * 50, [1] * 50, [0, 0, 1] * 20):
                policy = policy_cls(32)
                assert loop(policy, head, None, before, 6) == len(head)
                carried = copy.copy(policy._counters[BLOCK])
                assert carried.references == 20
                check(policy_cls, 32, carried, tail, None, after, 6)

    @pytest.mark.parametrize("policy_cls", COUNTING)
    def test_an_unfinished_observe_folds_nothing(self, policy_cls):
        # observe without its decide can leave a full window behind;
        # fold does not guess, the per-reference path decides.
        policy = policy_cls(4)
        policy._counters[BLOCK] = _BlockCounters(4, 0, 4)
        assert policy.fold(BLOCK, [0, 0, 0], None, Mode.GLOBAL_READ, 2) == 0

    @pytest.mark.parametrize("policy_cls", COUNTING)
    def test_an_empty_commit_creates_no_counters(self, policy_cls):
        policy = policy_cls(4)
        assert policy.fold(BLOCK, [], None, Mode.GLOBAL_READ, 2) == 0
        policy.commit(BLOCK, [], None, Mode.GLOBAL_READ, 2)
        assert policy._counters == {}

    def test_invisible_references_move_the_cut_not_the_count(self):
        # Adaptive, distributed write, window 2: only the visible
        # references fill windows, and the cut is an index into *all* of
        # the block's references.
        ops = [0, 0, 0, 1, 0, 0, 1, 0]
        visible = [0, 1, 0, 1, 0, 0, 1, 1]
        # Visible: r(1) w(3) -> 1/2 <= 2/3 stay; w(6) r(7) -> stay.
        assert check(
            AdaptiveModePolicy, 2, None, ops, visible,
            Mode.DISTRIBUTED_WRITE, 1,
        ) == 8
        # With 6 sharers the threshold is 1/4: the first window switches,
        # at the reference that completes it.
        assert check(
            AdaptiveModePolicy, 2, None, ops, visible,
            Mode.DISTRIBUTED_WRITE, 6,
        ) == 3
        # The oracle counts everything regardless.
        assert check(
            OracleModePolicy, 2, None, ops, visible,
            Mode.DISTRIBUTED_WRITE, 6,
        ) == 3


class TestPinnedAndDefaultFolds:
    def test_static_is_all_or_nothing(self):
        policy = StaticModePolicy(Mode.GLOBAL_READ)
        ops = [0, 1, 0]
        assert policy.fold(BLOCK, ops, None, Mode.GLOBAL_READ, 3) == 3
        assert policy.fold(BLOCK, ops, None, Mode.DISTRIBUTED_WRITE, 3) == 0
        policy.commit(BLOCK, ops, None, Mode.GLOBAL_READ, 3)  # nothing

    def test_per_block_is_all_or_nothing_per_block(self):
        policy = PerBlockModePolicy({BLOCK: Mode.DISTRIBUTED_WRITE})
        ops = [0, 1, 0]
        assert policy.fold(BLOCK, ops, None, Mode.DISTRIBUTED_WRITE, 3) == 3
        assert policy.fold(BLOCK, ops, None, Mode.GLOBAL_READ, 3) == 0
        assert policy.fold(BLOCK + 1, ops, None, Mode.GLOBAL_READ, 3) == 3

    def test_the_default_folds_nothing(self):
        class Bare(ModePolicy):
            def observe(self, block, op, *, owner_visible, mode, n_sharers):
                pass

            def decide(self, block, mode, n_sharers):
                return None

        policy = Bare()
        assert policy.fold(BLOCK, [0, 1], None, Mode.GLOBAL_READ, 2) == 0
        assert policy.commit(BLOCK, [], None, Mode.GLOBAL_READ, 2) is None
