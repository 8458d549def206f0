"""Exhaustive exploration: coverage, determinism, and violation traces."""

from repro.mc.explorer import Violation, explore
from repro.mc.invariants import check_state
from repro.mc.model import ModelConfig, initial_state
from repro.mc.state import BlockState, Copy, Inflight, MCState, OWNER, COPY


def corrupt(state: MCState, block: int, **overrides) -> MCState:
    bs = state.blocks[block]._replace(**overrides)
    return MCState(
        blocks=state.blocks[:block] + (bs,) + state.blocks[block + 1:],
        inflight=state.inflight,
    )


class TestExhaustiveExploration:
    # The (states, transitions) counts are pinned.  Two runs of one tree
    # always agree (mc-smoke checks that); the pins also fail when a
    # change to the model alters what it can reach.  A change that does
    # so on purpose updates them and says why.

    def test_n2_one_block_is_clean_and_exhaustive(self):
        result = explore(ModelConfig(n_nodes=2, n_blocks=1))
        assert result.ok
        assert result.complete
        assert (result.n_states, result.n_transitions) == (30, 297)

    def test_two_runs_report_identical_counts(self):
        first = explore(ModelConfig(n_nodes=2, n_blocks=1))
        second = explore(ModelConfig(n_nodes=2, n_blocks=1))
        assert first.summary() == second.summary()

    def test_n4_one_block_is_clean(self):
        result = explore(ModelConfig(n_nodes=4, n_blocks=1))
        assert result.ok and result.complete
        assert (result.n_states, result.n_transitions) == (3814, 56133)

    def test_n2_two_blocks_is_clean(self):
        result = explore(ModelConfig(n_nodes=2, n_blocks=2))
        assert result.ok and result.complete
        assert (result.n_states, result.n_transitions) == (896, 16632)

    def test_dw_default_mode_also_clean(self):
        result = explore(ModelConfig(n_nodes=2, n_blocks=1, default_dw=True))
        assert result.ok and result.complete
        assert (result.n_states, result.n_transitions) == (30, 297)

    def test_state_cap_reports_incomplete(self):
        result = explore(
            ModelConfig(n_nodes=4, n_blocks=1), max_states=50
        )
        assert result.ok
        assert not result.complete
        assert result.n_states <= 50

    def test_summary_mentions_the_configuration(self):
        result = explore(ModelConfig(n_nodes=2, n_blocks=1))
        summary = result.summary()
        assert "states explored" in summary
        assert "exhaustive        : True" in summary


class TestInvariantChecker:
    """check_state must flag each violation class the explorer guards."""

    def cfg(self):
        return ModelConfig(n_nodes=2, n_blocks=1)

    def owned(self):
        blocks = (
            BlockState(
                owner=0,
                dw=True,
                present=(0, 1),
                copies=(
                    Copy(OWNER, 0, True, True),
                    Copy(COPY, 0, True, False),
                ),
                mem_fresh=False,
                degraded=False,
            ),
        )
        return MCState(blocks=blocks, inflight=None)

    def test_healthy_state_passes(self):
        assert check_state(self.cfg(), self.owned()) == []

    def test_double_owner_detected(self):
        state = self.owned()
        state = MCState(
            blocks=(
                state.blocks[0]._replace(
                    copies=(
                        Copy(OWNER, 0, True, True),
                        Copy(OWNER, 1, True, False),
                    )
                ),
            ),
            inflight=None,
        )
        assert any("several caches" in v for v in check_state(self.cfg(), state))

    def test_owner_missing_from_vector_detected(self):
        state = corrupt(self.owned(), 0, present=(1,))
        assert any(
            "missing from its present vector" in v
            for v in check_state(self.cfg(), state)
        )

    def test_stale_owner_at_quiescence_detected(self):
        state = corrupt(
            self.owned(),
            0,
            copies=(Copy(OWNER, 0, False, True), Copy(COPY, 0, True, False)),
        )
        assert any("stale copy" in v for v in check_state(self.cfg(), state))

    def test_degraded_block_with_entries_detected(self):
        state = corrupt(self.owned(), 0, degraded=True)
        assert any(
            "degraded block" in v for v in check_state(self.cfg(), state)
        )

    def test_unowned_stale_memory_detected(self):
        state = corrupt(
            self.owned(),
            0,
            owner=None,
            dw=False,
            present=(),
            copies=(None, None),
            mem_fresh=False,
        )
        assert any("stale memory" in v for v in check_state(self.cfg(), state))

    def test_inflight_rounds_past_budget_detected(self):
        state = MCState(
            blocks=self.owned().blocks,
            inflight=Inflight(block=0, writer=0, missed=(1,), rounds=5),
        )
        assert any(
            "outside the retry budget" in v
            for v in check_state(self.cfg(), state)
        )

    def test_initial_state_is_healthy(self):
        assert check_state(self.cfg(), initial_state(self.cfg())) == []


class TestViolationRendering:
    def test_render_includes_trace_and_state(self):
        violation = Violation(
            kind="invariant",
            detail="block 0: example",
            trace=("write(node=0, block=0)",),
            state="  block 0: ...",
        )
        text = violation.render()
        assert "invariant: block 0: example" in text
        assert "1. write(node=0, block=0)" in text
        assert "state reached:" in text

    def test_empty_trace_marks_initial_state(self):
        violation = Violation("invariant", "d", (), "s")
        assert "(initial state)" in violation.render()
