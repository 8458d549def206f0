"""Stand-down coverage: observers must disable the replay shortcuts.

The batched kernels are only sound when nothing needs to see
individual references.  When a :class:`TraceRecorder` is attached,
``batched_kernel()`` must hand back ``None`` and the replay must fall
back to the per-reference loop -- with results bit-identical to the
shortcut runs.  A :class:`TelemetrySampler` is the opposite case: it only *reads*
a registry, so it must neither disable the shortcuts nor perturb the
replay it observes.
"""

import pytest

from repro.analysis.compare import default_factories
from repro.cache.state import Mode
from repro.faults.plan import FaultPlan
from repro.obs.hooks import attach_recorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import TraceRecorder
from repro.obs.telemetry import TelemetrySampler
from repro.protocol.modes import (
    AdaptiveModePolicy,
    OracleModePolicy,
    PerBlockModePolicy,
    StaticModePolicy,
)
from repro.protocol.stenstrom import StenstromProtocol
from repro.sim.engine import run_trace
from repro.sim.system import System, SystemConfig
from repro.workloads.markov import markov_block_trace

from tests.protocol.conftest import build

MODES = pytest.mark.parametrize(
    "default_mode",
    [Mode.GLOBAL_READ, Mode.DISTRIBUTED_WRITE],
    ids=["gr", "dw"],
)
SIZES = pytest.mark.parametrize("n_nodes", [16, 64])


def _trace(n_nodes):
    return markov_block_trace(n_nodes, list(range(8)), 0.3, 600, seed=5)


def _run_batched(n_nodes, default_mode):
    """A shortcut replay; asserts the kernel actually engaged."""
    _, protocol = build(
        n_nodes=n_nodes, block_size_words=4, default_mode=default_mode
    )
    report = run_trace(
        protocol,
        _trace(n_nodes),
        verify=False,
        check_invariants_every=0,
    )
    kernel = protocol.batched_kernel()
    assert kernel is not None and kernel.batched_refs > 0
    return report


@MODES
@SIZES
class TestRecorderStandDown:
    def test_shortcuts_disable_and_results_match(
        self, n_nodes, default_mode
    ):
        batched_report = _run_batched(n_nodes, default_mode)

        _, traced = build(
            n_nodes=n_nodes, block_size_words=4, default_mode=default_mode
        )
        recorder = TraceRecorder()
        attach_recorder(traced, recorder)
        assert traced.batched_kernel() is None

        traced_report = run_trace(
            traced,
            _trace(n_nodes),
            verify=False,
            check_invariants_every=0,
            recorder=recorder,
        )
        # The recorder saw every reference as a span...
        assert len(recorder.events) > 0
        # ...and the replay stayed bit-identical.  Only the recorder's
        # metrics registry (absent on the shortcut run) may differ.
        traced_dict = traced_report.to_dict()
        traced_dict["stats"].pop("metrics", None)
        assert traced_dict == batched_report.to_dict()

    def test_a_traced_run_hands_the_shortcuts_back(
        self, n_nodes, default_mode
    ):
        # run_trace(recorder=...) attaches for that run only: the next
        # untraced run on the same protocol replays batched, adds nothing
        # to the old recorder, and reports what a never-traced protocol
        # reports for its second run.
        def replay(protocol, recorder=None):
            return run_trace(
                protocol,
                _trace(n_nodes),
                verify=False,
                check_invariants_every=0,
                recorder=recorder,
            )

        def fresh():
            return build(
                n_nodes=n_nodes, block_size_words=4, default_mode=default_mode
            )[1]

        traced, recorder = fresh(), TraceRecorder()
        replay(traced, recorder)
        seen = len(recorder.events)
        report = replay(traced)
        assert traced.recorder is None
        assert traced.batched_kernel().batched_refs > 0
        assert len(recorder.events) == seen > 0
        untraced = fresh()
        replay(untraced)
        report_dict = report.to_dict()
        report_dict["stats"].pop("metrics", None)
        assert report_dict == replay(untraced).to_dict()

        # A recorder the caller attached itself is the caller's to detach.
        attach_recorder(traced, recorder)
        replay(traced, recorder)
        assert traced.recorder is recorder

    def test_batchable_policy_does_not_override_stand_down(
        self, n_nodes, default_mode
    ):
        # Every policy runs in the kernel -- none has a say in whether
        # it is offered.  A recorder, the message log and fault
        # injection must still withdraw it, and value verification or
        # an invariant stride must still keep the engine off it, for
        # the pinned and the counting policies alike.
        def fresh(policy, fault_plan=None):
            system = System(
                SystemConfig(n_nodes=n_nodes, block_size_words=4),
                fault_plan=fault_plan,
            )
            return StenstromProtocol(system, mode_policy=policy)

        for make_policy in (
            lambda: StaticModePolicy(default_mode),
            lambda: PerBlockModePolicy({0: default_mode}),
            lambda: OracleModePolicy(32),
            lambda: AdaptiveModePolicy(32),
        ):
            plain = fresh(make_policy())
            assert plain.batched_kernel() is not None
            assert plain._sends_watched() is None

            observed = fresh(make_policy())
            attach_recorder(observed, TraceRecorder())
            assert observed.batched_kernel() is None
            assert observed._sends_watched() == "recorder"

            logged = fresh(make_policy())
            logged.enable_message_log()
            assert logged.batched_kernel() is None
            assert logged._sends_watched() == "message_log"

            faulty = fresh(
                make_policy(), FaultPlan(drop_probability=0.1, seed=3)
            )
            assert faulty.batched_kernel() is None
            assert faulty._sends_watched() == "faults"

            # The first reason that applies is the one reported.
            attach_recorder(faulty, TraceRecorder())
            faulty.enable_message_log()
            assert faulty._sends_watched() == "faults"
            attach_recorder(logged, TraceRecorder())
            assert logged._sends_watched() == "recorder"

            for checks in (
                {"verify": True},
                {"verify": True, "check_invariants_every": 0},
                {"verify": False, "check_invariants_every": 50},
            ):
                checked = fresh(make_policy())
                run_trace(checked, _trace(n_nodes), **checks)
                kernel = checked.batched_kernel()
                assert kernel.batched_refs == kernel.fallback_refs == 0
                assert not kernel.fallback_reasons


@SIZES
class TestNoCacheStandDown:
    """``no-cache``'s closed form stands down for the same observers."""

    def _run(self, n_nodes, consumer=None, compiled=True):
        fault_plan = (
            FaultPlan(drop_probability=0.1, seed=3)
            if consumer == "faults"
            else None
        )
        system = System(
            SystemConfig(n_nodes=n_nodes, block_size_words=4),
            fault_plan=fault_plan,
        )
        protocol = default_factories()["no-cache"](system)
        recorder = None
        if consumer == "recorder":
            recorder = attach_recorder(protocol, TraceRecorder())
        elif consumer == "message_log":
            protocol.enable_message_log()
        elif consumer == "net_recorder":
            system.multicaster.recorder = TraceRecorder()
        trace = _trace(n_nodes)
        report = run_trace(
            protocol,
            trace if compiled else list(trace),
            verify=False,
            check_invariants_every=0,
            recorder=recorder,
        ).to_dict()
        kernel = protocol.batched_kernel()
        if consumer is None:
            assert kernel.batched_refs == len(trace)
        else:
            assert kernel is None
        # A net recorder is not a watcher of sends: the multicaster test
        # (``_plain_multicaster``) is what withdraws the closed form.
        reason = None if consumer == "net_recorder" else consumer
        assert protocol._sends_watched() == reason
        assert protocol._plain_multicaster() is (consumer != "net_recorder")
        report["stats"].pop("metrics", None)
        return report

    @pytest.mark.parametrize(
        "consumer", ["recorder", "message_log", "net_recorder"]
    )
    def test_observers_withdraw_it_and_see_the_same_run(
        self, n_nodes, consumer
    ):
        assert self._run(n_nodes, consumer) == self._run(n_nodes)

    def test_a_fault_plan_withdraws_it(self, n_nodes):
        assert self._run(n_nodes, "faults") == self._run(
            n_nodes, "faults", compiled=False
        )


@MODES
@SIZES
class TestSamplerIsPassive:
    def test_sampler_neither_gates_nor_perturbs(
        self, n_nodes, default_mode
    ):
        batched_report = _run_batched(n_nodes, default_mode)

        _, protocol = build(
            n_nodes=n_nodes, block_size_words=4, default_mode=default_mode
        )
        # A sampler over a detached registry: the shortcuts stay engaged.
        sampler = TelemetrySampler(MetricsRegistry())
        assert protocol.batched_kernel() is not None
        sampler.sample()
        report = run_trace(
            protocol,
            _trace(n_nodes),
            verify=False,
            check_invariants_every=0,
        )
        sampler.sample()
        assert protocol.batched_kernel().batched_refs > 0
        assert report.to_dict() == batched_report.to_dict()
        assert sampler.registry.empty

    def test_sampling_an_attached_recorder_is_read_only(
        self, n_nodes, default_mode
    ):
        # Sampling the recorder's registry mid-setup must not change
        # what the traced replay reports.
        _, traced = build(
            n_nodes=n_nodes, block_size_words=4, default_mode=default_mode
        )
        recorder = TraceRecorder()
        attach_recorder(traced, recorder)
        sampler = TelemetrySampler(recorder.metrics)
        report = run_trace(
            traced,
            _trace(n_nodes),
            verify=False,
            check_invariants_every=0,
            recorder=recorder,
        )
        before = recorder.metrics.to_dict()
        tick = sampler.sample()
        assert tick == 0.0
        assert recorder.metrics.to_dict() == before
        assert report.to_dict()["stats"]["metrics"] == before
