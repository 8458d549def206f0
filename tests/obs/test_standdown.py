"""Stand-down coverage: observers must disable the replay shortcuts.

The batched kernels are only sound when nothing needs to see individual
references, and ``run_trace`` alone decides: it engages
``batched_kernel()`` only inside an open ledger window, on a compiled
trace proven to fit, with every per-reference check off.  The gate
table holds each term of that decision on a protocol with a record
kernel, on ``no-cache``'s closed form and on a baseline without a
kernel: the kernel batches nothing, and the report equals a slow run
forced by the message log.  A :class:`TelemetrySampler` is the opposite
case: it only *reads* a registry, so it must neither disable the
shortcuts nor perturb the replay it observes.
"""

import pytest

from repro.analysis.compare import default_factories
from repro.cache.state import Mode
from repro.faults.plan import FaultPlan
from repro.network.selector import compile_registers
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
from repro.sim.ctrace import CompiledTrace
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
    assert protocol.batched_kernel().batched_refs > 0
    return report


def _batched(protocol):
    """References the protocol's kernel batched (``0`` without one)."""
    kernel = protocol.batched_kernel()
    return 0 if kernel is None else kernel.batched_refs


def _rewrapped(trace, n_nodes, **kwargs):
    """The same rows, declared for ``n_nodes``."""
    return CompiledTrace(
        trace.nodes, trace.ops, trace.blocks, trace.offsets, trace.values,
        n_nodes, trace.block_size_words, **kwargs,
    )


#: One row per term of run_trace's gate, each enough on its own to keep
#: the kernel off: keyword arguments for the system, a change to the
#: protocol, a change to the trace, keyword arguments for the run.
GATE = {
    "verify": {"run": {"verify": True, "check_invariants_every": 0}},
    "invariant_stride": {"run": {"check_invariants_every": 50}},
    "iterable": {"trace": list},
    # The form the executor hands over for ExperimentSpec(compiled=False).
    "compiled=False": {"trace": iter},
    "unvalidated": {
        "trace": lambda trace: _rewrapped(
            trace, trace.n_nodes, validate=False
        ),
    },
    "declared_larger": {
        "trace": lambda trace: _rewrapped(trace, 2 * trace.n_nodes),
    },
    "recorder": {"run": {"recorder": TraceRecorder}},
    "message_log": {"protocol": lambda p: p.enable_message_log()},
    "faults": {
        "system": {"fault_plan": FaultPlan(drop_probability=0.1, seed=3)},
    },
}


class TestTheGate:
    """Every term of ``run_trace``'s one gate, on every kind of protocol."""

    N_NODES = 16
    PROTOCOLS = ["two-mode", "no-cache", "full-map"]

    def _replay(self, protocol_name, row, forced_slow=False):
        """``(references batched, report)`` of one cell."""
        system = System(
            SystemConfig(
                n_nodes=self.N_NODES,
                block_size_words=4,
                **row.get("config", {}),
            ),
            **row.get("system", {}),
        )
        protocol = default_factories()[protocol_name](system)
        if "protocol" in row:
            row["protocol"](protocol)
        if forced_slow:
            protocol.enable_message_log()
        checks = {"verify": False, "check_invariants_every": 0}
        checks.update(row.get("run", {}))
        if "recorder" in checks:
            checks["recorder"] = checks["recorder"]()
        trace = _trace(self.N_NODES)
        if "trace" in row:
            trace = row["trace"](trace)
        report = run_trace(protocol, trace, **checks)
        return _batched(protocol), report.to_dict()

    @pytest.mark.parametrize("protocol_name", PROTOCOLS)
    def test_the_open_gate_engages_every_kernel(self, protocol_name):
        batched, report = self._replay(protocol_name, {})
        assert (batched > 0) is (protocol_name != "full-map")
        assert report == self._replay(protocol_name, {}, forced_slow=True)[1]

    @pytest.mark.parametrize("protocol_name", PROTOCOLS)
    def test_break_even_registers_leave_the_gate_open(self, protocol_name):
        # §5's registers are a scheme choice: the ledger resolves each
        # posted destination set by them, as a send does.
        row = {
            "config": {
                "multicast_scheme": compile_registers(self.N_NODES, 4, 20)
            },
        }
        batched, report = self._replay(protocol_name, row)
        assert (batched > 0) is (protocol_name != "full-map")
        assert report == self._replay(protocol_name, row, forced_slow=True)[1]

    @pytest.mark.parametrize("protocol_name", PROTOCOLS)
    @pytest.mark.parametrize("term", list(GATE))
    def test_each_term_stands_the_kernel_down(self, term, protocol_name):
        batched, report = self._replay(protocol_name, GATE[term])
        assert batched == 0
        forced, slow_report = self._replay(
            protocol_name, GATE[term], forced_slow=True
        )
        assert forced == 0
        assert report == slow_report


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

        traced_report = run_trace(
            traced,
            _trace(n_nodes),
            verify=False,
            check_invariants_every=0,
            recorder=recorder,
        )
        assert traced.batched_kernel().batched_refs == 0
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
        # it runs.  A recorder, the message log and fault injection must
        # still keep the window shut and the kernel off, and value
        # verification or an invariant stride must still keep the engine
        # off it, for the pinned and the counting policies alike.
        def fresh(policy, fault_plan=None):
            system = System(
                SystemConfig(n_nodes=n_nodes, block_size_words=4),
                fault_plan=fault_plan,
            )
            return StenstromProtocol(system, mode_policy=policy)

        def batched(protocol):
            run_trace(
                protocol, _trace(n_nodes), verify=False,
                check_invariants_every=0,
            )
            return protocol.batched_kernel().batched_refs

        for make_policy in (
            lambda: StaticModePolicy(default_mode),
            lambda: PerBlockModePolicy({0: default_mode}),
            lambda: OracleModePolicy(32),
            lambda: AdaptiveModePolicy(32),
        ):
            plain = fresh(make_policy())
            assert plain._sends_watched() is None
            assert batched(plain) > 0

            observed = fresh(make_policy())
            attach_recorder(observed, TraceRecorder())
            assert observed._sends_watched() == "recorder"
            assert batched(observed) == 0

            logged = fresh(make_policy())
            logged.enable_message_log()
            assert logged._sends_watched() == "message_log"
            assert batched(logged) == 0

            faulty = fresh(
                make_policy(), FaultPlan(drop_probability=0.1, seed=3)
            )
            assert faulty._sends_watched() == "faults"
            assert batched(faulty) == 0

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
        trace = _trace(n_nodes)
        report = run_trace(
            protocol,
            trace if compiled else list(trace),
            verify=False,
            check_invariants_every=0,
            recorder=recorder,
        ).to_dict()
        kernel = protocol.batched_kernel()
        assert kernel.batched_refs == (len(trace) if consumer is None else 0)
        assert protocol._sends_watched() == consumer
        report["stats"].pop("metrics", None)
        return report

    @pytest.mark.parametrize("consumer", ["recorder", "message_log"])
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
