"""Unit tests for the verifying simulation engine."""

from array import array

import pytest

from repro.errors import CoherenceError, TraceError
from repro.protocol.no_cache import NoCacheProtocol
from repro.protocol.stenstrom import StenstromProtocol
from repro.sim.ctrace import CompiledTrace
from repro.sim.engine import run_trace
from repro.sim.system import System, SystemConfig
from repro.types import Address, Op, Reference
from repro.workloads.synthetic import random_trace


def build_protocol():
    return NoCacheProtocol(System(SystemConfig(n_nodes=4)))


class BrokenProtocol(NoCacheProtocol):
    """Returns garbage on the third read: verification must catch it."""

    name = "broken"

    def __init__(self, system):
        super().__init__(system)
        self._reads = 0

    def _read(self, node, block, offset):
        self._reads += 1
        value = super()._read(node, block, offset)
        return value + 1 if self._reads == 3 else value


class TestVerification:
    def test_correct_protocol_passes(self):
        trace = random_trace(4, 200, n_blocks=4, seed=1)
        report = run_trace(build_protocol(), trace, verify=True)
        assert report.verified

    def test_stale_read_detected_with_reference_index(self):
        protocol = BrokenProtocol(System(SystemConfig(n_nodes=4)))
        trace = [
            Reference(0, Op.WRITE, Address(0, 0), 5),
            Reference(1, Op.READ, Address(0, 0)),
            Reference(2, Op.READ, Address(0, 0)),
            Reference(3, Op.READ, Address(0, 0)),  # corrupted (3rd read)
        ]
        with pytest.raises(CoherenceError, match="reference 3"):
            run_trace(protocol, trace, verify=True)

    def test_verify_false_skips_value_checks(self):
        protocol = BrokenProtocol(System(SystemConfig(n_nodes=4)))
        trace = [
            Reference(1, Op.READ, Address(0, 0)),
            Reference(1, Op.READ, Address(0, 0)),
            Reference(1, Op.READ, Address(0, 0)),
        ]
        report = run_trace(protocol, trace, verify=False)
        assert not report.verified

    @pytest.mark.parametrize(
        "form", ["references", "generator", "declared-larger"]
    )
    def test_foreign_node_rejected(self, form):
        # Two good reads, then a node this 4-node system lacks: every
        # input form raises at index 2 before any reference replays.
        references = [
            Reference(0, Op.READ, Address(0, 0)),
            Reference(1, Op.READ, Address(0, 0)),
            Reference(9, Op.READ, Address(0, 0)),
        ]
        if form == "references":
            trace = references
        elif form == "generator":
            trace = (ref for ref in references)
        else:
            # Nodes 0, 1, 9, valid for the 16 nodes it declares;
            # ops, blocks, offsets and values all zero.
            trace = CompiledTrace(
                array("q", [0, 1, 9]),
                *(array("q", [0, 0, 0]) for _ in range(4)),
                16,
                1,
            )
        protocol = build_protocol()
        with pytest.raises(
            TraceError, match=r"^reference 2: node 9 outside 0\.\.3$"
        ):
            run_trace(protocol, trace)
        assert protocol.stats.events["reads"] == 0


class TestReportContents:
    def test_counts_and_fractions(self):
        trace = [
            Reference(0, Op.WRITE, Address(0, 0), 1),
            Reference(0, Op.READ, Address(0, 0)),
            Reference(1, Op.READ, Address(0, 0)),
            Reference(1, Op.WRITE, Address(0, 1), 2),
        ]
        report = run_trace(build_protocol(), trace)
        assert report.n_references == 4
        assert report.n_reads == 2
        assert report.n_writes == 2
        assert report.write_fraction == 0.5

    def test_network_totals_match_levels(self):
        trace = random_trace(4, 100, n_blocks=4, seed=2)
        report = run_trace(build_protocol(), trace)
        assert sum(report.network_bits_by_level) == (
            report.network_total_bits
        )

    def test_cost_per_reference(self):
        trace = [Reference(0, Op.READ, Address(0, 0))]
        report = run_trace(build_protocol(), trace)
        assert report.cost_per_reference == report.network_total_bits

    def test_empty_trace(self):
        report = run_trace(build_protocol(), [])
        assert report.n_references == 0
        assert report.cost_per_reference == 0.0

    def test_summary_mentions_the_essentials(self):
        trace = random_trace(4, 50, n_blocks=4, seed=3)
        report = run_trace(build_protocol(), trace)
        text = report.summary()
        assert "no-cache" in text
        assert "bits" in text

    def test_traffic_reset_between_runs(self):
        # The second run starts from warm memory, so value verification
        # is off; the point is that the traffic counters restart at zero.
        protocol = build_protocol()
        trace = random_trace(4, 50, n_blocks=4, seed=4)
        first = run_trace(protocol, trace, verify=False)
        second = run_trace(protocol, trace, verify=False)
        assert first.network_total_bits == second.network_total_bits


class TestInvariantStride:
    def test_invariants_checked_with_stride(self):
        system = System(SystemConfig(n_nodes=4, cache_entries=2))
        protocol = StenstromProtocol(system)
        trace = random_trace(4, 300, n_blocks=8, seed=5)
        report = run_trace(
            protocol, trace, verify=True, check_invariants_every=50
        )
        assert report.verified


class CountingProtocol(NoCacheProtocol):
    """Counts structural-invariant re-checks so strides are observable."""

    name = "counting"

    def __init__(self, system):
        super().__init__(system)
        self.invariant_checks = 0

    def check_invariants(self):
        self.invariant_checks += 1
        super().check_invariants()


class TestVerifyStrideCombinations:
    """The two knobs of run_trace compose; each combination is explicit.

    ``verify`` controls *value* checks (shadow memory), while
    ``check_invariants_every`` controls *structural* checks -- setting
    the stride to 0 turns invariants off without touching value
    verification, and a non-zero stride enables invariants even with
    ``verify=False``.
    """

    def trace(self, n=20):
        return random_trace(4, n, n_blocks=4, seed=8)

    def test_verify_with_stride_zero_keeps_value_checks(self):
        # Invariants never run...
        protocol = CountingProtocol(System(SystemConfig(n_nodes=4)))
        run_trace(
            protocol, self.trace(), verify=True, check_invariants_every=0
        )
        assert protocol.invariant_checks == 0
        # ...but a stale read is still caught by the shadow memory.
        broken = BrokenProtocol(System(SystemConfig(n_nodes=4)))
        stale = [
            Reference(0, Op.WRITE, Address(0, 0), 5),
            Reference(1, Op.READ, Address(0, 0)),
            Reference(2, Op.READ, Address(0, 0)),
            Reference(3, Op.READ, Address(0, 0)),
        ]
        with pytest.raises(CoherenceError):
            run_trace(
                broken, stale, verify=True, check_invariants_every=0
            )

    def test_no_verify_with_stride_runs_only_invariants(self):
        # Structural checks at the stride; the final check is folded into
        # the last in-loop one when the stride divides the length exactly.
        protocol = CountingProtocol(System(SystemConfig(n_nodes=4)))
        run_trace(
            protocol,
            self.trace(20),
            verify=False,
            check_invariants_every=5,
        )
        assert protocol.invariant_checks == 20 // 5
        # ...while value corruption sails through unchecked.
        broken = BrokenProtocol(System(SystemConfig(n_nodes=4)))
        reads = [Reference(1, Op.READ, Address(0, 0))] * 6
        report = run_trace(
            broken, reads, verify=False, check_invariants_every=5
        )
        assert not report.verified

    def test_default_verify_checks_every_reference(self):
        protocol = CountingProtocol(System(SystemConfig(n_nodes=4)))
        run_trace(protocol, self.trace(20), verify=True)
        assert protocol.invariant_checks == 20

    def test_default_no_verify_checks_nothing(self):
        protocol = CountingProtocol(System(SystemConfig(n_nodes=4)))
        run_trace(protocol, self.trace(20), verify=False)
        assert protocol.invariant_checks == 0


class TestReportSerialisation:
    def make_report(self):
        system = System(SystemConfig(n_nodes=4, cache_entries=2))
        protocol = StenstromProtocol(system)
        trace = random_trace(4, 200, n_blocks=8, seed=6)
        return run_trace(protocol, trace, verify=True)

    def test_round_trip_preserves_every_field(self):
        report = self.make_report()
        rebuilt = type(report).from_dict(report.to_dict())
        assert rebuilt.to_dict() == report.to_dict()
        assert rebuilt.protocol_name == report.protocol_name
        assert rebuilt.n_references == report.n_references
        assert rebuilt.network_bits_by_level == (
            report.network_bits_by_level
        )
        assert rebuilt.stats.events == report.stats.events
        assert rebuilt.stats.traffic_bits == report.stats.traffic_bits
        assert rebuilt.cost_per_reference == report.cost_per_reference

    def test_to_dict_is_json_clean(self):
        import json

        report = self.make_report()
        encoded = json.dumps(report.to_dict(), sort_keys=True)
        decoded = type(report).from_dict(json.loads(encoded))
        assert decoded.to_dict() == report.to_dict()
