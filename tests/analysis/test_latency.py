"""Tests for the per-reference latency analysis."""

from repro.analysis.compare import default_factories
from repro.analysis.latency import (
    latency_comparison,
    reference_latency,
    trace_latency,
)
from repro.cache.state import Mode
from repro.protocol.no_cache import NoCacheProtocol
from repro.protocol.stenstrom import StenstromProtocol
from repro.sim.system import System, SystemConfig
from repro.types import Address, Op, Reference
from repro.workloads.markov import markov_block_trace


def build(**kwargs):
    return System(SystemConfig(n_nodes=8, **kwargs))


class TestTraceLatency:
    def test_read_hits_have_zero_latency(self):
        protocol = StenstromProtocol(build())
        warm = [Reference(0, Op.WRITE, Address(0, 0), 1)]
        trace_latency(protocol, warm)
        report = trace_latency(
            protocol, [Reference(0, Op.READ, Address(0, 0))] * 5
        )
        assert report.total_cycles == 0
        assert report.hit_fraction == 1.0

    def test_no_cache_every_reference_pays(self):
        protocol = NoCacheProtocol(build())
        trace = [
            Reference(0, Op.READ, Address(0, 0)),
            Reference(1, Op.WRITE, Address(0, 0), 2),
        ]
        report = trace_latency(protocol, trace)
        assert report.zero_latency_references == 0
        assert report.max_cycles >= report.mean_cycles

    def test_reads_cost_about_twice_writes_uncached(self):
        protocol = NoCacheProtocol(build())
        reads = trace_latency(
            protocol, [Reference(0, Op.READ, Address(0, 0))] * 20
        )
        writes = trace_latency(
            protocol,
            [Reference(0, Op.WRITE, Address(0, 0), 1)] * 20,
        )
        ratio = reads.mean_cycles / writes.mean_cycles
        assert 1.3 < ratio < 2.7  # request+reply vs single word message

    def test_empty_trace(self):
        report = trace_latency(NoCacheProtocol(build()), [])
        assert report.mean_cycles == 0.0
        assert report.hit_fraction == 0.0

    def test_reference_latency_sums_message_makespans(self):
        protocol = NoCacheProtocol(build())
        protocol.enable_message_log()
        protocol.read(0, Address(0, 0))
        messages = list(protocol.message_log)
        assert reference_latency(messages) == sum(
            reference_latency([m]) for m in messages
        )


class TestLatencyComparison:
    def test_dw_reads_are_free_after_warmup(self):
        trace = markov_block_trace(
            8, tasks=[0, 1, 2, 3], write_fraction=0.05,
            n_references=600, seed=1,
        )
        reports = latency_comparison(
            trace,
            SystemConfig(n_nodes=8),
            {
                "distributed-write": lambda system: StenstromProtocol(
                    system, default_mode=Mode.DISTRIBUTED_WRITE
                ),
                "global-read": lambda system: StenstromProtocol(
                    system, default_mode=Mode.GLOBAL_READ
                ),
                "no-cache": NoCacheProtocol,
            },
        )
        # Read-mostly workload: DW turns almost everything into hits.
        assert (
            reports["distributed-write"].hit_fraction
            > reports["global-read"].hit_fraction
        )
        assert (
            reports["distributed-write"].mean_cycles
            < reports["no-cache"].mean_cycles
        )

    def test_all_default_protocols_produce_reports(self):
        trace = markov_block_trace(
            8, tasks=[0, 1], write_fraction=0.3, n_references=200,
            seed=2,
        )
        reports = latency_comparison(
            trace,
            SystemConfig(n_nodes=8),
            default_factories(),
        )
        assert set(reports) == set(default_factories())
        for report in reports.values():
            assert report.n_references == 200
