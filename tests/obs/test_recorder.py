"""TraceRecorder: the virtual clock, spans, events and fed metrics."""

from repro.network.multicast import Multicaster, MulticastScheme
from repro.network.topology import OmegaNetwork
from repro.obs.recorder import TraceRecorder


def _send(network=None, source=0, dests=(3, 5, 6), bits=20):
    network = network or OmegaNetwork(8)
    caster = Multicaster(network, MulticastScheme.COMBINED)
    return caster.send_payload(source, bits, frozenset(dests))


class TestVirtualClock:
    def test_ticks_advance_per_event_never_wall_clock(self):
        recorder = TraceRecorder()
        recorder.instant("k", "a", 0)
        recorder.instant("k", "b", 1)
        assert [event.ts for event in recorder.events] == [0, 1]
        assert recorder.now == 2

    def test_reference_span_encloses_inner_events(self):
        recorder = TraceRecorder()
        recorder.begin_reference(0, node=2, op="write", block=7, offset=1)
        recorder.instant("message", "inv", 2)
        recorder.instant("message", "ack", 3)
        recorder.end_reference()
        span = recorder.events[-1]
        assert span.kind == "reference"
        assert span.name == "write"
        assert span.ts == 0
        assert span.ts + span.dur == recorder.now

    def test_end_without_begin_is_a_no_op(self):
        recorder = TraceRecorder()
        recorder.end_reference()
        assert len(recorder) == 0


class TestEvents:
    def test_message_event_carries_routing_outcome(self):
        recorder = TraceRecorder()
        result = _send()
        recorder.message("invalidate", 0, (3, 5, 6), 20, result)
        event = recorder.events[0]
        args = dict(event.args)
        assert event.kind == "message"
        assert event.name == "invalidate"
        assert args["dests"] == 3
        assert args["cost"] == result.cost
        assert args["links"] == result.links_used
        assert args["scheme"] == result.scheme.name

    def test_message_feeds_fanout_histogram_and_scheme_counters(self):
        recorder = TraceRecorder()
        result = _send()
        recorder.message("invalidate", 0, (3, 5, 6), 20, result)
        metrics = recorder.metrics
        assert metrics.counters["messages"] == 1
        scheme = result.scheme.name
        assert metrics.counters[f"scheme_{scheme}_messages"] == 1
        assert metrics.counters[f"scheme_{scheme}_bits"] == result.cost
        assert metrics.histograms["multicast_fanout"].total == 1

    def test_unicast_does_not_count_as_fanout(self):
        recorder = TraceRecorder()
        network = OmegaNetwork(8)
        caster = Multicaster(network, MulticastScheme.COMBINED)
        result = caster.send_payload_one(0, 20, 5)
        recorder.message("req", 0, (5,), 20, result)
        assert "multicast_fanout" not in recorder.metrics.histograms

    def test_fault_event_name_matches_counter_name(self):
        recorder = TraceRecorder()
        recorder.fault("fault_drops", 3, source=0)
        event = recorder.events[0]
        assert event.kind == "fault_drops"
        assert event.name == "fault_drops"
        assert recorder.metrics.counters["fault_drops"] == 1

    def test_retry_fault_feeds_depth_histogram(self):
        recorder = TraceRecorder()
        recorder.fault("fault_retries", 0, attempt=2)
        assert recorder.metrics.histograms["retry_depth"].total == 1

    def test_counts_by_name_and_kind(self):
        recorder = TraceRecorder()
        recorder.mode_switch(4, 1, "global-read")
        recorder.mode_switch(4, 1, "distributed-write")
        recorder.ownership_transfer(4, 1, 2)
        assert recorder.counts_by_kind() == {
            "mode_switches": 2,
            "ownership_transfers": 1,
        }
        assert recorder.counts_by_name()["global-read"] == 1

