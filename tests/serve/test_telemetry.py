"""Daemon-side telemetry: the ``metrics`` op, status mirrors, and the
flight recorder's automatic dumps.

Same harness as ``test_daemon.py``: every test runs a real
:class:`DaemonThread` over a real unix socket, with the executor's
``task_fn`` hook supplying determinism (gates, scripted failures).
"""

import json
import os
import shutil
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import CoherenceError, OverloadedError
from repro.obs.telemetry import parse_exposition
from repro.runner import execute_spec
from repro.runner.spec import ExperimentSpec, WorkloadSpec
from repro.serve import DaemonThread, ServeClient, ServeConfig
from repro.sim.system import SystemConfig

from tests.serve.test_daemon import (
    make_spec,
    socket_path,  # noqa: F401  (fixture re-export)
    wait_until,
)


@pytest.fixture
def flight_dir():
    tmp = tempfile.mkdtemp(prefix="repro-flight-")
    yield tmp
    shutil.rmtree(tmp, ignore_errors=True)


def dumps_in(flight_dir):
    return sorted(os.listdir(flight_dir))


class TestMetricsOp:
    def test_frame_shape_and_counter_monotonicity(self, socket_path):
        with DaemonThread(ServeConfig(socket_path=socket_path)):
            client = ServeClient(socket_path)
            client.submit([make_spec(seed=3)])
            first = client.metrics()
            assert first["type"] == "metrics"
            assert first["draining"] is False
            assert set(first) >= {"text", "metrics", "series", "flight"}

            client.submit([make_spec(seed=3)])  # cache hit
            client.submit([make_spec(seed=4)])
            second = client.metrics()

            for name, value in first["metrics"]["counters"].items():
                assert second["metrics"]["counters"][name] >= value
            counters = second["metrics"]["counters"]
            assert counters["serve.requests"] >= 3
            assert counters["serve.accepted"] >= 2
            assert counters["serve.executed"] >= 2
            assert counters["executor.tasks"] >= 2
            assert counters["result_cache.hot_hits"] >= 1
            assert counters["serve.references"] >= 120

    def test_latency_histograms_cover_all_three_legs(self, socket_path):
        with DaemonThread(ServeConfig(socket_path=socket_path)):
            client = ServeClient(socket_path)
            client.submit([make_spec()])
            histograms = client.metrics()["metrics"]["histograms"]
            for leg in (
                "latency.submit_to_admit_ms",
                "latency.admit_to_start_ms",
                "latency.start_to_finish_ms",
            ):
                assert histograms[leg]["total"] >= 1, leg

    def test_exposition_text_parses_and_matches_counters(
        self, socket_path
    ):
        with DaemonThread(ServeConfig(socket_path=socket_path)):
            client = ServeClient(socket_path)
            client.submit([make_spec()])
            frame = client.metrics()
            assert frame["text"].startswith("# TYPE")
            parsed = parse_exposition(frame["text"])
            for name, value in frame["metrics"]["counters"].items():
                key = "repro_" + name.replace(".", "_")
                assert parsed[key] == value

    def test_gauges_and_series_fill_in(self, socket_path):
        config = ServeConfig(
            socket_path=socket_path, sample_interval=0.05
        )
        with DaemonThread(config):
            client = ServeClient(socket_path)
            client.submit([make_spec()])
            wait_until(
                lambda: len(
                    client.metrics()["series"]
                    .get("gauge.serve.queue_depth", {})
                    .get("values", [])
                )
                >= 2,
                label="sampler loop took two samples",
            )
            frame = client.metrics()
            gauges = frame["metrics"]["gauges"]
            for name in (
                "serve.queue_depth",
                "serve.in_flight",
                "serve.workers_busy",
                "serve.subscribers",
                "result_cache.hot_entries",
            ):
                assert name in gauges, name
            assert gauges["result_cache.hot_entries"] == 1
            ring = frame["series"]["counter.serve.requests"]
            # Wall-clock mode: ticks are timestamps, strictly increasing.
            assert ring["ticks"] == sorted(ring["ticks"])


class TestStatusMirrors:
    def test_admission_and_result_cache_counters(self, socket_path):
        with DaemonThread(ServeConfig(socket_path=socket_path)):
            client = ServeClient(socket_path)
            client.submit([make_spec(seed=1)])
            client.submit([make_spec(seed=1)])
            status = client.status()
            admission = status["admission"]
            assert admission["requests"] == 2
            # Both requests are admitted; the second resolves from the
            # hot cache rather than executing again.
            assert admission["accepted"] == 2
            assert admission["rejected"] == 0
            assert admission["coalesced"] == 0
            assert admission["max_queue"] == 64
            cache = status["result_cache"]
            assert cache["result_cache.hot_hits"] == 1
            assert cache["result_cache.hot_misses"] == 1
            assert status["workers_busy"] == 0


class TestFlightDumps:
    def test_drain_dumps_lifecycle_ring(self, socket_path, flight_dir):
        config = ServeConfig(
            socket_path=socket_path, flight_dir=flight_dir
        )
        with DaemonThread(config):
            client = ServeClient(socket_path)
            client.submit([make_spec()])
        (name,) = dumps_in(flight_dir)
        assert "drain" in name
        lines = [
            json.loads(line)
            for line in open(os.path.join(flight_dir, name))
        ]
        assert lines[0]["flight_dump"] == "drain"
        kinds = {line["kind"] for line in lines[1:]}
        assert "lifecycle" in kinds

    def test_coherence_error_triggers_a_dump(
        self, socket_path, flight_dir
    ):
        def broken(spec):
            raise CoherenceError("scripted incident")

        config = ServeConfig(
            socket_path=socket_path,
            flight_dir=flight_dir,
            task_fn=broken,
        )
        with DaemonThread(config):
            client = ServeClient(socket_path)
            outcome = client.submit([make_spec()])
            assert outcome.errors  # the task failed, not the submission
            wait_until(
                lambda: any(
                    "coherence-error" in name
                    for name in dumps_in(flight_dir)
                ),
                label="coherence-error flight dump",
            )
            name = next(
                n for n in dumps_in(flight_dir) if "coherence-error" in n
            )
            lines = [
                json.loads(line)
                for line in open(os.path.join(flight_dir, name))
            ]
            failures = [
                line
                for line in lines[1:]
                if line.get("kind") == "failure"
            ]
            assert failures
            assert failures[0]["name"] == "CoherenceError"
            counters = client.metrics()["metrics"]["counters"]
            assert counters["serve.flight_dumps"] >= 1

    def test_rejection_burst_triggers_a_dump(
        self, socket_path, flight_dir
    ):
        gate = threading.Event()

        def gated(spec):
            assert gate.wait(30)
            return execute_spec(spec)

        config = ServeConfig(
            socket_path=socket_path,
            workers=1,
            max_queue=1,
            task_fn=gated,
            flight_dir=flight_dir,
            reject_burst=2,
        )
        try:
            with DaemonThread(config):
                client = ServeClient(socket_path)
                with ThreadPoolExecutor(max_workers=2) as pool:
                    held = pool.submit(
                        client.submit, [make_spec(seed=0)], name="hold"
                    )
                    wait_until(
                        lambda: client.status()["in_flight"] >= 1,
                        label="worker holding the gated cell",
                    )
                    filler = pool.submit(
                        client.submit, [make_spec(seed=1)], name="fill"
                    )
                    wait_until(
                        lambda: client.status()["queue_depth"] == 1,
                        label="queue full",
                    )
                    for seed in (7, 8):
                        with pytest.raises(OverloadedError):
                            client.submit([make_spec(seed=seed)])
                    wait_until(
                        lambda: any(
                            "reject-burst" in name
                            for name in dumps_in(flight_dir)
                        ),
                        label="reject-burst flight dump",
                    )
                    gate.set()
                    held.result(timeout=60)
                    filler.result(timeout=60)
        finally:
            gate.set()
        name = next(
            n for n in dumps_in(flight_dir) if "reject-burst" in n
        )
        lines = [
            json.loads(line)
            for line in open(os.path.join(flight_dir, name))
        ]
        rejections = [
            line for line in lines[1:] if line.get("kind") == "rejection"
        ]
        assert len(rejections) >= 2

    def test_no_flight_dir_means_no_dump_but_ring_records(
        self, socket_path
    ):
        with DaemonThread(ServeConfig(socket_path=socket_path)):
            client = ServeClient(socket_path)
            client.submit([make_spec()])
            flight = client.metrics()["flight"]
            assert flight["events"] >= 1  # serve_start lifecycle event
            assert flight["dumps"] == 0


class TestCliVerbs:
    def test_submit_metrics_prints_exposition(self, socket_path, capsys):
        from repro.cli import main

        with DaemonThread(ServeConfig(socket_path=socket_path)):
            client = ServeClient(socket_path)
            client.submit([make_spec()])
            rc = main(["submit", "--socket", socket_path, "--metrics"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("# TYPE")
        assert "repro_serve_requests" in out

    def test_submit_prints_failed_cells_and_exits_1(
        self, socket_path, capsys
    ):
        """A failed cell has no record: its table cell reads ``failed``
        and the command still reaches its ``FAILED:`` lines."""
        from repro.cli import main

        def broken(spec):
            if (spec.protocol, len(spec.workload.tasks)) == ("write-once", 4):
                raise CoherenceError("scripted failure")
            return execute_spec(spec)

        config = ServeConfig(
            socket_path=socket_path, retries=0, task_fn=broken
        )
        with DaemonThread(config):
            rc = main(
                [
                    "submit", "--socket", socket_path, "--nodes", "8",
                    "--sharers", "2", "4", "--references", "200",
                    "--quiet-events",
                ]
            )
        assert rc == 1
        out = capsys.readouterr().out
        table = {
            cells[0]: cells
            for cells in (
                [cell.strip() for cell in line.split("|")]
                for line in out.splitlines()
                if "|" in line
            )
        }
        column = table["sharers"].index("write-once")
        assert table["n=4"][column] == "failed"
        assert "failed" not in table["n=2"]
        assert "FAILED:" in out

    def test_top_once_renders_a_frame(self, socket_path, capsys):
        from repro.cli import main

        with DaemonThread(ServeConfig(socket_path=socket_path)):
            client = ServeClient(socket_path)
            client.submit([make_spec()])
            client.submit([make_spec()])
            rc = main(["top", "--socket", socket_path, "--once"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "p50/p90/p99" in out
        assert "hit 50.0%" in out
        assert "queue depth:" in out
