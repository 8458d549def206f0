"""The serve daemon in-process: coalescing, tiers, backpressure, drain.

Every test runs a real daemon (real unix socket, real wire protocol)
via :class:`~repro.serve.daemon.DaemonThread`; determinism comes from
the executor's ``task_fn`` hook, which lets a test hold execution at a
:class:`threading.Event` gate while it piles up concurrent submissions.
"""

import json
import os
import shutil
import socket as socket_module
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import ConfigurationError, OverloadedError, ServeError
from repro.obs.hooks import execute_spec_with_heatmaps
from repro.runner import execute_spec, read_journal
from repro.runner.spec import ExperimentSpec, WorkloadSpec
from repro.serve import DaemonThread, ServeClient, ServeConfig
from repro.serve.protocol import read_frame_sync, write_frame_sync
from repro.sim.system import SystemConfig


def make_spec(seed=0, refs=60) -> ExperimentSpec:
    return ExperimentSpec(
        protocol="no-cache",
        workload=WorkloadSpec(
            kind="markov",
            n_nodes=4,
            n_references=refs,
            write_fraction=0.3,
            seed=seed,
            tasks=(0, 1),
        ),
        config=SystemConfig(n_nodes=4),
    )


@pytest.fixture
def socket_path():
    # Unix socket paths are length-limited (~108 bytes); pytest tmp_path
    # can exceed that, so sockets live under a short mkdtemp dir.
    tmp = tempfile.mkdtemp(prefix="repro-serve-")
    yield os.path.join(tmp, "d.sock")
    shutil.rmtree(tmp, ignore_errors=True)


def canonical(report_dict: dict) -> str:
    return json.dumps(report_dict, sort_keys=True)


def wait_until(predicate, timeout=30.0, label="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"{label} not reached within {timeout:g}s")


class TestLifecycle:
    def test_ping_status_and_clean_stop(self, socket_path):
        with DaemonThread(ServeConfig(socket_path=socket_path)):
            client = ServeClient(socket_path)
            assert client.ping() == {"type": "pong", "draining": False}
            status = client.status()
            assert status["executed"] == {}
            assert status["queue_depth"] == 0
            assert status["cache"]["hot_entries"] == 0
        assert not os.path.exists(socket_path)

    def test_config_validation(self, socket_path):
        with pytest.raises(ConfigurationError):
            ServeConfig(socket_path=socket_path, workers=0)
        with pytest.raises(ConfigurationError):
            ServeConfig(socket_path=socket_path, max_queue=0)

    def test_stale_socket_file_is_replaced(self, socket_path):
        leftover = socket_module.socket(
            socket_module.AF_UNIX, socket_module.SOCK_STREAM
        )
        leftover.bind(socket_path)
        leftover.close()  # dead daemon's socket file stays behind
        with DaemonThread(ServeConfig(socket_path=socket_path)):
            assert ServeClient(socket_path).ping()["type"] == "pong"

    def test_failed_start_leaves_nothing_behind(self, socket_path):
        # The unix socket binds first; the TCP port is already taken.
        with socket_module.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = holder.getsockname()[1]
            config = ServeConfig(
                socket_path=socket_path, listen=f"127.0.0.1:{port}"
            )
            with pytest.raises(ServeError, match="failed to start"):
                DaemonThread(config).start()
        assert not os.path.exists(socket_path)


class TestCoalescing:
    def test_duplicate_specs_execute_exactly_once(self, socket_path):
        """N concurrent submissions of one spec hash -> one execution."""
        gate = threading.Event()
        executions = []

        def gated(spec):
            executions.append(spec.spec_hash)
            assert gate.wait(30)
            return execute_spec(spec)

        spec = make_spec()
        config = ServeConfig(
            socket_path=socket_path, workers=2, task_fn=gated
        )
        n_clients = 8
        with DaemonThread(config):
            client = ServeClient(socket_path)
            with ThreadPoolExecutor(max_workers=n_clients) as pool:
                futures = [
                    pool.submit(
                        client.submit, [spec], name=f"dup-{i}"
                    )
                    for i in range(n_clients)
                ]
                # Every submission must be admitted (queued, coalesced,
                # or cached) before execution is released.
                def admitted() -> int:
                    status = client.status()
                    return (
                        status["coalesced"]
                        + status["cache"]["hot_hits"]
                        + len(executions)
                    )

                wait_until(
                    lambda: admitted() >= n_clients,
                    label="all submissions admitted",
                )
                gate.set()
                outcomes = [future.result(timeout=60) for future in futures]
            status = client.status()

        assert executions == [spec.spec_hash]
        assert status["executed"] == {spec.spec_hash: 1}
        payloads = {
            canonical(outcome.results[0]["report"])
            for outcome in outcomes
        }
        assert len(payloads) == 1  # byte-identical across all waiters
        assert payloads == {canonical(execute_spec(spec).to_dict())}
        sources = {outcome.results[0]["source"] for outcome in outcomes}
        assert "queued" in sources and sources <= {
            "queued", "coalesced", "hot"
        }

    def test_duplicates_within_one_submission_collapse(self, socket_path):
        spec = make_spec()
        with DaemonThread(ServeConfig(socket_path=socket_path)):
            client = ServeClient(socket_path)
            outcome = client.submit([spec, spec, spec], name="triple")
            status = client.status()
        assert outcome.accepted["tasks"] == 3
        assert outcome.accepted["unique"] == 1
        assert len(outcome.results) == 3
        assert status["executed"] == {spec.spec_hash: 1}
        assert len({canonical(f["report"]) for f in outcome.results}) == 1


class TestTiers:
    def test_second_submission_is_served_hot(self, socket_path):
        spec = make_spec()
        with DaemonThread(ServeConfig(socket_path=socket_path)):
            client = ServeClient(socket_path)
            first = client.submit([spec])
            again = client.submit([spec])
            status = client.status()
        assert first.results[0]["source"] == "queued"
        assert again.results[0]["source"] == "hot"
        assert status["executed"] == {spec.spec_hash: 1}
        # The client re-sent the same bytes, so the daemon parsed once.
        assert status["wire_memo"]["parse_hits"] == 1
        assert canonical(first.results[0]["report"]) == canonical(
            again.results[0]["report"]
        )

    def test_disk_tier_survives_a_daemon_restart(self, socket_path):
        spec = make_spec()
        cache_dir = os.path.join(os.path.dirname(socket_path), "cache")
        config = ServeConfig(socket_path=socket_path, cache_dir=cache_dir)
        with DaemonThread(config):
            ServeClient(socket_path).submit([spec])
        with DaemonThread(config):
            client = ServeClient(socket_path)
            outcome = client.submit([spec])
            status = client.status()
        assert outcome.results[0]["source"] == "disk"
        assert status["executed"] == {}  # nothing re-executed
        assert canonical(outcome.results[0]["report"]) == canonical(
            execute_spec(spec).to_dict()
        )

    def test_admission_events_name_the_serving_tier(self, socket_path):
        spec = make_spec()
        with DaemonThread(ServeConfig(socket_path=socket_path)):
            client = ServeClient(socket_path)
            first = client.submit([spec])
            again = client.submit([spec])
        first_kinds = [frame["event"] for frame in first.events]
        assert first_kinds[0] == "task_queued"
        assert "task_start" in first_kinds
        assert "task_finish" in first_kinds
        finish = next(
            frame for frame in first.events
            if frame["event"] == "task_finish"
        )
        assert finish["refs_per_sec"] is None or finish["refs_per_sec"] > 0
        assert [frame["event"] for frame in again.events] == ["task_hot"]


class TestStreamArtifacts:
    def test_a_fresh_cell_streams_one_artifact_a_repeat_none(
        self, socket_path
    ):
        spec = make_spec()
        config = ServeConfig(socket_path=socket_path, stream_artifacts=True)
        with DaemonThread(config):
            client = ServeClient(socket_path)
            first = client.submit([spec])
            again = client.submit([spec])
        assert [frame["spec_hash"] for frame in first.artifacts] == [
            spec.spec_hash
        ]
        heatmaps = execute_spec_with_heatmaps(spec)[1]
        assert first.artifacts[0]["heatmaps"] == json.loads(
            json.dumps(heatmaps)
        )
        assert again.results[0]["source"] == "hot"
        assert again.artifacts == []

    def test_needs_the_in_process_task_body(self, socket_path):
        with pytest.raises(ConfigurationError, match="exec_workers=0"):
            ServeConfig(
                socket_path=socket_path, stream_artifacts=True, exec_workers=1
            )


class TestBackpressure:
    def test_submission_beyond_max_queue_is_rejected_whole(
        self, socket_path
    ):
        gate = threading.Event()

        def gated(spec):
            assert gate.wait(30)
            return execute_spec(spec)

        config = ServeConfig(
            socket_path=socket_path,
            workers=1,
            max_queue=2,
            task_fn=gated,
        )
        try:
            with DaemonThread(config):
                client = ServeClient(socket_path)
                with ThreadPoolExecutor(max_workers=2) as pool:
                    # The lone worker picks up seed=0 and blocks at the
                    # gate; only then can two filler cells fully occupy
                    # the admission queue (max_queue=2).
                    held = pool.submit(
                        client.submit, [make_spec(seed=0)], name="hold"
                    )
                    wait_until(
                        lambda: client.status()["in_flight"] >= 1
                        and client.status()["queue_depth"] == 0,
                        label="worker holding the gated cell",
                    )
                    filler = pool.submit(
                        client.submit,
                        [make_spec(seed=s) for s in (1, 2)],
                        name="filler",
                    )
                    wait_until(
                        lambda: client.status()["queue_depth"] == 2,
                        label="queue filled to max_queue",
                    )
                    with pytest.raises(OverloadedError) as excinfo:
                        client.submit([make_spec(seed=9)], name="overflow")
                    assert "queue full" in str(excinfo.value)
                    status = client.status()
                    gate.set()
                    held.result(timeout=60)
                    filler.result(timeout=60)
        finally:
            gate.set()
        assert status["rejected"] == 1
        assert make_spec(seed=9).spec_hash not in status["executed"]

    def test_rejection_is_all_or_nothing(self, socket_path):
        gate = threading.Event()

        def gated(spec):
            assert gate.wait(30)
            return execute_spec(spec)

        config = ServeConfig(
            socket_path=socket_path,
            workers=1,
            max_queue=2,
            task_fn=gated,
        )
        try:
            with DaemonThread(config):
                client = ServeClient(socket_path)
                with ThreadPoolExecutor(max_workers=1) as pool:
                    blocked = pool.submit(
                        client.submit, [make_spec(seed=0)], name="hold"
                    )
                    wait_until(
                        lambda: client.status()["in_flight"] >= 1,
                        label="gated cell in flight",
                    )
                    # 3 new cells against max_queue=2: nothing admitted.
                    with pytest.raises(OverloadedError):
                        client.submit(
                            [make_spec(seed=s) for s in (5, 6, 7)]
                        )
                    assert client.status()["queue_depth"] == 0
                    gate.set()
                    blocked.result(timeout=60)
        finally:
            gate.set()


class TestDrain:
    def test_drain_finishes_admitted_work_then_removes_socket(
        self, socket_path
    ):
        spec = make_spec()
        daemon = DaemonThread(ServeConfig(socket_path=socket_path))
        with daemon:
            client = ServeClient(socket_path)
            outcome = client.submit([spec])
        assert outcome.results[0]["source"] == "queued"
        assert not os.path.exists(socket_path)
        assert not daemon._thread.is_alive()

    def test_draining_daemon_rejects_new_submissions(self, socket_path):
        spec = make_spec()
        with DaemonThread(ServeConfig(socket_path=socket_path)):
            # One long-lived raw connection: ask for drain, then submit
            # on the same connection while the daemon is draining.
            sock = socket_module.socket(
                socket_module.AF_UNIX, socket_module.SOCK_STREAM
            )
            sock.settimeout(30)
            sock.connect(socket_path)
            with sock, sock.makefile("rwb") as stream:
                write_frame_sync(stream, {"op": "drain"})
                assert read_frame_sync(stream) == {"type": "draining"}
                write_frame_sync(
                    stream,
                    {"op": "submit", "cells": [spec.to_dict()]},
                )
                answer = read_frame_sync(stream)
            assert answer["type"] == "rejected"
            assert "draining" in answer["reason"]
        assert not os.path.exists(socket_path)


class TestValidation:
    def test_malformed_cell_is_refused_with_its_index(self, socket_path):
        broken = make_spec().to_dict()
        broken["workload"]["kind"] = "no-such-generator"
        with DaemonThread(ServeConfig(socket_path=socket_path)):
            sock = socket_module.socket(
                socket_module.AF_UNIX, socket_module.SOCK_STREAM
            )
            sock.settimeout(30)
            sock.connect(socket_path)
            with sock, sock.makefile("rwb") as stream:
                write_frame_sync(
                    stream, {"op": "submit", "cells": [broken]}
                )
                answer = read_frame_sync(stream)
        assert answer["type"] == "error"
        assert "cell 0" in answer["error"]

    def test_out_of_range_task_is_refused_before_queueing(
        self, socket_path, tmp_path
    ):
        # A task outside the machine fails the spec's own check, so the
        # daemon answers an error and never admits, queues or runs it.
        broken = make_spec().to_dict()
        broken["workload"]["tasks"] = [0, 7]
        journal = tmp_path / "serve.jsonl"
        config = ServeConfig(socket_path=socket_path, journal_path=journal)
        with DaemonThread(config):
            sock = socket_module.socket(
                socket_module.AF_UNIX, socket_module.SOCK_STREAM
            )
            sock.settimeout(30)
            sock.connect(socket_path)
            with sock, sock.makefile("rwb") as stream:
                write_frame_sync(
                    stream, {"op": "submit", "cells": [broken]}
                )
                answer = read_frame_sync(stream)
            status = ServeClient(socket_path).status()
        assert answer["type"] == "error"
        assert "cell 0" in answer["error"]
        assert "task 7 outside 0..3" in answer["error"]
        assert status["executed"] == {}
        assert status["queue_depth"] == 0
        events = [entry["event"] for entry in read_journal(journal)]
        assert "serve_invalid" in events
        assert "task_start" not in events

    @pytest.mark.parametrize(
        "workload, reason",
        [
            (
                {"kind": "random", "locality": 2.0},
                "locality must be in [0, 1], got 2.0",
            ),
            (
                {"kind": "shared-structure", "n_blocks": 0},
                "n_blocks must be positive, got 0",
            ),
            (
                {"block_size_words": 0},
                "block_size_words must be positive, got 0",
            ),
        ],
        ids=["locality", "n_blocks", "block_size_words"],
    )
    def test_generator_argument_is_refused_before_queueing(
        self, socket_path, workload, reason
    ):
        # Refused by the spec at construction, not by build() on a worker.
        broken = make_spec().to_dict()
        broken["workload"].update(workload)
        with DaemonThread(ServeConfig(socket_path=socket_path)):
            sock = socket_module.socket(
                socket_module.AF_UNIX, socket_module.SOCK_STREAM
            )
            sock.settimeout(30)
            sock.connect(socket_path)
            with sock, sock.makefile("rwb") as stream:
                write_frame_sync(
                    stream, {"op": "submit", "cells": [broken]}
                )
                answer = read_frame_sync(stream)
            status = ServeClient(socket_path).status()
        assert answer["type"] == "error"
        assert answer["error"] == f"cell 0: {reason}"
        assert (answer["cell"], answer["reason"]) == (0, reason)
        assert status["executed"] == {}
        assert status["queue_depth"] == 0

    def test_unknown_op_answers_an_error_frame(self, socket_path):
        with DaemonThread(ServeConfig(socket_path=socket_path)):
            sock = socket_module.socket(
                socket_module.AF_UNIX, socket_module.SOCK_STREAM
            )
            sock.settimeout(30)
            sock.connect(socket_path)
            with sock, sock.makefile("rwb") as stream:
                write_frame_sync(stream, {"op": "florp"})
                answer = read_frame_sync(stream)
        assert answer["type"] == "error"
        assert "florp" in answer["error"]
