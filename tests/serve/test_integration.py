"""The serve daemon end-to-end: a real ``repro serve`` subprocess.

The acceptance scenario for the serving layer: a daemon started through
the CLI on a unix socket takes 100+ overlapping submissions from
concurrent clients, executes each unique spec hash exactly once, streams
progress events to every submission, rejects work beyond its admission
queue, returns results byte-identical to a direct executor run, and
drains cleanly on SIGTERM (exit 0, socket removed).
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.errors import OverloadedError
from repro.runner import execute_spec, read_journal
from repro.runner.spec import ExperimentSpec, WorkloadSpec
from repro.serve import ServeClient
from repro.sim.system import SystemConfig

REPO_ROOT = Path(__file__).resolve().parents[2]


def make_spec(protocol="no-cache", seed=0) -> ExperimentSpec:
    return ExperimentSpec(
        protocol=protocol,
        workload=WorkloadSpec(
            kind="markov",
            n_nodes=4,
            n_references=120,
            write_fraction=0.3,
            seed=seed,
            tasks=(0, 1),
        ),
        config=SystemConfig(n_nodes=4),
    )


def canonical(report_dict: dict) -> str:
    return json.dumps(report_dict, sort_keys=True)


def start_daemon(socket_path, *extra_args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--socket",
            str(socket_path),
            *extra_args,
        ],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if os.path.exists(socket_path):
            return process
        if process.poll() is not None:
            raise AssertionError(
                f"daemon exited {process.returncode} before binding:\n"
                f"{process.stdout.read()}"
            )
        time.sleep(0.05)
    process.kill()
    raise AssertionError("daemon did not bind its socket within 30s")


def stop_daemon(process):
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10)
    return process.returncode


@pytest.fixture
def serve_dir():
    tmp = tempfile.mkdtemp(prefix="repro-serve-")
    yield Path(tmp)
    shutil.rmtree(tmp, ignore_errors=True)


class TestServeEndToEnd:
    def test_overlapping_clients_execute_each_spec_once(self, serve_dir):
        """100+ overlapping submissions -> one execution per unique hash,
        events for every submission, byte-identical results."""
        socket_path = serve_dir / "serve.sock"
        journal_path = serve_dir / "journal.jsonl"
        grid = [
            make_spec(protocol=protocol, seed=seed)
            for protocol in ("no-cache", "write-once", "two-mode")
            for seed in (0, 1)
        ]
        direct = {
            spec.spec_hash: canonical(execute_spec(spec).to_dict())
            for spec in grid
        }
        n_clients, per_client = 12, 9  # 108 overlapping submissions
        process = start_daemon(
            socket_path, "--workers", "4", "--journal", str(journal_path)
        )
        try:
            def run_client(client_index):
                client = ServeClient(socket_path, timeout=120)
                outcomes = []
                for round_index in range(per_client):
                    # Rotate the grid so concurrent submissions overlap
                    # on the same hashes in different orders.
                    shift = (client_index + round_index) % len(grid)
                    cells = grid[shift:] + grid[:shift]
                    outcomes.append(
                        client.submit(cells, name=f"c{client_index}")
                    )
                return outcomes

            with ThreadPoolExecutor(max_workers=n_clients) as pool:
                futures = [
                    pool.submit(run_client, index)
                    for index in range(n_clients)
                ]
                all_outcomes = [
                    outcome
                    for future in futures
                    for outcome in future.result(timeout=300)
                ]
            status = ServeClient(socket_path).status()
        finally:
            returncode = stop_daemon(process)

        assert len(all_outcomes) == n_clients * per_client
        # Exactly one execution per unique spec hash, despite 108
        # overlapping submissions covering each hash 108 times.
        assert status["executed"] == {
            spec.spec_hash: 1 for spec in grid
        }
        for outcome in all_outcomes:
            assert outcome.done["failed"] == 0
            assert len(outcome.results) == len(grid)
            # Every submission saw at least one streamed event per
            # unique cell (its admission event, plus any task_start /
            # task_finish that landed while it was subscribed).
            assert len(outcome.events) >= len(grid)
            for frame in outcome.results:
                assert canonical(frame["report"]) == direct[
                    frame["spec_hash"]
                ]
        # Graceful SIGTERM drain: clean exit, socket removed, journal
        # closes with the shutdown record and one finish per unique cell.
        assert returncode == 0
        assert not socket_path.exists()
        events = [entry["event"] for entry in read_journal(journal_path)]
        assert events[0] == "serve_start"
        assert events[-1] == "serve_stop"
        assert events.count("task_finish") == len(grid)

    def test_overload_is_rejected_not_queued(self, serve_dir):
        socket_path = serve_dir / "serve.sock"
        process = start_daemon(
            socket_path, "--workers", "1", "--max-queue", "1"
        )
        try:
            client = ServeClient(socket_path, timeout=60)
            oversized = [make_spec(seed=seed) for seed in range(5)]
            with pytest.raises(OverloadedError, match="queue full"):
                client.submit(oversized, name="too-much")
            status = client.status()
            assert status["rejected"] == 1
            assert status["executed"] == {}  # all-or-nothing: none ran
            # A submission that fits is still served afterwards.
            outcome = client.submit([make_spec(seed=0)], name="fits")
            assert outcome.results[0]["source"] == "queued"
        finally:
            returncode = stop_daemon(process)
        assert returncode == 0
        assert not socket_path.exists()

    def test_submit_cli_round_trips_byte_identical(self, serve_dir):
        """Two ``repro submit`` clients write identical result files."""
        socket_path = serve_dir / "serve.sock"
        process = start_daemon(socket_path, "--workers", "2")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        outputs = [serve_dir / "a.json", serve_dir / "b.json"]
        try:
            for output in outputs:
                result = subprocess.run(
                    [
                        sys.executable, "-m", "repro", "submit",
                        "--socket", str(socket_path),
                        "--nodes", "8",
                        "--sharers", "2", "4",
                        "--references", "200",
                        "--quiet-events",
                        "--output", str(output),
                    ],
                    cwd=REPO_ROOT,
                    env=env,
                    capture_output=True,
                    text=True,
                    timeout=300,
                )
                assert result.returncode == 0, result.stdout + result.stderr
                assert "bits/reference vs sharers" in result.stdout
        finally:
            returncode = stop_daemon(process)
        assert returncode == 0
        assert outputs[0].read_bytes() == outputs[1].read_bytes()

    def test_sigterm_during_start_drains(self, serve_dir):
        """A SIGTERM between the bind and the end of ``start()`` -- what a
        router stopping its fleet mid-start sends -- drains the daemon:
        exit 0, the ``drained:`` line, no socket file left on disk."""
        socket_path = serve_dir / "d.sock"
        script = "\n".join(
            [
                "import os, signal, sys",
                "from repro.cli import main",
                "from repro.serve.daemon import ServeDaemon",
                "bind = ServeDaemon._bind",
                "async def _bind(self):",
                "    await bind(self)",
                "    os.kill(os.getpid(), signal.SIGTERM)",
                "ServeDaemon._bind = _bind",
                "sys.exit(main(sys.argv[1:]))",
            ]
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        result = subprocess.run(
            [
                sys.executable, "-c", script,
                "serve", "--socket", str(socket_path),
            ],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "drained:" in result.stdout
        assert not socket_path.exists()
