"""A ``python -m repro serve`` fleet as a subprocess, and the load generator.

The fleet is started exactly as a user would start it and reached only
through :class:`repro.serve.ServeClient`; its processes are measured
from outside (``/proc/<pid>/stat`` CPU ticks, ``/proc/<pid>/status``
``VmHWM``).  :class:`Fleet` is a context manager: on any exit path the
router gets SIGTERM (its own graceful drain, which drains the shards),
is killed after a deadline, and the scratch directory holding sockets,
cache and shard logs is removed.

Paths are kept relative to the checkout root (the benchmark's working
directory) so unix socket names stay under the 108-byte ``sun_path``
limit wherever the checkout lives.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.serve import ServeClient

from benchlib import procfs
from benchlib.workloads import FLEET_SHARDS, FLEET_WORKERS, Op

_DRAIN_DEADLINE = 20.0
_START_DEADLINE = 60.0


class Fleet:
    """One router + shards subprocess tree under ``scratch`` (relative)."""

    def __init__(self, scratch: Path, python_path: str) -> None:
        self.scratch = scratch
        self.socket = str(scratch / "r.sock")
        self._env = dict(os.environ, PYTHONPATH=python_path)
        self._process: subprocess.Popen | None = None
        self.pids: list[int] = []
        self.start_s = 0.0

    def __enter__(self) -> "Fleet":
        self.scratch.mkdir(parents=True)
        started = time.perf_counter()
        with open(self.scratch / "router.log", "ab") as log:
            self._process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--socket", self.socket,
                    "--shards", str(FLEET_SHARDS),
                    "--workers", str(FLEET_WORKERS),
                    "--cache-dir", str(self.scratch / "cache"),
                ],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=self._env,
                start_new_session=True,
            )
        try:
            self._await_ping(started)
            self.start_s = time.perf_counter() - started
            shards = ServeClient(self.socket).status()["shards"]
            self.pids = [self._process.pid] + [s["pid"] for s in shards]
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _await_ping(self, started: float) -> None:
        client = ServeClient(self.socket, connect_retries=0, timeout=10.0)
        while True:
            if self._process.poll() is not None:
                raise RuntimeError(
                    f"fleet exited with {self._process.returncode} before "
                    f"answering ping (see {self.scratch / 'router.log'})"
                )
            try:
                client.ping()
                return
            except (ConnectionRefusedError, FileNotFoundError):
                if time.perf_counter() - started > _START_DEADLINE:
                    raise RuntimeError("fleet did not answer ping in time")
                time.sleep(0.005)

    def shard_socket(self, index: int) -> str:
        return f"{self.socket}.shards/shard-{index}.sock"

    def cpu_s(self) -> tuple[float, float]:
        """CPU seconds so far of ``(router, all shards together)``."""
        router, *shards = (procfs.cpu_s(pid) for pid in self.pids)
        return router, sum(shards)

    def peak_rss_mb(self) -> float:
        return sum(procfs.peak_rss_mb(pid) for pid in self.pids)

    def __exit__(self, *exc_info: object) -> None:
        process = self._process
        if process is not None:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
                try:
                    process.wait(_DRAIN_DEADLINE)
                except subprocess.TimeoutExpired:
                    pass
            # The fleet is its own process group (the shards are the
            # router's children, not ours): whatever a drain left behind
            # -- a hung router, orphaned shards -- dies here, and we wait
            # until the group is empty.
            deadline = time.monotonic() + _DRAIN_DEADLINE
            while time.monotonic() < deadline:
                try:
                    os.killpg(process.pid, signal.SIGKILL)
                except ProcessLookupError:
                    break
                process.poll()
                time.sleep(0.01)
            process.wait()
        shutil.rmtree(self.scratch, ignore_errors=True)


# ---------------------------------------------------------------------------
# Closed-loop load generator: one thread and one connection per client
# ---------------------------------------------------------------------------


def direct_submit(client: ServeClient, op: Op, _op_id) -> list[dict]:
    """The untraced operation: one ``ServeClient.submit`` round trip."""
    outcome = client.submit(list(op.cells), name=op.name, stream=False)
    if outcome.errors:
        raise RuntimeError(f"{len(outcome.errors)} cell(s) errored")
    return outcome.results


def run_ops(
    socket_path: str,
    per_client: list[list[Op]],
    *,
    dial=ServeClient,
    submit=direct_submit,
    lane=lambda index: contextlib.nullcontext(),
):
    """Run every client's ops in sequence, all clients in parallel.

    ``dial(socket_path)`` is a context manager yielding the connection
    ``submit(connection, op, op_id)`` talks over, and ``lane(index)``
    one wrapping a client's whole loop; the traced pass swaps all three
    to stage the exchange under spans.

    Returns ``(wall, cpu, lanes)``: the pass wall time (barrier release
    to the last client finishing), this process's CPU over that interval,
    and per client a list of ``(latency_s or None, results or error)``
    per op, in order.  A failed op ends nothing: it is recorded and the
    client goes on (after a broken exchange ``ServeClient`` redials).
    """
    lanes: list[list] = [[] for _ in per_client]
    barrier = threading.Barrier(len(per_client) + 1)

    def client_loop(index: int, client) -> None:
        barrier.wait()
        with lane(index):
            for number, op in enumerate(per_client[index]):
                start = time.perf_counter()
                try:
                    results = submit(client, op, (index, number))
                except Exception as exc:  # boundary: count it, keep going
                    lanes[index].append((None, repr(exc)))
                    continue
                lanes[index].append((time.perf_counter() - start, results))

    with contextlib.ExitStack() as stack:
        # Dial here, not in the threads: a refused connection then fails
        # the pass before anything waits on the barrier.
        threads = [
            threading.Thread(
                target=client_loop,
                args=(index, stack.enter_context(dial(socket_path))),
            )
            for index in range(len(per_client))
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        cpu0 = time.process_time()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        return wall, time.process_time() - cpu0, lanes
