"""Sharded serving: a spec-hash router over a fleet of serve daemons.

One :class:`~repro.serve.daemon.ServeDaemon` is one event loop -- its
coalescing table, caches and workers all live in a single process, which
caps aggregate throughput at whatever one interpreter can decode and
execute.  :class:`ServeRouter` scales the same protocol out: it owns the
client-facing endpoints (unix socket, optional TCP ``--listen``), spawns
``shards`` daemon subprocesses each bound to a private unix socket, and
forwards every submission cell to the shard that owns its spec hash.

The routing function is the whole consistency argument, borrowed from
the paper's own discipline of distributing directory state to the node
that owns the block: ``shard_for`` maps a spec's content hash to a shard
index, so *every* submission of a given cell -- from any client, over
any transport, at any time -- lands on the same shard.  In-flight
coalescing, exactly-once execution and the result cache therefore stay
correct per shard with **zero cross-shard coordination**: no locks, no
gossip, no shared state between shards.

Frames stream through, they are not buffered: the router reads each
shard frame once (to learn its type), then relays the *original bytes*
to the client (:func:`~repro.serve.protocol.read_frame_raw`), so
progress events, results and heatmap-artifact frames flow at shard
speed regardless of payload size.  Two throughput measures keep the
router off the critical path (``bench/``'s ``serve_hot`` workload
measures it): shard connections are pooled router-wide and reused across
submissions (a daemon connection carries any number of sequential
requests), and a submission whose cells all land on one shard is
relayed *verbatim* -- the client's own frame bytes go to the shard and
every response frame comes back untouched, with no re-encoding and no
aggregation arithmetic.

Supervision: every shard is restarted on crash with a deterministic
exponential backoff (``restart_backoff * 2**(restarts-1)``, capped),
up to ``max_restarts`` times.  A submission caught mid-stream by a
shard crash receives per-cell ``error`` frames for the unanswered
cells (the client's submission still terminates with ``done``), and a
resubmission after the restart re-executes and returns byte-identical
results.  Draining SIGTERMs every shard, which runs the daemon's own
graceful drain; the router socket is unlinked last.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError, FrameError, ServeError
from repro.lru import BoundedLRU
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import prometheus_text
from repro.runner.journal import _HASH_PREFIX
from repro.serve import protocol as wire

#: Hex digits of the spec hash used for shard selection.  Eight digits
#: (32 bits) spread uniformly; using a *prefix* keeps the mapping stable
#: under any future hash-length change.
_SHARD_HASH_DIGITS = 8

#: Connect-to-shard retry schedule (pure function of the attempt
#: number): enough total delay to bridge a shard restart window.
_SHARD_CONNECT_RETRIES = 7
_SHARD_CONNECT_BACKOFF = 0.05

#: Ceiling for the supervisor's exponential restart backoff.
_RESTART_BACKOFF_CAP = 5.0

#: How long a spawned shard may take to bind its socket.
_SPAWN_TIMEOUT = 30.0

#: Idle shard connections kept per shard for reuse; beyond this,
#: checked-in connections are simply closed.
_POOL_CAP = 32

#: Route-plan memo bounds (see ``ServeRouter._plan_submit``): keys are
#: raw frame bytes, values hold the pre-encoded per-shard subframes,
#: so both knobs bound memory.
_ROUTE_MEMO_ENTRIES = 32
_ROUTE_MEMO_MAX_FRAME = 256 * 1024


def shard_for(spec_hash: str, n_shards: int) -> int:
    """The shard that owns ``spec_hash`` -- stable, uniform, stateless."""
    return int(spec_hash[:_SHARD_HASH_DIGITS], 16) % n_shards


@dataclass(frozen=True)
class RouterConfig:
    """Everything a :class:`ServeRouter` needs, as frozen data.

    ``socket_path`` / ``listen`` are the *client-facing* endpoints;
    shard daemons bind private unix sockets under ``shard_dir``
    (default: ``<socket_path>.shards/``).  The executor-shaped knobs
    (``workers``, ``exec_workers``, ``max_queue``, ``hot_capacity``,
    ``retries``, cache and expiry settings) are forwarded to every
    shard; ``cache_dir`` and ``journal_dir`` get one subdirectory /
    file per shard so the stores stay disjoint.  ``restart_backoff`` /
    ``max_restarts`` bound crash recovery.
    """

    socket_path: str | Path
    shards: int = 4
    listen: str | None = None
    shard_dir: str | Path | None = None
    workers: int = 2
    exec_workers: int = 0
    max_queue: int = 64
    hot_capacity: int = 256
    cache_dir: str | Path | None = None
    journal_dir: str | Path | None = None
    retries: int = 1
    sample_interval: float = 1.0
    disk_max_bytes: int | None = None
    disk_max_age: float | None = None
    stream_artifacts: bool = False
    restart_backoff: float = 0.25
    max_restarts: int = 5

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigurationError(
                f"router shards must be >= 1, got {self.shards}"
            )
        if self.workers < 1:
            raise ConfigurationError(
                f"shard workers must be >= 1, got {self.workers}"
            )
        if self.max_queue < 1:
            raise ConfigurationError(
                f"max_queue must be >= 1, got {self.max_queue}"
            )
        if self.restart_backoff <= 0:
            raise ConfigurationError(
                f"restart_backoff must be > 0, got {self.restart_backoff}"
            )
        if self.max_restarts < 0:
            raise ConfigurationError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )
        if self.listen is not None:
            kind = wire.parse_address(self.listen)
            if kind[0] != "tcp":
                raise ConfigurationError(
                    f"listen must be a tcp host:port, got {self.listen!r}"
                )

    def resolved_shard_dir(self) -> Path:
        if self.shard_dir is not None:
            return Path(self.shard_dir)
        return Path(f"{self.socket_path}.shards")


class ShardProcess:
    """One shard: a ``repro serve`` subprocess on a private unix socket."""

    def __init__(self, index: int, config: RouterConfig) -> None:
        self.index = index
        self.config = config
        self.socket_path = (
            config.resolved_shard_dir() / f"shard-{index}.sock"
        )
        self.log_path = config.resolved_shard_dir() / f"shard-{index}.log"
        self.process: asyncio.subprocess.Process | None = None
        self.restarts = 0
        self.alive = False
        self.gave_up = False

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    def _command(self) -> list[str]:
        config = self.config
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--socket", str(self.socket_path),
            "--workers", str(config.workers),
            "--exec-workers", str(config.exec_workers),
            "--max-queue", str(config.max_queue),
            "--hot-capacity", str(config.hot_capacity),
            "--sample-interval", str(config.sample_interval),
        ]
        if config.cache_dir is not None:
            argv += [
                "--cache-dir",
                str(Path(config.cache_dir) / f"shard-{self.index}"),
            ]
        if config.journal_dir is not None:
            argv += [
                "--journal",
                str(Path(config.journal_dir) / f"shard-{self.index}.jsonl"),
            ]
        if config.disk_max_bytes is not None:
            argv += ["--disk-max-bytes", str(config.disk_max_bytes)]
        if config.disk_max_age is not None:
            argv += ["--disk-max-age", str(config.disk_max_age)]
        if config.stream_artifacts:
            argv += ["--stream-artifacts"]
        return argv

    async def spawn(self) -> None:
        """Start the subprocess and wait until its socket accepts."""
        with contextlib.suppress(OSError):
            self.socket_path.unlink()
        env = dict(os.environ)
        # The shard must import the same repro package as the router,
        # wherever it lives (a source tree, a wheel, a test venv).
        import repro

        package_root = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root + os.pathsep + existing
            if existing
            else package_root
        )
        with open(self.log_path, "ab") as log:
            self.process = await asyncio.create_subprocess_exec(
                *self._command(),
                stdout=log,
                stderr=asyncio.subprocess.STDOUT,
                env=env,
            )
        deadline = time.monotonic() + _SPAWN_TIMEOUT
        while not self.socket_path.exists():
            if self.process.returncode is not None:
                raise ServeError(
                    f"shard {self.index} exited with "
                    f"{self.process.returncode} before binding "
                    f"{self.socket_path} (see {self.log_path})"
                )
            if time.monotonic() > deadline:
                raise ServeError(
                    f"shard {self.index} did not bind {self.socket_path} "
                    f"within {_SPAWN_TIMEOUT:g}s (see {self.log_path})"
                )
            await asyncio.sleep(0.02)
        self.alive = True

    async def terminate(self, timeout: float = 30.0) -> None:
        """SIGTERM the shard (its own graceful drain) and wait."""
        self.alive = False
        process = self.process
        if process is None or process.returncode is not None:
            return
        with contextlib.suppress(ProcessLookupError):
            process.send_signal(signal.SIGTERM)
        try:
            await asyncio.wait_for(process.wait(), timeout)
        except asyncio.TimeoutError:
            with contextlib.suppress(ProcessLookupError):
                process.kill()
            await process.wait()


class ServeRouter:
    """The client-facing endpoint over a supervised shard fleet.

    Lifecycle mirrors :class:`~repro.serve.daemon.ServeDaemon`:
    :meth:`start` spawns the shards and binds the endpoints,
    :meth:`run_until_stopped` serves until :meth:`request_stop`, then
    :meth:`drain`\\ s.  Only :meth:`request_stop` is thread-safe.
    """

    def __init__(self, config: RouterConfig) -> None:
        self.config = config
        self.metrics = MetricsRegistry()
        self.shards = [
            ShardProcess(index, config) for index in range(config.shards)
        ]
        self.tcp_port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._tcp_server: asyncio.AbstractServer | None = None
        self._stop: asyncio.Event | None = None
        self._draining = False
        self._conn_tasks: set[asyncio.Task] = set()
        self._supervisors: list[asyncio.Task] = []
        # Router-wide free lists of idle shard connections, one per
        # shard index.  A daemon connection serves requests strictly in
        # sequence, so a connection is either checked out (owned by one
        # in-flight submission) or idle here -- never shared.
        self._pools: dict[int, list[tuple]] = {}
        # Route plans keyed by the submission's exact wire bytes: the
        # shard split is a pure function of the frame (and the fixed
        # shard count), so byte-identical resubmissions -- the steady
        # state of polling sweep clients -- skip the JSON decode, the
        # per-cell hashing and the subframe re-encode entirely.
        self._route_memo = BoundedLRU(_ROUTE_MEMO_ENTRIES)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        shard_dir = self.config.resolved_shard_dir()
        shard_dir.mkdir(parents=True, exist_ok=True)
        if self.config.journal_dir is not None:
            Path(self.config.journal_dir).mkdir(
                parents=True, exist_ok=True
            )
        await asyncio.gather(
            *(shard.spawn() for shard in self.shards)
        )
        self._supervisors = [
            asyncio.create_task(
                self._supervise(shard), name=f"shard-supervisor-{shard.index}"
            )
            for shard in self.shards
        ]
        path = Path(self.config.socket_path)
        if path.parent != Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        with contextlib.suppress(OSError):
            path.unlink()
        self._server = await asyncio.start_unix_server(
            self._handle_connection, path=str(path)
        )
        if self.config.listen is not None:
            _kind, host, port = wire.parse_address(self.config.listen)
            self._tcp_server = await asyncio.start_server(
                self._handle_connection, host=host, port=port
            )
            self.tcp_port = self._tcp_server.sockets[0].getsockname()[1]

    def request_stop(self) -> None:
        """Ask the router to drain and stop (safe from any thread)."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self._stop.set)

    async def run(self) -> None:
        await self.start()
        await self.run_until_stopped()

    async def run_until_stopped(self) -> None:
        await self._stop.wait()
        await self.drain()

    async def drain(self) -> None:
        """Stop admitting, drain every shard, unlink the socket last."""
        if self._draining:
            return
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
        # In-progress submissions need live shards to finish: give the
        # connection handlers a grace period before tearing down.
        if self._conn_tasks:
            _done, pending = await asyncio.wait(
                self._conn_tasks, timeout=30.0
            )
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
        for index in list(self._pools):
            self._close_pool(index)
        for supervisor in self._supervisors:
            supervisor.cancel()
        await asyncio.gather(
            *self._supervisors, return_exceptions=True
        )
        await asyncio.gather(
            *(shard.terminate() for shard in self.shards)
        )
        with contextlib.suppress(OSError):
            Path(self.config.socket_path).unlink()

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------

    async def _supervise(self, shard: ShardProcess) -> None:
        """Restart ``shard`` on crash, with bounded exponential backoff."""
        while True:
            await shard.process.wait()
            self._close_pool(shard.index)
            if self._draining:
                return
            shard.alive = False
            self.metrics.inc("router.shard_exits")
            if shard.restarts >= self.config.max_restarts:
                shard.gave_up = True
                self.metrics.inc("router.shards_gave_up")
                return
            shard.restarts += 1
            delay = min(
                self.config.restart_backoff
                * (2 ** (shard.restarts - 1)),
                _RESTART_BACKOFF_CAP,
            )
            await asyncio.sleep(delay)
            if self._draining:
                return
            try:
                await shard.spawn()
            except ServeError:
                # Spawn itself failed; loop around and treat it as
                # another exit (the restart budget still bounds this).
                continue
            self.metrics.inc("router.shard_restarts")

    async def _connect_shard(
        self, shard: ShardProcess
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        """Connect to a shard, retrying across a restart window."""
        attempt = 0
        while True:
            try:
                return await asyncio.open_unix_connection(
                    str(shard.socket_path)
                )
            except OSError as exc:
                attempt += 1
                if shard.gave_up or attempt > _SHARD_CONNECT_RETRIES:
                    raise ServeError(
                        f"shard {shard.index} unavailable: {exc}"
                    ) from None
                await asyncio.sleep(
                    _SHARD_CONNECT_BACKOFF * (2 ** (attempt - 1))
                )

    # ------------------------------------------------------------------
    # Shard connection pool
    # ------------------------------------------------------------------

    def _checkin(self, index: int, conn: tuple) -> None:
        """Return an idle, healthy shard connection to the free list."""
        pool = self._pools.setdefault(index, [])
        if self._draining or len(pool) >= _POOL_CAP:
            conn[1].close()
            return
        pool.append(conn)

    def _close_pool(self, index: int) -> None:
        for conn in self._pools.pop(index, []):
            conn[1].close()

    async def _shard_first(
        self, index: int, raw: bytes
    ) -> tuple[tuple, dict, bytes]:
        """Send ``raw`` to shard ``index``; read the first answer frame.

        Prefers a pooled connection; a pooled connection that fails
        before answering is assumed stale (the shard restarted under
        it) and the exchange is retried exactly once on a fresh dial.
        Returns ``(conn, first_payload, first_raw)`` with ``conn``
        checked out -- the caller must check it back in or close it.
        """
        shard = self.shards[index]
        pool = self._pools.get(index)
        conn = pool.pop() if pool else None
        fresh = conn is None
        if conn is None:
            conn = await self._connect_shard(shard)
        while True:
            reader, writer = conn
            try:
                writer.write(raw)
                await writer.drain()
                got = await wire.read_frame_raw(reader)
            except (FrameError, ConnectionError, OSError) as exc:
                writer.close()
                if fresh:
                    raise ServeError(f"shard {index}: {exc}") from None
                fresh = True
                conn = await self._connect_shard(shard)
                continue
            if got is None:
                writer.close()
                if fresh:
                    raise ServeError(
                        f"shard {index} closed before answering"
                    )
                fresh = True
                conn = await self._connect_shard(shard)
                continue
            payload, first_raw = got
            return conn, payload, first_raw

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        lock = asyncio.Lock()
        try:
            while True:
                try:
                    raw = await wire.read_frame_bytes(reader)
                    if raw is None:
                        break
                    plan = self._route_memo.get(raw)
                    if plan is not None:
                        # Byte-identical resubmission: route it without
                        # decoding, hashing or re-encoding anything.
                        await self._handle_submit(
                            plan, raw, writer, lock
                        )
                        continue
                    frame = wire.decode_frame(raw)
                except FrameError as exc:
                    await self._send(
                        writer, lock, {"type": "error", "error": str(exc)}
                    )
                    break
                op = frame.get("op")
                if op == "ping":
                    await self._send(
                        writer,
                        lock,
                        {
                            "type": "pong",
                            "draining": self._draining,
                            "router": True,
                            "shards": self.config.shards,
                        },
                    )
                elif op == "status":
                    await self._send(
                        writer, lock, await self._status_payload()
                    )
                elif op == "metrics":
                    await self._send(
                        writer, lock, await self._metrics_payload()
                    )
                elif op == "drain":
                    self.request_stop()
                    await self._send(writer, lock, {"type": "draining"})
                elif op == "submit":
                    try:
                        plan = self._plan_submit(frame, raw)
                    except ConfigurationError as exc:
                        await self._send(
                            writer,
                            lock,
                            {
                                "type": "error",
                                "error": str(exc),
                                "id": frame.get("id"),
                            },
                        )
                    else:
                        await self._handle_submit(
                            plan, raw, writer, lock
                        )
                else:
                    await self._send(
                        writer,
                        lock,
                        {"type": "error", "error": f"unknown op {op!r}"},
                    )
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing left to tell it
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    @staticmethod
    async def _send(writer, lock: asyncio.Lock, payload: dict) -> None:
        async with lock:
            await wire.write_frame(writer, payload)

    @staticmethod
    async def _relay(writer, lock: asyncio.Lock, raw: bytes) -> None:
        async with lock:
            writer.write(raw)
            await writer.drain()

    # ------------------------------------------------------------------
    # Submission fan-out
    # ------------------------------------------------------------------

    def _plan_submit(self, frame: dict, raw: bytes) -> tuple:
        """Split a submission by owning shard, memoised on wire bytes.

        The plan is ``(name, request_id, n_cells, hashes, subframes)``
        where ``hashes`` maps shard index to the spec hashes it owns
        and ``subframes`` holds the pre-encoded per-shard submit frame
        -- or ``None`` when every cell lands on one shard, which is
        the verbatim-relay fast path.  Cell order is preserved within
        each shard (the shard streams results in cell order, keeping
        the relayed stream deterministic per shard), and cells are
        forwarded exactly as received: the shard is the validation
        authority, the router only routes by hash.  A malformed frame
        raises before anything is memoised.
        """
        name, cells, cell_hashes = wire.route_submit_cells(frame)
        request_id = frame.get("id")
        groups: dict[int, list] = {}
        owned: dict[int, set] = {}
        for cell, cell_hash in zip(cells, cell_hashes):
            index = shard_for(cell_hash, self.config.shards)
            groups.setdefault(index, []).append(cell)
            owned.setdefault(index, set()).add(cell_hash)
        hashes = {
            index: frozenset(group) for index, group in owned.items()
        }
        subframes: dict[int, bytes] | None = None
        if len(groups) > 1:
            stream_events = bool(frame.get("stream", True))
            subframes = {
                index: wire.encode_frame(
                    {
                        "op": "submit",
                        "name": name,
                        "stream": stream_events,
                        "cells": groups[index],
                        "id": request_id,
                    }
                )
                for index in groups
            }
        plan = (name, request_id, len(cells), hashes, subframes)
        if len(raw) <= _ROUTE_MEMO_MAX_FRAME:
            self._route_memo.put(raw, plan)
        return plan

    async def _handle_submit(self, plan, raw, writer, lock) -> None:
        self.metrics.inc("router.requests")
        name, request_id, n_cells, hashes, subframes = plan
        if self._draining:
            self.metrics.inc("router.rejected")
            await self._send(
                writer,
                lock,
                {
                    "type": "rejected",
                    "reason": "draining: router is shutting down",
                    "id": request_id,
                },
            )
            return

        if subframes is None:
            (index,) = hashes
            await self._submit_single(
                index, request_id, raw, hashes[index], writer, lock
            )
            return

        shard_conns: dict[int, tuple] = {}

        def drop_conn(index: int) -> None:
            conn = shard_conns.pop(index, None)
            if conn is not None:
                conn[1].close()

        async def open_one(index: int) -> dict:
            conn, first, _raw = await self._shard_first(
                index, subframes[index]
            )
            shard_conns[index] = conn
            return first

        indices = sorted(subframes)
        firsts = await asyncio.gather(
            *(open_one(index) for index in indices),
            return_exceptions=True,
        )

        # First-frame barrier: the client protocol promises exactly one
        # accepted/rejected/error frame before any streaming.  If any
        # shard refuses, the whole submission refuses (all-or-nothing,
        # matching the daemon's own admission) and the accepted shards'
        # connections are dropped -- their work completes harmlessly
        # into their caches.
        refusal = None
        for index, first in zip(indices, firsts):
            if isinstance(first, BaseException):
                refusal = refusal or {
                    "type": "error",
                    "error": str(first),
                    "id": request_id,
                }
            elif first.get("type") == "rejected":
                refusal = refusal or {
                    "type": "rejected",
                    "reason": (
                        f"shard {index}: {first.get('reason')}"
                    ),
                    "id": request_id,
                }
            elif first.get("type") != "accepted":
                refusal = refusal or {
                    "type": "error",
                    "error": (
                        f"shard {index}: {first.get('error', first)}"
                    ),
                    "id": request_id,
                }
        if refusal is not None:
            for index in indices:
                drop_conn(index)
            if refusal["type"] == "rejected":
                self.metrics.inc("router.rejected")
            await self._send(writer, lock, refusal)
            return

        accepted = {
            "type": "accepted",
            "id": request_id,
            "name": name,
            "tasks": n_cells,
            "unique": sum(first["unique"] for first in firsts),
            "queued": sum(first["queued"] for first in firsts),
            "coalesced": sum(first["coalesced"] for first in firsts),
            "cached": sum(first["cached"] for first in firsts),
        }
        self.metrics.inc("router.accepted")
        await self._send(writer, lock, accepted)

        counts = {"failed": 0}

        async def pump(index: int) -> None:
            shard_reader = shard_conns[index][0]
            pending = set(hashes[index])
            try:
                while True:
                    shard_raw = await wire.read_frame_bytes(shard_reader)
                    if shard_raw is None:
                        raise ServeError(
                            f"shard {index} closed mid-submission"
                        )
                    # Tail-peek instead of JSON-decoding: the relay
                    # only needs the kind (and, for result/error, the
                    # hash to retire); the payload stays opaque.  Only
                    # the one ``done`` frame is decoded, for counts.
                    kind = wire.peek_frame_type(shard_raw)
                    if kind == "done":
                        payload = wire.decode_frame(shard_raw)
                        counts["failed"] += payload.get("failed", 0)
                        conn = shard_conns.pop(index)
                        self._checkin(index, conn)
                        return
                    if kind in ("result", "error"):
                        pending.discard(wire.peek_spec_hash(shard_raw))
                    await self._relay(writer, lock, shard_raw)
            except (FrameError, ConnectionError, OSError, ServeError) as exc:
                # Shard lost mid-stream (crash, restart): answer every
                # still-pending cell with an error frame so the client's
                # submission terminates deterministically.
                drop_conn(index)
                self.metrics.inc("router.relay_breaks")
                for spec_hash in sorted(pending):
                    counts["failed"] += 1
                    await self._send(
                        writer,
                        lock,
                        {
                            "type": "error",
                            "task": spec_hash[:_HASH_PREFIX],
                            "spec_hash": spec_hash,
                            "error": (
                                f"shard {index} connection lost: {exc}"
                            ),
                        },
                    )

        await asyncio.gather(*(pump(index) for index in indices))
        await self._send(
            writer,
            lock,
            {
                "type": "done",
                "id": request_id,
                "name": name,
                "tasks": n_cells,
                "queued": accepted["queued"],
                "coalesced": accepted["coalesced"],
                "cached": accepted["cached"],
                "failed": counts["failed"],
            },
        )

    async def _submit_single(
        self, index, request_id, raw, pending_hashes, writer, lock
    ) -> None:
        """Fast path: every cell owned by one shard -> verbatim relay.

        The client's own frame bytes go to the shard and every response
        frame (``accepted`` through ``done``) is relayed untouched --
        the shard's answer for the whole submission *is* the router's
        answer, bit for bit.  Only a mid-stream connection loss makes
        the router speak for itself: per-cell ``error`` frames for the
        unanswered cells, then a synthesised ``done``.
        """
        try:
            conn, first, first_raw = await self._shard_first(index, raw)
        except ServeError as exc:
            await self._send(
                writer,
                lock,
                {"type": "error", "error": str(exc), "id": request_id},
            )
            return
        if first.get("type") != "accepted":
            if first.get("type") == "rejected":
                self.metrics.inc("router.rejected")
            self._checkin(index, conn)
            await self._relay(writer, lock, first_raw)
            return
        self.metrics.inc("router.accepted")
        await self._relay(writer, lock, first_raw)
        pending = set(pending_hashes)
        shard_reader = conn[0]
        try:
            while True:
                shard_raw = await wire.read_frame_bytes(shard_reader)
                if shard_raw is None:
                    raise ServeError(
                        f"shard {index} closed mid-submission"
                    )
                # Tail-peek, never decode: result payloads relay as
                # opaque bytes; only the kind steers the loop.
                kind = wire.peek_frame_type(shard_raw)
                if kind in ("result", "error"):
                    pending.discard(wire.peek_spec_hash(shard_raw))
                await self._relay(writer, lock, shard_raw)
                if kind == "done":
                    self._checkin(index, conn)
                    return
        except (FrameError, ConnectionError, OSError, ServeError) as exc:
            conn[1].close()
            self.metrics.inc("router.relay_breaks")
            failed = 0
            for spec_hash in sorted(pending):
                failed += 1
                await self._send(
                    writer,
                    lock,
                    {
                        "type": "error",
                        "task": spec_hash[:_HASH_PREFIX],
                        "spec_hash": spec_hash,
                        "error": (
                            f"shard {index} connection lost: {exc}"
                        ),
                    },
                )
            await self._send(
                writer,
                lock,
                {
                    "type": "done",
                    "id": request_id,
                    "name": first.get("name"),
                    "tasks": first.get("tasks"),
                    "queued": first.get("queued"),
                    "coalesced": first.get("coalesced"),
                    "cached": first.get("cached"),
                    "failed": failed,
                },
            )

    # ------------------------------------------------------------------
    # Aggregation (status / metrics ops)
    # ------------------------------------------------------------------

    async def _shard_roundtrip(
        self, shard: ShardProcess, op: str
    ) -> dict | None:
        """One ``op`` round trip on an ephemeral shard connection."""
        try:
            shard_reader, shard_writer = await self._connect_shard(shard)
        except ServeError:
            return None
        try:
            await wire.write_frame(shard_writer, {"op": op})
            return await wire.read_frame(shard_reader)
        except (FrameError, ConnectionError, OSError):
            return None
        finally:
            shard_writer.close()
            with contextlib.suppress(Exception):
                await shard_writer.wait_closed()

    def _shard_info(self, frames: list) -> list[dict]:
        info = []
        for shard, frame in zip(self.shards, frames):
            counters = (
                frame.get("metrics", {}).get("counters", {})
                if isinstance(frame, dict)
                else {}
            )
            info.append(
                {
                    "index": shard.index,
                    "alive": shard.alive and frame is not None,
                    "restarts": shard.restarts,
                    "gave_up": shard.gave_up,
                    "pid": shard.pid,
                    "requests": counters.get("serve.requests", 0),
                    "executed": counters.get("serve.executed", 0),
                }
            )
        return info

    def _merged_registry(self, frames: list) -> MetricsRegistry:
        """Counters and histogram cells add; gauges sum across shards."""
        merged = MetricsRegistry()
        gauge_sums: dict[str, float] = {}
        for frame in frames:
            if not isinstance(frame, dict):
                continue
            registry = MetricsRegistry.from_dict(
                frame.get("metrics", {})
            )
            merged.merge(registry)
            for gauge_name, value in registry.gauges.items():
                gauge_sums[gauge_name] = (
                    gauge_sums.get(gauge_name, 0) + value
                )
        merged.merge(self.metrics)
        gauge_sums.update(self.metrics.gauges)
        merged.gauges.clear()
        merged.gauges.update(gauge_sums)
        return merged

    async def _status_payload(self) -> dict:
        frames = await asyncio.gather(
            *(
                self._shard_roundtrip(shard, "status")
                for shard in self.shards
            )
        )
        executed: dict[str, int] = {}
        sums = {
            "queue_depth": 0,
            "in_flight": 0,
            "workers_busy": 0,
            "coalesced": 0,
            "rejected": 0,
        }
        admission = {"accepted": 0, "coalesced": 0, "rejected": 0,
                     "requests": 0, "max_queue": self.config.max_queue}
        cache: dict[str, int] = {}
        # This process's route memo beside the shards' parse memos; as
        # there, the misses include every frame that was not a submit.
        wire_memo = {
            "route_hits": self._route_memo.hits,
            "route_misses": self._route_memo.misses,
        }
        result_cache: dict[str, int] = {}
        journal_counts: dict[str, int] = {}
        for frame in frames:
            if not isinstance(frame, dict):
                continue
            for spec_hash, count in frame.get("executed", {}).items():
                executed[spec_hash] = executed.get(spec_hash, 0) + count
            for key in sums:
                sums[key] += frame.get(key, 0)
            for key in ("accepted", "coalesced", "rejected", "requests"):
                admission[key] += frame.get("admission", {}).get(key, 0)
            for key, value in frame.get("cache", {}).items():
                cache[key] = cache.get(key, 0) + value
            for key, value in frame.get("wire_memo", {}).items():
                wire_memo[key] = wire_memo.get(key, 0) + value
            for key, value in frame.get("result_cache", {}).items():
                result_cache[key] = result_cache.get(key, 0) + value
            for key, value in frame.get("counts", {}).items():
                journal_counts[key] = journal_counts.get(key, 0) + value
        return {
            "type": "status",
            "router": True,
            "draining": self._draining,
            "shards": self._shard_info(frames),
            "executed": dict(sorted(executed.items())),
            "queue_depth": sums["queue_depth"],
            "in_flight": sums["in_flight"],
            "workers_busy": sums["workers_busy"],
            "coalesced": sums["coalesced"],
            "rejected": sums["rejected"],
            "admission": dict(sorted(admission.items())),
            "cache": dict(sorted(cache.items())),
            "wire_memo": dict(sorted(wire_memo.items())),
            "result_cache": dict(sorted(result_cache.items())),
            "counts": dict(sorted(journal_counts.items())),
            "metrics": self._merged_registry(frames).to_dict(),
        }

    async def _metrics_payload(self) -> dict:
        frames = await asyncio.gather(
            *(
                self._shard_roundtrip(shard, "metrics")
                for shard in self.shards
            )
        )
        merged = self._merged_registry(frames)
        series: dict[str, dict] = {}
        for frame in frames:
            if not isinstance(frame, dict):
                continue
            for series_name, ring in frame.get("series", {}).items():
                into = series.setdefault(
                    series_name, {"ticks": [], "values": []}
                )
                ticks, values = ring.get("ticks", []), ring.get(
                    "values", []
                )
                if len(values) > len(into["values"]):
                    # Longest ring wins the timeline; shorter rings sum
                    # into its tail (aligned from the most recent tick).
                    into["ticks"], into["values"] = (
                        list(ticks),
                        list(values),
                    )
                    continue
                offset = len(into["values"]) - len(values)
                for position, value in enumerate(values):
                    into["values"][offset + position] += value
        flight = {"events": 0, "dropped": 0, "dumps": 0}
        for frame in frames:
            if not isinstance(frame, dict):
                continue
            for key in flight:
                flight[key] += frame.get("flight", {}).get(key, 0)
        return {
            "type": "metrics",
            "router": True,
            "draining": self._draining,
            "shards": self._shard_info(frames),
            "text": prometheus_text(merged),
            "metrics": merged.to_dict(),
            "series": {
                name: series[name] for name in sorted(series)
            },
            "flight": flight,
        }


class RouterThread:
    """A :class:`ServeRouter` on a private event loop in a thread.

    The in-process deployment shape for tests and benchmarks, mirroring
    :class:`~repro.serve.daemon.DaemonThread`: real sockets, real shard
    subprocesses, context-manager lifecycle.
    """

    def __init__(self, config: RouterConfig) -> None:
        self.config = config
        self.router = ServeRouter(config)
        self._ready = threading.Event()
        self._failure: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-router", daemon=True
        )

    def start(self, timeout: float = 60.0) -> "RouterThread":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise ServeError(
                f"serve router did not start within {timeout:g}s"
            )
        if self._failure is not None:
            raise ServeError(
                f"serve router failed to start: {self._failure!r}"
            ) from self._failure
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced by start() or stop()
            self._failure = exc
            self._ready.set()

    async def _main(self) -> None:
        await self.router.start()
        self._ready.set()
        await self.router.run_until_stopped()

    def stop(self, timeout: float = 60.0) -> None:
        self.router.request_stop()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise ServeError(
                f"serve router did not drain within {timeout:g}s"
            )

    def __enter__(self) -> "RouterThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
