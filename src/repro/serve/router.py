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
graceful drain; the router socket is unlinked last.  A start that fails
after the spawn terminates every shard before the error propagates.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import sys
import time
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

from repro.errors import ConfigurationError, FrameError, ServeError
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import prometheus_text
from repro.runner.journal import _HASH_PREFIX
from repro.serve import protocol as wire
from repro.serve.listener import Listener, ListenerThread, _check_listen

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
    ``sample_interval``, the disk bounds and ``stream_artifacts``) are
    forwarded to every shard's command line; ``cache_dir`` and
    ``journal_dir`` get one subdirectory / file per shard so the stores
    stay disjoint.  ``restart_backoff`` / ``max_restarts`` bound crash
    recovery.
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
        _check_listen(self.listen)

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


class ServeRouter(Listener):
    """The client-facing endpoint over a supervised shard fleet.

    Lifecycle mirrors :class:`~repro.serve.daemon.ServeDaemon` (both
    are :class:`~repro.serve.listener.Listener`\\ s): :meth:`start`
    spawns the shards and binds the endpoints, then the service runs
    until :meth:`~Listener.request_stop` and drains.
    """

    #: In-progress submissions need live shards to finish, so open
    #: connections get longer than a daemon's before shards go down.
    _connection_grace = 30.0

    def __init__(self, config: RouterConfig) -> None:
        super().__init__(config)
        self.metrics = MetricsRegistry()
        self.shards = [
            ShardProcess(index, config) for index in range(config.shards)
        ]
        self._supervisors: list[asyncio.Task] = []
        # Router-wide free lists of idle shard connections, one per
        # shard index.  A daemon connection serves requests strictly in
        # sequence, so a connection is either checked out (owned by one
        # in-flight submission) or idle here -- never shared.
        self._pools: dict[int, list[tuple]] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Spawn the shards, then bind; a failure terminates every shard."""
        shard_dir = self.config.resolved_shard_dir()
        shard_dir.mkdir(parents=True, exist_ok=True)
        if self.config.journal_dir is not None:
            Path(self.config.journal_dir).mkdir(
                parents=True, exist_ok=True
            )
        try:
            spawned = await asyncio.gather(
                *(shard.spawn() for shard in self.shards),
                return_exceptions=True,
            )
            for outcome in spawned:
                if isinstance(outcome, BaseException):
                    raise outcome
            self._supervisors = [
                asyncio.create_task(
                    self._supervise(shard),
                    name=f"shard-supervisor-{shard.index}",
                )
                for shard in self.shards
            ]
            await self._bind()
        except BaseException:
            await self._stop_fleet()
            raise

    async def _shutdown(self) -> None:
        """Drain every shard (SIGTERM runs each daemon's own drain)."""
        for index in list(self._pools):
            self._close_pool(index)
        await self._stop_fleet()

    async def _stop_fleet(self) -> None:
        for supervisor in self._supervisors:
            supervisor.cancel()
        await asyncio.gather(*self._supervisors, return_exceptions=True)
        await asyncio.gather(*(shard.terminate() for shard in self.shards))

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
                failure = ServeError(f"shard {index}: {exc}")
            else:
                if got is not None:
                    return (conn, *got)
                failure = ServeError(f"shard {index} closed before answering")
            writer.close()
            if fresh:
                raise failure
            fresh = True
            conn = await self._connect_shard(shard)

    # ------------------------------------------------------------------
    # Submission fan-out
    # ------------------------------------------------------------------

    async def _ping_payload(self) -> dict:
        return {
            "type": "pong",
            "draining": self._draining,
            "router": True,
            "shards": self.config.shards,
        }

    def _admit(self, frame: dict) -> tuple:
        """Split a submission by owning shard.

        The plan is ``(name, request_id, n_cells, hashes, subframes,
        positions)``: ``positions`` maps shard index to the client's
        index of each cell it owns (so a shard's refusal of its cell
        ``k`` names the client's cell), ``hashes`` to the spec hashes it
        owns, and ``subframes`` holds the pre-encoded per-shard submit
        frame -- or ``None`` when every cell lands on one shard, which
        is the verbatim-relay path.  Cell order is preserved within
        each shard (the shard streams results in cell order, keeping
        the relayed stream deterministic per shard), and cells are
        forwarded exactly as received: the shard is the validation
        authority, the router only routes by hash.  The split is a pure
        function of the frame, so the wire memo may replay it.
        """
        name, cells, cell_hashes = wire.route_submit_cells(frame)
        request_id = frame.get("id")
        positions: dict[int, list[int]] = {}
        for position, cell_hash in enumerate(cell_hashes):
            index = shard_for(cell_hash, self.config.shards)
            positions.setdefault(index, []).append(position)
        hashes = {
            index: frozenset(cell_hashes[p] for p in owned)
            for index, owned in positions.items()
        }
        subframes: dict[int, bytes] | None = None
        if len(positions) > 1:
            stream_events = bool(frame.get("stream", True))
            subframes = {
                index: wire.encode_frame(
                    {
                        "op": "submit",
                        "name": name,
                        "stream": stream_events,
                        "cells": [cells[p] for p in owned],
                        "id": request_id,
                    }
                )
                for index, owned in positions.items()
            }
        return (name, request_id, len(cells), hashes, subframes, positions)

    async def _handle_submit(self, plan, raw, writer, lock) -> None:
        """Fan a submission out to its shards and relay their streams.

        One shard gets the client's own bytes, and its answer, from
        ``accepted`` to ``done``, is relayed untouched.  For several,
        the router writes ``accepted`` and ``done`` itself.  A shard
        lost mid-stream gets one ``error`` frame per unanswered cell
        and the router's own ``done``.
        """
        self.metrics.inc("router.requests")
        name, request_id, n_cells, hashes, subframes, positions = plan
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
            subframes = dict.fromkeys(hashes, raw)
        verbatim = len(subframes) == 1
        indices = sorted(subframes)
        answers = await _each(
            [self._shard_first(index, subframes[index]) for index in indices],
            return_exceptions=True,
        )
        shard_conns = {
            index: answer[0]
            for index, answer in zip(indices, answers)
            if not isinstance(answer, BaseException)
        }

        # First-frame barrier: the client protocol promises exactly one
        # accepted/rejected/error frame before any streaming.  If any
        # shard refuses, the whole submission refuses (all-or-nothing,
        # matching the daemon's own admission) and the accepted shards'
        # connections are dropped -- their work completes harmlessly
        # into their caches.  Of several refusals the one of the lowest
        # client cell is answered, as one daemon names its first bad
        # cell: a shard's refusal of its cell ``k`` by that cell's
        # client index, any other by the shard's first client cell.
        refusals = []
        for index, answer in zip(indices, answers):
            cell = positions[index][0]
            if isinstance(answer, BaseException):
                kind = "error"
                refusal = {"type": kind, "error": str(answer)}
            else:
                _conn, first, first_raw = answer
                kind = first.get("type")
                if kind == "accepted":
                    continue
                if verbatim:  # relayed as the shard's own bytes
                    refusal = first_raw
                elif kind == "rejected":
                    reason = f"shard {index}: {first.get('reason')}"
                    refusal = {"type": kind, "reason": reason}
                elif "cell" in first:  # named by the client's index
                    cell = positions[index][first["cell"]]
                    error = wire.CellError(cell, first["reason"])
                    refusal = {
                        "type": "error", "error": str(error),
                        "cell": cell, "reason": error.reason,
                    }
                else:
                    error = f"shard {index}: {first.get('error', first)}"
                    refusal = {"type": "error", "error": error}
            refusals.append((cell, kind, refusal))
        if refusals:
            _, kind, refusal = min(refusals, key=itemgetter(0))
            if isinstance(refusal, dict):
                refusal = wire.encode_frame({**refusal, "id": request_id})
            for owner, conn in shard_conns.items():
                if verbatim:  # the refusal was the shard's whole answer
                    self._checkin(owner, conn)
                else:
                    conn[1].close()
            if kind == "rejected":
                self.metrics.inc("router.rejected")
            await self._send_raw(writer, lock, refusal)
            return

        totals = {
            key: sum(first[key] for _conn, first, _raw in answers)
            for key in ("unique", "queued", "coalesced", "cached")
        }
        self.metrics.inc("router.accepted")
        if verbatim:
            await self._send_raw(writer, lock, answers[0][2])
        else:
            await self._send(
                writer,
                lock,
                {
                    "type": "accepted",
                    "id": request_id,
                    "name": name,
                    "tasks": n_cells,
                    **totals,
                },
            )

        failed = 0

        async def pump(index: int) -> bool:
            """Relay shard ``index``'s stream; False if it broke off."""
            nonlocal failed
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
                    # a ``done`` the router answers for is decoded.
                    kind = wire.peek_frame_type(shard_raw)
                    if kind == "done":
                        self._checkin(index, shard_conns.pop(index))
                        if verbatim:
                            await self._send_raw(writer, lock, shard_raw)
                        else:
                            payload = wire.decode_frame(shard_raw)
                            failed += payload.get("failed", 0)
                        return True
                    if kind in ("result", "error"):
                        pending.discard(wire.peek_spec_hash(shard_raw))
                    await self._send_raw(writer, lock, shard_raw)
            except (FrameError, ConnectionError, OSError, ServeError) as exc:
                # Shard lost mid-stream (crash, restart): answer every
                # still-pending cell with an error frame so the client's
                # submission terminates deterministically.
                conn = shard_conns.pop(index, None)
                if conn is not None:
                    conn[1].close()
                self.metrics.inc("router.relay_breaks")
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
                return False

        relayed = await _each([pump(index) for index in indices])
        if verbatim and relayed[0]:
            return  # the shard's own ``done`` went out
        await self._send(
            writer,
            lock,
            {
                "type": "done",
                "id": request_id,
                "name": name,
                "tasks": n_cells,
                "queued": totals["queued"],
                "coalesced": totals["coalesced"],
                "cached": totals["cached"],
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

    async def _fan_out(self, op: str) -> list:
        """One ``op`` round trip per shard, in order; None: no answer."""
        return await asyncio.gather(
            *(self._shard_roundtrip(shard, op) for shard in self.shards)
        )

    def _shard_info(self, frames: list) -> list[dict]:
        info = []
        for shard, frame in zip(self.shards, frames):
            counters = (frame or {}).get("metrics", {}).get("counters", {})
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

    def _merged_registry(self, live: list[dict]) -> MetricsRegistry:
        """Counters and histogram cells add; gauges sum across shards."""
        merged = MetricsRegistry()
        gauges: dict[str, float] = {}
        for frame in live:
            registry = MetricsRegistry.from_dict(frame.get("metrics", {}))
            merged.merge(registry)
            gauges = _key_sums((gauges, registry.gauges))
        merged.merge(self.metrics)
        merged.gauges.clear()
        merged.gauges.update({**gauges, **self.metrics.gauges})
        return merged

    async def _status_payload(self) -> dict:
        frames = await self._fan_out("status")
        live = [frame for frame in frames if frame is not None]

        def total(field: str, start: dict | None = None) -> dict:
            return _key_sums((frame.get(field, {}) for frame in live), start)

        admitted = ("accepted", "coalesced", "rejected", "requests")
        admission = total("admission", dict.fromkeys(admitted, 0))
        return {
            "type": "status",
            "router": True,
            "draining": self._draining,
            "shards": self._shard_info(frames),
            "executed": total("executed"),
            **{
                key: sum(frame.get(key, 0) for frame in live)
                for key in (
                    "queue_depth", "in_flight", "workers_busy",
                    "coalesced", "rejected",
                )
            },
            "admission": {**admission, "max_queue": self.config.max_queue},
            "cache": total("cache"),
            # This process's route memo beside the shards' parse memos;
            # as there, the misses include every frame that was not a
            # submit.
            "wire_memo": total(
                "wire_memo",
                {
                    "route_hits": self._memo.hits,
                    "route_misses": self._memo.misses,
                },
            ),
            "result_cache": total("result_cache"),
            "counts": total("counts"),
            "metrics": self._merged_registry(live).to_dict(),
        }

    async def _metrics_payload(self) -> dict:
        frames = await self._fan_out("metrics")
        live = [frame for frame in frames if frame is not None]
        merged = self._merged_registry(live)
        series: dict[str, dict] = {}
        for frame in live:
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
            "flight": _key_sums(
                (frame.get("flight", {}) for frame in live),
                {"events": 0, "dropped": 0, "dumps": 0},
            ),
        }


async def _each(coros: list, return_exceptions: bool = False) -> list:
    """:func:`asyncio.gather`, except that a lone coroutine is awaited.

    One shard is the common case, and a gather costs it a task and an
    event-loop pass per step -- about doubling the router's own time
    per hot single-shard submission.
    """
    if len(coros) != 1:
        return await asyncio.gather(
            *coros, return_exceptions=return_exceptions
        )
    try:
        return [await coros[0]]
    except Exception as exc:
        if not return_exceptions:
            raise
        return [exc]


def _key_sums(parts, start: dict | None = None) -> dict:
    """Add ``parts`` up key by key onto ``start`` (whose keys all stay)."""
    total = dict(start or {})
    for part in parts:
        for key, value in part.items():
            total[key] = total.get(key, 0) + value
    return total


class RouterThread(ListenerThread):
    """A :class:`ServeRouter` on a private event loop in a thread.

    The in-process deployment shape for tests and benchmarks, mirroring
    :class:`~repro.serve.daemon.DaemonThread`: real sockets, real shard
    subprocesses, context-manager lifecycle.
    """

    _label = "serve router"
    _thread_name = "repro-serve-router"
    _start_timeout = 60.0
    _stop_timeout = 60.0

    def __init__(self, config: RouterConfig) -> None:
        self.router = ServeRouter(config)
        super().__init__(self.router)
