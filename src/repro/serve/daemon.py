"""The experiment-serving daemon: coalescing, caching, backpressure.

:class:`ServeDaemon` is a long-running asyncio service that accepts
sweep submissions over a unix socket (see :mod:`repro.serve.protocol`
for the wire format), validates them into
:class:`~repro.runner.spec.ExperimentSpec` cells, and satisfies each
unique cell exactly once:

* **two-tier cache** -- a :class:`~repro.runner.cache.TieredResultCache`
  (bounded in-memory LRU over the optional disk store) answers repeated
  submissions without touching the executor;
* **in-flight coalescing** -- cells already executing are joined, not
  re-queued: every submitter of a spec hash awaits the *same* future,
  so a thousand clients with overlapping sweeps collapse to one
  execution each;
* **admission control** -- new work beyond ``max_queue`` pending cells
  is rejected whole (``rejected`` frame, all-or-nothing) rather than
  buffered without bound; rejection is explicit backpressure, never
  silent queueing;
* **worker pool** -- ``workers`` asyncio workers each run one cell at a
  time through the existing :class:`~repro.runner.executor.Executor`
  (in a thread via ``asyncio.to_thread``; ``exec_workers`` forwards to
  the executor's own process fan-out), so retry/backoff/error
  classification semantics are exactly the CLI's;
* **streamed progress** -- every journal event carrying a task hash
  (``task_start``, ``task_finish`` with ``refs_per_sec``, retries,
  fault events) is broadcast to the clients whose submissions cover
  that task, prefixed by an admission event (``task_hot`` /
  ``task_disk`` / ``task_coalesced`` / ``task_queued``) telling each
  client how each cell will be satisfied;
* **graceful drain** -- on ``drain`` (or SIGTERM via the CLI) the
  daemon stops admitting, finishes every queued and in-flight cell,
  lets connected clients collect their results, fsyncs the journal and
  removes the socket.

The daemon journals through a :class:`~repro.runner.journal.RunJournal`
with ``fsync=True``, so a ``SIGKILL`` at any instant leaves at most one
torn final line -- which :func:`~repro.runner.journal.read_journal`
drops by design.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.errors import ConfigurationError
from repro.faults.incidents import incident_entries
from repro.lru import BoundedLRU
from repro.obs.metrics import LATENCY_BUCKETS_MS, MetricsRegistry
from repro.obs.recorder import FLIGHT_CAPACITY, FlightRecorder
from repro.obs.telemetry import TelemetrySampler, prometheus_text
from repro.runner.cache import TieredResultCache
from repro.runner.executor import Executor
from repro.runner.journal import _HASH_PREFIX, RunJournal
from repro.runner.spec import ExperimentSpec
from repro.serve import protocol as wire
from repro.serve.listener import Listener, ListenerThread, _check_listen

#: Rejection-burst window: this many rejections inside
#: ``_REJECT_BURST_WINDOW`` seconds counts as an overload incident and
#: triggers an automatic flight-recorder dump.
_REJECT_BURST_WINDOW = 10.0

#: In-memory event cap for the daemon journal: beyond this the oldest
#: half is dropped from RAM (the file, when configured, keeps all of
#: them).  Counts stay exact -- they are tallied incrementally.
_JOURNAL_EVENT_CAP = 20000

@dataclass(frozen=True)
class ServeConfig:
    """Everything a :class:`ServeDaemon` needs, as frozen data.

    ``workers`` is the number of concurrently executing cells (each runs
    in its own thread); ``exec_workers`` is forwarded to each cell's
    :class:`~repro.runner.executor.Executor` (0 = in-process, the
    default -- process fan-out *per cell* only pays off for huge cells).
    ``max_queue`` bounds cells admitted but not yet started; submissions
    that would exceed it are rejected whole.  ``task_fn`` is the
    executor's testing hook, threaded through for deterministic daemon
    tests.

    Telemetry knobs: ``sample_interval`` is the wall-clock cadence (in
    seconds) at which the :class:`~repro.obs.telemetry.TelemetrySampler`
    snapshots the registry; ``flight_capacity`` bounds the always-on
    :class:`~repro.obs.recorder.FlightRecorder` ring; ``flight_dir``,
    when set, is where incident dumps land as JSONL (without it the ring
    still records, but nothing is written); ``reject_burst`` is how many
    rejections within ten seconds count as an overload incident.

    ``listen`` adds a TCP endpoint (``host:port``) alongside the unix
    socket -- same protocol, same handler; port 0 picks a free port,
    readable afterwards as :attr:`ServeDaemon.tcp_port`.  **No
    authentication**: bind only on trusted networks (docs/SERVE.md).
    ``disk_max_bytes`` / ``disk_max_age`` forward to the disk tier's
    expiry policy (:class:`~repro.runner.cache.ResultCache`).
    ``stream_artifacts`` makes every fresh execution stream its network
    heatmaps to subscribed clients as an ``artifact`` frame (requires
    the in-process task body, ``exec_workers=0``).
    """

    socket_path: str | Path
    workers: int = 2
    exec_workers: int = 0
    max_queue: int = 64
    hot_capacity: int = 256
    cache_dir: str | Path | None = None
    journal_path: str | Path | None = None
    retries: int = 1
    task_fn: Callable | None = None
    sample_interval: float = 1.0
    flight_capacity: int = FLIGHT_CAPACITY
    flight_dir: str | Path | None = None
    reject_burst: int = 8
    listen: str | None = None
    disk_max_bytes: int | None = None
    disk_max_age: float | None = None
    stream_artifacts: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(
                f"serve workers must be >= 1, got {self.workers}"
            )
        if self.max_queue < 1:
            raise ConfigurationError(
                f"max_queue must be >= 1, got {self.max_queue}"
            )
        if self.sample_interval <= 0:
            raise ConfigurationError(
                f"sample_interval must be > 0, got {self.sample_interval}"
            )
        if self.reject_burst < 2:
            raise ConfigurationError(
                f"reject_burst must be >= 2, got {self.reject_burst}"
            )
        _check_listen(self.listen)
        if self.stream_artifacts and self.exec_workers != 0:
            raise ConfigurationError(
                "stream_artifacts needs the in-process task body "
                "(exec_workers=0): heatmaps are captured from the "
                "network object the cell just drove"
            )
        if self.stream_artifacts and self.task_fn is not None:
            raise ConfigurationError(
                "stream_artifacts and task_fn are mutually exclusive"
            )


class _DaemonJournal(RunJournal):
    """The daemon's journal: thread-safe, fsynced, broadcast, bounded.

    Executor threads and the event loop both append; a lock keeps lines
    whole.  Every record is handed to ``on_event`` (the daemon's
    broadcast hook).  ``counts`` is tallied incrementally so it stays
    O(1) while the in-memory event list is trimmed to a cap -- a serving
    daemon runs indefinitely and must not hold every event it ever saw.
    """

    def __init__(self, path, *, on_event) -> None:
        super().__init__(path, fsync=True)
        self._record_lock = threading.Lock()
        self._on_event = on_event
        self._tally = {
            "executed": 0, "cached": 0, "retried": 0, "failed": 0,
        }
        self._tally_keys = {
            "task_finish": "executed",
            "task_cached": "cached",
            "task_retry": "retried",
            "task_failed": "failed",
        }

    def record(self, event: str, **fields: object) -> dict:
        with self._record_lock:
            entry = super().record(event, **fields)
            key = self._tally_keys.get(event)
            if key is not None:
                self._tally[key] += 1
            if len(self.events) > _JOURNAL_EVENT_CAP:
                del self.events[: _JOURNAL_EVENT_CAP // 2]
        self._on_event(entry)
        return entry

    def counts(self) -> dict[str, int]:
        with self._record_lock:
            return dict(self._tally)


class ServeDaemon(Listener):
    """The asyncio serving core.  See the module docstring for the model.

    Lifecycle: :meth:`start` binds the socket and launches the worker
    pool; the rest (:meth:`~Listener.run_until_stopped`,
    :meth:`~Listener.request_stop`, the drain skeleton and the
    connection loop) is the :class:`~repro.serve.listener.Listener`'s.
    """

    def __init__(self, config: ServeConfig) -> None:
        super().__init__(config)
        self.metrics = MetricsRegistry()
        self.cache = TieredResultCache(
            config.cache_dir,
            capacity=config.hot_capacity,
            metrics=self.metrics,
            disk_max_bytes=config.disk_max_bytes,
            disk_max_age=config.disk_max_age,
        )
        self.journal = _DaemonJournal(
            config.journal_path, on_event=self._observe_event
        )
        self.flight = FlightRecorder(config.flight_capacity)
        self.sampler = TelemetrySampler(self.metrics)
        self.sampler.add_source(self._telemetry_gauges)
        self._queue: asyncio.Queue = asyncio.Queue()
        self._inflight: dict[str, asyncio.Future] = {}
        self._executed: dict[str, int] = {}
        self._coalesced = 0
        self._rejected = 0
        self._accepted = 0
        self._busy_workers = 0
        self._subscribers: dict[str, set[asyncio.Queue]] = {}
        self._workers: list[asyncio.Task] = []
        self._sampler_task: asyncio.Task | None = None
        self._reject_times: deque[float] = deque(
            maxlen=config.reject_burst
        )
        self._flight_seq = 0
        self._flight_lock = threading.Lock()
        # Encoded result frames for cache-served cells, keyed by
        # ``(spec_hash, source)``.  Content-addressed, so an entry can
        # never go stale: a given hash's report is immutable.  Serving
        # a hot cell becomes one buffer write instead of a dict build
        # plus a JSON encode.
        self._frame_cache = BoundedLRU(config.hot_capacity)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the endpoints and launch the worker pool."""
        await self._bind()
        listen_bound = None
        if self.tcp_port is not None:
            host = wire.parse_address(self.config.listen)[1]
            listen_bound = f"{host}:{self.tcp_port}"
        self._workers = [
            asyncio.create_task(self._worker(), name=f"serve-worker-{i}")
            for i in range(self.config.workers)
        ]
        self._sampler_task = asyncio.create_task(
            self._sample_loop(), name="serve-telemetry"
        )
        self.journal.record(
            "serve_start",
            socket=str(Path(self.config.socket_path)),
            listen=listen_bound,
            workers=self.config.workers,
            max_queue=self.config.max_queue,
            hot_capacity=self.config.hot_capacity,
        )

    async def _finish(self) -> None:
        """Drain: every queued and in-flight cell completes."""
        self.journal.record(
            "serve_drain",
            queue_depth=self._queue.qsize(),
            in_flight=len(self._inflight),
        )
        await self._queue.join()
        for _ in self._workers:
            self._queue.put_nowait(None)
        await asyncio.gather(*self._workers, return_exceptions=True)

    async def _shutdown(self) -> None:
        if self._sampler_task is not None:
            self._sampler_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._sampler_task
        self._dump_flight("drain")
        self.journal.record(
            "serve_stop",
            executed=sum(self._executed.values()),
            coalesced=self._coalesced,
            rejected=self._rejected,
        )
        self.journal.close()

    # ------------------------------------------------------------------
    # Telemetry (sampler loop, gauges, flight recorder)
    # ------------------------------------------------------------------

    async def _sample_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.sample_interval)
            self.sample_now()

    def sample_now(self) -> float:
        """One wall-clock telemetry sample (the daemon's clock mode)."""
        return self.sampler.sample(now=time.time())

    def _telemetry_gauges(self) -> dict[str, float]:
        """Live state folded into gauges at every sample and scrape."""
        gauges = {
            "serve.queue_depth": self._queue.qsize(),
            "serve.in_flight": len(self._inflight),
            "serve.workers_busy": self._busy_workers,
            "serve.subscribers": len(self._subscribers),
            "result_cache.hot_entries": len(self.cache),
        }
        if self.cache.disk is not None:
            gauges["result_cache.disk_entries"] = len(self.cache.disk)
        return gauges

    def _observe_event(self, entry: dict) -> None:
        """Journal hook: metrics mirror, flight recording, then broadcast.

        Runs on whichever thread journaled (executor threads included),
        so everything here must be thread-safe -- the flight recorder
        locks internally, counter increments are single dict ops.
        """
        event = entry.get("event")
        if event == "task_finish":
            self.metrics.inc(
                "serve.references", entry.get("references", 0)
            )
            self.metrics.inc(
                "serve.network_bits", entry.get("total_bits", 0)
            )
        if event in ("serve_start", "serve_drain", "serve_stop"):
            self.flight.record("lifecycle", event)
        for kind, name, fields in incident_entries(entry):
            self.flight.record(kind, name, **fields)
        if (
            event == "task_failed"
            and entry.get("error_class") == "CoherenceError"
        ):
            self._dump_flight("coherence-error")
        self._call_soon(self._dispatch_event, entry)

    def _note_rejection(self) -> None:
        """Track rejection timing; a burst dumps the flight recorder."""
        now = time.monotonic()
        self._reject_times.append(now)
        if (
            len(self._reject_times) == self.config.reject_burst
            and now - self._reject_times[0] <= _REJECT_BURST_WINDOW
        ):
            self._reject_times.clear()
            self._dump_flight("reject-burst")

    def _dump_flight(self, reason: str) -> Path | None:
        """Dump the flight ring to ``flight_dir``; None when unconfigured.

        The ring records regardless; only the *writing* needs a target
        directory.  Dumps are journaled (the ``flight_dump`` entry maps
        to no incident, so this cannot recurse).
        """
        flight_dir = self.config.flight_dir
        if flight_dir is None:
            return None
        with self._flight_lock:
            seq = self._flight_seq
            self._flight_seq += 1
        path = Path(flight_dir) / f"flight-{seq:03d}-{reason}.jsonl"
        self.flight.dump(path, reason=reason)
        self.metrics.inc("serve.flight_dumps")
        self.journal.record(
            "flight_dump", reason=reason, path=str(path),
            events=len(self.flight),
        )
        return path

    # ------------------------------------------------------------------
    # Event broadcast (journal -> subscribed submissions)
    # ------------------------------------------------------------------

    def _dispatch_event(self, entry: dict) -> None:
        task = entry.get("task")
        if not task:
            return
        for queue in self._subscribers.get(task, ()):
            queue.put_nowait({"type": "event", **entry})

    # ------------------------------------------------------------------
    # Execution pipeline
    # ------------------------------------------------------------------

    async def _worker(self) -> None:
        while True:
            item = await self._queue.get()
            if item is None:
                self._queue.task_done()
                return
            spec, future, enqueued_at = item
            self.metrics.set_gauge(
                "serve.queue_depth", self._queue.qsize()
            )
            self.metrics.observe(
                "latency.admit_to_start_ms",
                (time.monotonic() - enqueued_at) * 1000.0,
                LATENCY_BUCKETS_MS,
            )
            self._busy_workers += 1
            try:
                report_dict = await asyncio.to_thread(self._execute, spec)
            except BaseException as exc:
                if not future.done():
                    future.set_exception(exc)
            else:
                spec_hash = spec.spec_hash
                self._executed[spec_hash] = (
                    self._executed.get(spec_hash, 0) + 1
                )
                self.metrics.inc("serve.executed")
                if not future.done():
                    future.set_result(report_dict)
            finally:
                self._busy_workers -= 1
                self._inflight.pop(spec.spec_hash, None)
                self._queue.task_done()

    def _execute(self, spec: ExperimentSpec) -> dict:
        """One cell, in a worker thread, through the real executor.

        The cell lands in the tiered cache *before* it leaves the
        in-flight table (the worker pops in-flight only after this
        returns), so there is no window in which a concurrent submission
        of the same hash could trigger a second execution.
        """
        task_fn = self.config.task_fn
        if self.config.stream_artifacts:
            task_fn = self._task_with_artifacts
        executor = Executor(
            workers=self.config.exec_workers,
            retries=self.config.retries,
            journal=self.journal,
            task_fn=task_fn,
            metrics=self.metrics,
        )
        result = executor.run([spec])[0]
        self.cache.put(spec, result.report)
        return result.report.to_dict()

    def _task_with_artifacts(self, spec: ExperimentSpec):
        """Task body for ``stream_artifacts``: run, then broadcast heatmaps.

        The heatmap frame rides the same subscriber queues as progress
        events, so every submission covering the task receives it --
        cache and coalescing semantics are untouched (artifacts stream
        only for *fresh* executions; cached cells re-serve reports, not
        heatmaps).
        """
        from repro.obs.hooks import execute_spec_with_heatmaps

        report, heatmaps = execute_spec_with_heatmaps(spec)
        self.metrics.inc("serve.artifacts")
        self._call_soon(self._dispatch_artifact, spec.spec_hash, heatmaps)
        return report

    def _dispatch_artifact(self, spec_hash: str, heatmaps: dict) -> None:
        prefix = spec_hash[:_HASH_PREFIX]
        for queue in self._subscribers.get(prefix, ()):
            queue.put_nowait(
                {
                    "type": "artifact",
                    "task": prefix,
                    "spec_hash": spec_hash,
                    "heatmaps": heatmaps,
                }
            )

    # ------------------------------------------------------------------
    # Listener hooks
    # ------------------------------------------------------------------

    def _result_frame(
        self, spec_hash: str, prefix: str, source: str, report
    ) -> bytes:
        """The encoded ``result`` frame for a cache-served cell.

        Encoded once per ``(spec_hash, source)`` and reused verbatim --
        the frame has no per-submission fields, so every later serve of
        the same cell is byte-identical by construction.  Bounded by
        ``hot_capacity`` entries, evicted least-recently-served.
        """
        key = (spec_hash, source)
        raw = self._frame_cache.get(key)
        if raw is not None:
            return raw
        raw = wire.encode_frame(
            {
                "type": "result",
                "task": prefix,
                "spec_hash": spec_hash,
                "source": source,
                "report": report.to_dict(),
            }
        )
        self._frame_cache.put(key, raw)
        return raw

    async def _status_payload(self) -> dict:
        self.metrics.set_gauge("serve.queue_depth", self._queue.qsize())
        return {
            "type": "status",
            "draining": self._draining,
            "queue_depth": self._queue.qsize(),
            "in_flight": len(self._inflight),
            "workers_busy": self._busy_workers,
            "executed": dict(sorted(self._executed.items())),
            "coalesced": self._coalesced,
            "rejected": self._rejected,
            "admission": {
                "accepted": self._accepted,
                "coalesced": self._coalesced,
                "max_queue": self.config.max_queue,
                "rejected": self._rejected,
                "requests": self.metrics.counters.get(
                    "serve.requests", 0
                ),
            },
            "cache": self.cache.stats(),
            # Lookups are made on every frame before it is decoded, so
            # the misses include pings and status requests.
            "wire_memo": {
                "parse_hits": self._memo.hits,
                "parse_misses": self._memo.misses,
            },
            "result_cache": {
                name: value
                for name, value in sorted(self.metrics.counters.items())
                if name.startswith("result_cache.")
            },
            "counts": self.journal.counts(),
            "metrics": self.metrics.to_dict(),
        }

    async def _metrics_payload(self) -> dict:
        """The ``metrics`` op: exposition text, registry, rings, flight.

        Takes a fresh sample first, so a scrape always reflects *now*
        (and single scrapes work even between sampler ticks).
        """
        self.sample_now()
        return {
            "type": "metrics",
            "draining": self._draining,
            "text": prometheus_text(self.metrics),
            "metrics": self.metrics.to_dict(),
            "series": self.sampler.to_dict(),
            "flight": {
                "events": len(self.flight),
                "dropped": self.flight.dropped,
                "dumps": self.flight.dumps,
            },
        }

    def _admit(self, frame: dict) -> tuple:
        """Validate a submit frame into ``(name, specs, id, stream)``.

        The listener memoises the result on the frame's exact bytes; a
        malformed frame raises before anything is cached.  The specs
        list is shared across repeats -- safe because every spec is a
        frozen dataclass and ``_handle_submit`` only reads it.
        """
        name, specs = wire.parse_submit_cells(frame)
        return (name, specs, frame.get("id"), bool(frame.get("stream", True)))

    def _on_invalid(self, exc: ConfigurationError) -> None:
        self.journal.record("serve_invalid", error=str(exc))

    async def _handle_submit(self, parsed, _raw, writer, lock) -> None:
        received_at = time.monotonic()
        self.metrics.inc("serve.requests")
        name, specs, request_id, stream_events = parsed

        # Resolve every unique cell: cache hit, in-flight join, or new
        # execution -- in that order, so duplicates are never queued.
        unique: dict[str, ExperimentSpec] = {}
        for spec in specs:
            unique.setdefault(spec.spec_hash, spec)
        resolution: dict[str, tuple[str, object]] = {}
        to_queue: list[tuple[str, ExperimentSpec]] = []
        for spec_hash, spec in unique.items():
            inflight = self._inflight.get(spec_hash)
            if inflight is not None:
                resolution[spec_hash] = ("coalesced", inflight)
                continue
            report, tier = self.cache.lookup(spec)
            if report is not None:
                resolution[spec_hash] = (tier, report)
                continue
            to_queue.append((spec_hash, spec))

        # Admission control: all-or-nothing, with an explicit reason.
        reason = None
        if self._draining:
            reason = "draining: daemon is shutting down"
        elif (
            to_queue
            and self._queue.qsize() + len(to_queue) > self.config.max_queue
        ):
            reason = (
                f"queue full: {self._queue.qsize()} pending + "
                f"{len(to_queue)} new exceeds max_queue="
                f"{self.config.max_queue}"
            )
        if reason is not None:
            self._rejected += 1
            self.metrics.inc("serve.rejected")
            self.journal.record(
                "serve_reject", reason=reason, tasks=len(specs)
            )
            self._note_rejection()
            await self._send(
                writer,
                lock,
                {"type": "rejected", "reason": reason, "id": request_id},
            )
            return

        for spec_hash, spec in to_queue:
            future = self._loop.create_future()
            # A submission whose clients all disconnect still completes;
            # retrieving the exception here silences the "never
            # retrieved" warning for that orphaned case.
            future.add_done_callback(
                lambda f: f.cancelled() or f.exception()
            )
            self._inflight[spec_hash] = future
            resolution[spec_hash] = ("queued", future)
            self._queue.put_nowait((spec, future, time.monotonic()))
        self.metrics.set_gauge("serve.queue_depth", self._queue.qsize())
        coalesced = sum(
            1 for source, _ in resolution.values() if source == "coalesced"
        )
        cached = sum(
            1
            for source, _ in resolution.values()
            if source in ("hot", "disk")
        )
        self._coalesced += coalesced
        self._accepted += 1
        self.metrics.inc("serve.accepted")
        if coalesced:
            self.metrics.inc("serve.coalesced", coalesced)
        self.metrics.observe(
            "latency.submit_to_admit_ms",
            (time.monotonic() - received_at) * 1000.0,
            LATENCY_BUCKETS_MS,
        )
        self.journal.record(
            "serve_accept",
            name=name,
            tasks=len(specs),
            unique=len(unique),
            queued=len(to_queue),
            coalesced=coalesced,
            cached=cached,
        )
        await self._send(
            writer,
            lock,
            {
                "type": "accepted",
                "id": request_id,
                "name": name,
                "tasks": len(specs),
                "unique": len(unique),
                "queued": len(to_queue),
                "coalesced": coalesced,
                "cached": cached,
            },
        )

        # Progress streaming: subscribe this submission to its task
        # prefixes, then seed the stream with one admission event per
        # unique cell so every client learns how each cell is satisfied
        # even when execution finished long ago.
        prefixes = {
            spec_hash[:_HASH_PREFIX] for spec_hash in unique
        }
        events_queue: asyncio.Queue | None = None
        forwarder: asyncio.Task | None = None
        if stream_events:
            events_queue = asyncio.Queue()
            for prefix in prefixes:
                self._subscribers.setdefault(prefix, set()).add(
                    events_queue
                )
            forwarder = asyncio.create_task(
                self._forward_events(events_queue, writer, lock)
            )
            for spec_hash, (source, _value) in resolution.items():
                events_queue.put_nowait(
                    {
                        "type": "event",
                        "event": f"task_{source}",
                        "task": spec_hash[:_HASH_PREFIX],
                    }
                )

        failed = 0
        try:
            for spec in specs:
                spec_hash = spec.spec_hash
                source, value = resolution[spec_hash]
                prefix = spec_hash[:_HASH_PREFIX]
                if source in ("hot", "disk"):
                    await self._send_raw(
                        writer,
                        lock,
                        self._result_frame(
                            spec_hash, prefix, source, value
                        ),
                    )
                    continue
                try:
                    # shield: cancelling this handler (client gone)
                    # must not cancel the shared execution future.
                    report_dict = await asyncio.shield(value)
                except Exception as exc:
                    failed += 1
                    payload = {
                        "type": "error",
                        "task": prefix,
                        "spec_hash": spec_hash,
                        "error": str(exc),
                    }
                else:
                    payload = {
                        "type": "result",
                        "task": prefix,
                        "spec_hash": spec_hash,
                        "source": source,
                        "report": report_dict,
                    }
                await self._send(writer, lock, payload)
        finally:
            if events_queue is not None:
                for prefix in prefixes:
                    subscribers = self._subscribers.get(prefix)
                    if subscribers is not None:
                        subscribers.discard(events_queue)
                        if not subscribers:
                            self._subscribers.pop(prefix, None)
                events_queue.put_nowait(None)
                with contextlib.suppress(asyncio.CancelledError):
                    await forwarder
        await self._send(
            writer,
            lock,
            {
                "type": "done",
                "id": request_id,
                "name": name,
                "tasks": len(specs),
                "queued": len(to_queue),
                "coalesced": coalesced,
                "cached": cached,
                "failed": failed,
            },
        )

    async def _forward_events(self, queue, writer, lock) -> None:
        dead = False
        while True:
            entry = await queue.get()
            if entry is None:
                return
            if dead:
                continue
            try:
                await self._send(writer, lock, entry)
            except (ConnectionResetError, BrokenPipeError):
                dead = True  # keep draining so the sentinel arrives


class DaemonThread(ListenerThread):
    """A :class:`ServeDaemon` on a private event loop in a thread.

    The in-process deployment shape: benchmarks and tests start a real
    daemon (real socket, real protocol) without managing a subprocess.
    ``start`` blocks until the socket is accepting; ``stop`` drains and
    joins.  Usable as a context manager.
    """

    _label = "serve daemon"
    _thread_name = "repro-serve"
    _start_timeout = 10.0
    _stop_timeout = 30.0

    def __init__(self, config: ServeConfig) -> None:
        self.daemon = ServeDaemon(config)
        super().__init__(self.daemon)
