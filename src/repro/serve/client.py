"""A blocking client for the serve daemon (unix socket or TCP).

:class:`ServeClient` speaks the length-prefixed JSON protocol over a
unix socket or a TCP connection (``host:port`` addresses, see
:func:`~repro.serve.protocol.parse_address`) with one connection per
call -- the simplest shape that is correct, and what ``repro submit``
and the CI smoke tests use.  Used as a context manager the client
instead holds one connection open and runs every operation over it in
sequence (the daemon and router both serve any number of requests per
connection), which is what the throughput benchmarks do; a broken
exchange closes the connection so the next call dials fresh.  Each :meth:`submit` collects the full
exchange (``accepted``, streamed ``event`` frames, per-cell
``result``/``error`` frames, ``done``) into a :class:`SubmitOutcome`; a
daemon ``rejected`` answer raises
:class:`~repro.errors.OverloadedError` so callers cannot mistake
backpressure for results.

Connecting retries a refused or not-yet-bound endpoint on a
deterministic exponential backoff schedule (``connect_backoff *
2**(attempt-1)``, the same non-wall-clock idiom as the executor's retry
delays), which closes the startup race where ``repro submit`` launched
right after ``repro serve`` could die on ``ConnectionRefusedError``
before the daemon binds.

The client is intentionally dependency-free and synchronous: anything
async enough to want a non-blocking client can speak
:mod:`repro.serve.protocol` directly over asyncio streams (that is all
the daemon's own tests do).
"""

from __future__ import annotations

import contextlib
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.errors import ConfigurationError, OverloadedError, ServeError
from repro.lru import BoundedLRU
from repro.runner.spec import ExperimentSpec
from repro.serve.protocol import (
    encode_frame,
    parse_address,
    read_frame_sync,
    write_frame_sync,
)

#: Encoded-submission memo bounds (see :meth:`ServeClient.submit`):
#: entries map ``(name, stream, spec hashes)`` to the encoded frame, so
#: both knobs bound memory.
_SUBMIT_MEMO_ENTRIES = 16
_SUBMIT_MEMO_MAX_FRAME = 256 * 1024


@dataclass
class SubmitOutcome:
    """Everything one submission produced, in arrival order.

    ``results`` holds the per-cell ``result`` frames in cell order
    (``reports()`` unwraps just the report dicts); ``errors`` the
    per-cell ``error`` frames; ``events`` every streamed progress
    frame; ``artifacts`` any streamed heatmap-artifact frames (daemons
    started with ``--stream-artifacts``).
    """

    accepted: dict
    done: dict | None = None
    results: list[dict] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    artifacts: list[dict] = field(default_factory=list)

    def reports(self) -> list[dict]:
        """The serialised reports, one per successful cell, in order."""
        return [frame["report"] for frame in self.results]

    @property
    def failed(self) -> bool:
        return bool(self.errors)


class ServeClient:
    """Blocking client; one connection per operation.

    ``address`` is a unix socket path or a TCP ``host:port``
    (:func:`~repro.serve.protocol.parse_address` decides which).
    ``connect_retries`` extra connection attempts are made when the
    endpoint refuses or does not exist yet, sleeping
    ``connect_backoff * 2**(attempt-1)`` seconds between attempts -- a
    schedule that is a pure function of the attempt number, mirroring
    the executor's retry backoff.
    """

    def __init__(
        self,
        address: str | Path,
        *,
        timeout: float = 60.0,
        connect_retries: int = 5,
        connect_backoff: float = 0.05,
    ) -> None:
        if connect_retries < 0:
            raise ConfigurationError(
                f"connect_retries must be >= 0, got {connect_retries}"
            )
        if connect_backoff < 0:
            raise ConfigurationError(
                f"connect_backoff must be >= 0, got {connect_backoff}"
            )
        self.address = parse_address(str(address))
        self.timeout = timeout
        self.connect_retries = connect_retries
        self.connect_backoff = connect_backoff
        self._sock: socket.socket | None = None
        self._stream = None
        # Encoded submissions keyed by (name, stream, spec hashes):
        # the hash is the content, so equal keys encode to equal bytes
        # and a poll loop resubmitting the same sweep skips the
        # serialisation entirely.
        self._submit_memo = BoundedLRU(_SUBMIT_MEMO_ENTRIES)

    @property
    def socket_path(self) -> str:
        """The endpoint, printable (kept for backwards compatibility)."""
        if self.address[0] == "unix":
            return self.address[1]
        return f"{self.address[1]}:{self.address[2]}"

    # ------------------------------------------------------------------

    def _backoff_for(self, attempt: int) -> float:
        """Delay before connect attempt ``attempt`` (1-based retries)."""
        if self.connect_backoff <= 0:
            return 0.0
        return self.connect_backoff * (2 ** (attempt - 1))

    def _connect_once(self) -> socket.socket:
        if self.address[0] == "tcp":
            return socket.create_connection(
                (self.address[1], self.address[2]), timeout=self.timeout
            )
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            sock.connect(self.address[1])
        except OSError:
            sock.close()
            raise
        return sock

    def _connect(self) -> socket.socket:
        attempt = 0
        while True:
            try:
                return self._connect_once()
            except (ConnectionRefusedError, FileNotFoundError):
                attempt += 1
                if attempt > self.connect_retries:
                    raise
                time.sleep(self._backoff_for(attempt))

    # ------------------------------------------------------------------
    # Persistent mode (context manager)
    # ------------------------------------------------------------------

    def __enter__(self) -> "ServeClient":
        """Open one connection; subsequent calls reuse it in sequence."""
        self._sock = self._connect()
        self._stream = self._sock.makefile("rwb")
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Close the persistent connection (no-op in per-call mode)."""
        if self._stream is not None:
            with contextlib.suppress(OSError):
                self._stream.close()
            self._stream = None
        if self._sock is not None:
            with contextlib.suppress(OSError):
                self._sock.close()
            self._sock = None

    @contextlib.contextmanager
    def _exchange(self):
        """The stream for one request/response exchange.

        Per-call mode dials, yields and closes; persistent mode yields
        the held stream, closing it only if the exchange breaks (a
        half-finished exchange would desynchronise the framing).
        """
        if self._stream is not None:
            try:
                yield self._stream
            except BaseException:
                self.close()
                raise
            return
        with self._connect() as sock, sock.makefile("rwb") as stream:
            yield stream

    def _roundtrip(self, request: dict) -> dict:
        """Send one request, read exactly one response frame."""
        with self._exchange() as stream:
            write_frame_sync(stream, request)
            frame = read_frame_sync(stream)
        if frame is None:
            raise ServeError(
                f"daemon at {self.socket_path} closed the connection "
                f"without answering {request.get('op')!r}"
            )
        return frame

    # ------------------------------------------------------------------

    def ping(self) -> dict:
        """Liveness probe; returns the ``pong`` frame."""
        return self._roundtrip({"op": "ping"})

    def status(self) -> dict:
        """The daemon's full status snapshot (see docs/SERVE.md)."""
        return self._roundtrip({"op": "status"})

    def metrics(self) -> dict:
        """The ``/metrics`` frame: exposition text, registry, rings.

        ``frame["text"]`` is Prometheus-style plaintext;
        ``frame["metrics"]`` / ``frame["series"]`` / ``frame["flight"]``
        are the structured forms ``repro top`` renders.
        """
        return self._roundtrip({"op": "metrics"})

    def drain(self) -> dict:
        """Ask the daemon to drain and shut down; returns its ack."""
        return self._roundtrip({"op": "drain"})

    # ------------------------------------------------------------------

    def submit(
        self,
        cells: Sequence[ExperimentSpec],
        *,
        name: str = "submit",
        stream: bool = True,
        on_event: Callable[[dict], None] | None = None,
    ) -> SubmitOutcome:
        """Submit ``cells`` and block until every result has streamed back.

        ``on_event`` observes each progress frame as it arrives (they
        are also collected in the outcome).  Raises
        :class:`~repro.errors.OverloadedError` if the daemon rejects the
        submission (queue full, or draining) and
        :class:`~repro.errors.ServeError` on a malformed exchange.

        The encoded request is memoised by content (the spec hashes):
        resubmitting the same sweep -- a poll loop, a benchmark client
        -- reuses the previously serialised bytes, which also keeps
        the frame byte-identical across repeats so the daemon- and
        router-side wire memos hit.
        """
        key = (
            name,
            bool(stream),
            tuple(spec.spec_hash for spec in cells),
        )
        raw = self._submit_memo.get(key)
        if raw is None:
            raw = encode_frame(
                {
                    "op": "submit",
                    "name": name,
                    "stream": bool(stream),
                    "cells": [spec.to_dict() for spec in cells],
                }
            )
            if len(raw) <= _SUBMIT_MEMO_MAX_FRAME:
                self._submit_memo.put(key, raw)
        with self._exchange() as stream_io:
            stream_io.write(raw)
            stream_io.flush()
            first = read_frame_sync(stream_io)
            if first is None:
                raise ServeError(
                    f"daemon at {self.socket_path} closed the "
                    f"connection before answering the submission"
                )
            if first.get("type") == "rejected":
                raise OverloadedError(
                    f"submission rejected: {first.get('reason')}"
                )
            if first.get("type") == "error":
                raise ServeError(
                    f"submission refused: {first.get('error')}"
                )
            if first.get("type") != "accepted":
                raise ServeError(
                    f"expected an 'accepted' frame, got {first!r}"
                )
            outcome = SubmitOutcome(accepted=first)
            while True:
                frame = read_frame_sync(stream_io)
                if frame is None:
                    raise ServeError(
                        "connection closed before the 'done' frame"
                    )
                kind = frame.get("type")
                if kind == "event":
                    outcome.events.append(frame)
                    if on_event is not None:
                        on_event(frame)
                elif kind == "artifact":
                    outcome.artifacts.append(frame)
                elif kind == "result":
                    outcome.results.append(frame)
                elif kind == "error":
                    outcome.errors.append(frame)
                elif kind == "done":
                    outcome.done = frame
                    return outcome
                else:
                    raise ServeError(
                        f"unexpected frame type {kind!r} mid-submission"
                    )
