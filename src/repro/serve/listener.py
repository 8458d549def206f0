"""The listener both serve processes share: bind, connection loop, drain.

:class:`Listener` is the base of :class:`~repro.serve.daemon.ServeDaemon`
and :class:`~repro.serve.router.ServeRouter`; :class:`ListenerThread`
runs either on a private event loop in a thread.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from pathlib import Path

from repro.errors import ConfigurationError, FrameError, ServeError
from repro.lru import BoundedLRU
from repro.serve import protocol as wire

#: Wire-memo bounds: keys are raw submit frames and values hold what
#: ``_admit`` built from them, so both knobs bound memory
#: (<= entries * max-frame bytes of keys).
_MEMO_ENTRIES = 32
_MEMO_MAX_FRAME = 256 * 1024


def _check_listen(listen: str | None) -> None:
    """Refuse a ``listen`` address that is not a TCP ``host:port``."""
    if listen is not None and wire.parse_address(listen)[0] != "tcp":
        raise ConfigurationError(
            f"listen must be a tcp host:port, got {listen!r}"
        )


class Listener:
    """A socket service: one bind, one connection loop, one drain.

    A service supplies hooks only: ``_admit`` turns a ``submit`` frame
    into what ``_handle_submit`` serves (memoised on the frame's exact
    bytes), ``_ping_payload`` / ``_status_payload`` / ``_metrics_payload``
    answer the query ops, and ``_finish`` / ``_shutdown`` /
    ``_on_invalid`` are optional.

    Lifecycle: the service's ``start`` calls :meth:`_bind`;
    :meth:`run_until_stopped` serves until :meth:`request_stop` (signal
    handlers, a ``drain`` request, or a test), then :meth:`drain`\\ s.
    All coroutine methods must run on one event loop; only
    :meth:`request_stop` is thread-safe.
    """

    #: Seconds open connections get to finish once the listeners close
    #: and the service's own finish is done; then they are cancelled.
    _connection_grace = 5.0

    def __init__(self, config) -> None:
        self.config = config
        #: The bound TCP port once started with ``listen`` (port 0 in
        #: the config resolves to the kernel-assigned port here).
        self.tcp_port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop = asyncio.Event()
        self._servers: list[asyncio.AbstractServer] = []
        self._draining = False
        self._conn_tasks: set[asyncio.Task] = set()
        # Polling clients (and the router's verbatim relay) resubmit
        # byte-identical frames, and identical bytes admit to the
        # identical value: a repeat skips the decode and the admission.
        self._memo = BoundedLRU(_MEMO_ENTRIES)

    async def _bind(self) -> None:
        """Bind the unix socket and, with ``listen``, the TCP endpoint.

        A failure closes every listener already bound and unlinks the
        socket file before it re-raises: a listener left accepting, or
        a socket file left on disk, would pass for a live service.
        """
        self._loop = asyncio.get_running_loop()
        path = Path(self.config.socket_path)
        if path.parent != Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        # A socket file left by a dead service would make bind() fail;
        # a *live* service holds the listener, so unlinking is safe.
        with contextlib.suppress(OSError):
            path.unlink()
        try:
            self._servers.append(
                await asyncio.start_unix_server(
                    self._handle_connection, path=str(path)
                )
            )
            if self.config.listen is not None:
                _kind, host, port = wire.parse_address(self.config.listen)
                tcp = await asyncio.start_server(
                    self._handle_connection, host=host, port=port
                )
                self._servers.append(tcp)
                self.tcp_port = tcp.sockets[0].getsockname()[1]
        except BaseException:
            if self._servers:  # the unix socket was bound: its file is ours
                self._close_listeners()
                with contextlib.suppress(OSError):
                    path.unlink()
            raise

    def _close_listeners(self) -> None:
        # Not ``wait_closed()``: from Python 3.12 on it also waits for
        # every open connection, which is what the grace period bounds.
        for server in self._servers:
            server.close()

    def request_stop(self) -> None:
        """Ask the service to drain and stop (safe from any thread).

        A request before the bind has no loop to go to yet, and nothing
        waits on the event yet either: it is set at once, so the service
        drains as soon as its start is done.
        """
        if self._loop is None:
            self._stop.set()
        else:
            self._call_soon(self._stop.set)

    def _call_soon(self, callback, *args) -> None:
        """Run ``callback(*args)`` on the service's loop, from any thread."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(callback, *args)

    async def run(self) -> None:
        """Start, serve until :meth:`request_stop`, then drain."""
        await self.start()
        await self.run_until_stopped()

    async def run_until_stopped(self) -> None:
        """After ``start``: serve until :meth:`request_stop`, then drain."""
        await self._stop.wait()
        await self.drain()

    async def drain(self) -> None:
        """Stop admitting, finish, and shut down; the socket file goes last.

        Submissions are refused as ``draining`` from the moment drain
        begins.  The listeners close, :meth:`_finish` runs, open
        connections get ``_connection_grace`` seconds before they
        are cancelled, :meth:`_shutdown` runs, and the socket file is
        removed -- so its absence means the service is truly gone.
        """
        if self._draining:
            return
        self._draining = True
        self._close_listeners()
        await self._finish()
        if self._conn_tasks:
            _done, pending = await asyncio.wait(
                self._conn_tasks, timeout=self._connection_grace
            )
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
        await self._shutdown()
        with contextlib.suppress(OSError):
            Path(self.config.socket_path).unlink()

    async def _finish(self) -> None:
        """Drain hook: complete admitted work before the grace period."""

    async def _shutdown(self) -> None:
        """Drain hook: release the service's resources after the grace."""

    async def _handle_connection(self, reader, writer) -> None:
        """Serve one connection's requests in sequence until it closes.

        The wire memo is consulted before anything is decoded.  A frame
        that cannot be read or decoded is answered with an ``error``
        frame and ends the connection; an unknown op or a refused
        submit is answered and the connection stays open.
        """
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        lock = asyncio.Lock()
        try:
            while True:
                try:
                    raw = await wire.read_frame_bytes(reader)
                    if raw is None:
                        break
                    admitted = self._memo.get(raw)
                    if admitted is not None:
                        await self._handle_submit(admitted, raw, writer, lock)
                        continue
                    frame = wire.decode_frame(raw)
                except FrameError as exc:
                    await self._send(
                        writer, lock, {"type": "error", "error": str(exc)}
                    )
                    break
                op = frame.get("op")
                if op not in wire.REQUEST_OPS:
                    await self._send(
                        writer,
                        lock,
                        {"type": "error", "error": f"unknown op {op!r}"},
                    )
                elif op == "drain":
                    self.request_stop()
                    await self._send(writer, lock, {"type": "draining"})
                elif op == "submit":
                    try:
                        admitted = self._admit(frame)
                    except ConfigurationError as exc:
                        self._on_invalid(exc)
                        await self._send(
                            writer,
                            lock,
                            {
                                "type": "error",
                                "error": str(exc),
                                "id": frame.get("id"),
                            },
                        )
                        continue
                    if len(raw) <= _MEMO_MAX_FRAME:
                        self._memo.put(raw, admitted)
                    await self._handle_submit(admitted, raw, writer, lock)
                else:  # ping, status, metrics
                    payload = await getattr(self, f"_{op}_payload")()
                    await self._send(writer, lock, payload)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing left to tell it
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _ping_payload(self) -> dict:
        return {"type": "pong", "draining": self._draining}

    def _on_invalid(self, exc: ConfigurationError) -> None:
        """Hook: ``_admit`` refused a submit frame (already answered)."""

    @staticmethod
    async def _send(writer, lock: asyncio.Lock, payload: dict) -> None:
        async with lock:
            await wire.write_frame(writer, payload)

    @staticmethod
    async def _send_raw(writer, lock: asyncio.Lock, raw: bytes) -> None:
        async with lock:
            writer.write(raw)
            await writer.drain()


class ListenerThread:
    """A :class:`Listener` on a private event loop in a thread.

    Real sockets, real protocol, no subprocess to manage: ``start``
    blocks until the service is accepting, and a failed start raises
    :class:`~repro.errors.ServeError` once the service has cleaned up;
    ``stop`` drains and joins.  Usable as a context manager.  A
    subclass sets ``_label`` (the service's name in errors),
    ``_thread_name`` and the default ``_start_timeout`` /
    ``_stop_timeout``.
    """

    def __init__(self, service: Listener) -> None:
        self.config = service.config
        self._service = service
        self._ready = threading.Event()
        self._failure: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name=self._thread_name, daemon=True
        )

    def start(self, timeout: float | None = None) -> "ListenerThread":
        timeout = self._start_timeout if timeout is None else timeout
        self._thread.start()
        if not self._ready.wait(timeout):
            raise ServeError(
                f"{self._label} did not start within {timeout:g}s"
            )
        if self._failure is not None:
            raise ServeError(
                f"{self._label} failed to start: {self._failure!r}"
            ) from self._failure
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced by start() or stop()
            self._failure = exc
            self._ready.set()

    async def _main(self) -> None:
        await self._service.start()
        self._ready.set()
        await self._service.run_until_stopped()

    def stop(self, timeout: float | None = None) -> None:
        timeout = self._stop_timeout if timeout is None else timeout
        self._service.request_stop()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise ServeError(
                f"{self._label} did not drain within {timeout:g}s"
            )

    def __enter__(self) -> "ListenerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
