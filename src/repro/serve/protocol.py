"""The serve wire protocol: length-prefixed JSON frames.

Every message in either direction is one **frame**: a 4-byte big-endian
unsigned length followed by that many bytes of UTF-8 JSON whose top
level is an object.  Length-prefixing (rather than newline-delimiting)
keeps the protocol 8-bit clean and lets a reader allocate exactly once;
the :data:`MAX_FRAME_BYTES` ceiling stops a confused or hostile peer
from making the daemon buffer gigabytes.

Requests are objects with an ``op`` field -- ``ping``, ``status``,
``metrics``, ``submit``, ``drain`` -- and responses carry a ``type``
field (``pong``, ``status``, ``metrics``, ``accepted``, ``event``,
``result``, ``error``, ``rejected``, ``done``).  The ``metrics``
response is the daemon's ``/metrics`` surface: Prometheus-style
plaintext exposition under ``text`` plus the structured registry,
time-series rings and flight-recorder summary.  See docs/SERVE.md for
the full exchange.

Both an asyncio flavour (:func:`read_frame` / :func:`write_frame`, used
by the daemon) and a blocking-stream flavour (:func:`read_frame_sync` /
:func:`write_frame_sync`, used by :class:`~repro.serve.client.ServeClient`)
share the same :func:`encode_frame` / :func:`decode_payload` core, so
the two sides cannot drift.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import struct
from typing import BinaryIO

from repro.errors import ConfigurationError, FrameError
from repro.runner.spec import ExperimentSpec, _canonical_json

#: Frame payload ceiling.  A 10k-cell sweep of serialised reports fits
#: comfortably; anything bigger is a protocol violation, not a workload.
MAX_FRAME_BYTES = 32 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: Request operations a daemon or router answers; any other ``op`` gets
#: an ``error`` frame (``repro.serve.listener`` dispatches on this).
REQUEST_OPS = ("ping", "status", "metrics", "submit", "drain")


# ---------------------------------------------------------------------------
# Frame encoding (shared by both flavours)
# ---------------------------------------------------------------------------


def encode_frame(payload: dict) -> bytes:
    """Serialise ``payload`` as one length-prefixed frame."""
    if not isinstance(payload, dict):
        raise FrameError(
            f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte ceiling"
        )
    return _HEADER.pack(len(body)) + body


def decode_payload(body: bytes) -> dict:
    """Parse a frame body back into its payload object."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise FrameError(f"frame body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise FrameError(
            f"frame payload must be a JSON object, "
            f"got {type(payload).__name__}"
        )
    return payload


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"peer announced a {length}-byte frame, above the "
            f"{MAX_FRAME_BYTES}-byte ceiling"
        )


# ---------------------------------------------------------------------------
# asyncio flavour (daemon side)
# ---------------------------------------------------------------------------


async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    raw = await read_frame_bytes(reader)
    return None if raw is None else decode_frame(raw)


async def read_frame_bytes(
    reader: asyncio.StreamReader,
) -> bytes | None:
    """Read one frame's exact wire bytes (header included), undecoded.

    The relay and memoisation paths key on a frame's bytes and decode
    lazily (or not at all -- see :func:`peek_frame_type`), so the
    common case pays for one read and zero JSON parses.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between frames
        raise FrameError(
            f"connection closed mid-header "
            f"({len(exc.partial)}/{_HEADER.size} bytes)"
        ) from None
    (length,) = _HEADER.unpack(header)
    _check_length(length)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameError(
            f"connection closed mid-frame "
            f"({len(exc.partial)}/{length} bytes)"
        ) from None
    return header + body


def decode_frame(raw: bytes) -> dict:
    """Decode a raw frame (as returned by :func:`read_frame_bytes`)."""
    return decode_payload(raw[_HEADER.size:])


async def read_frame_raw(
    reader: asyncio.StreamReader,
) -> tuple[dict, bytes] | None:
    """Like :func:`read_frame`, but also return the raw frame bytes.

    The router's relay path decodes a frame once to inspect its type,
    then forwards the *original* bytes (header included) verbatim --
    no re-encode, and the client receives exactly what the shard sent.
    """
    raw = await read_frame_bytes(reader)
    if raw is None:
        return None
    return decode_frame(raw), raw


#: ``encode_frame`` serialises with sorted keys, so ``"type"`` is the
#: last key of every streamed response frame (``event``, ``artifact``,
#: ``result``, ``error``, ``done`` -- none carries a key sorting after
#: ``"type"``) and the serialised object *ends* with ``"type": "<k>"}``.
#: That makes the frame kind readable from the tail bytes alone.
_TYPE_TAIL = b'"type": "'


def peek_frame_type(raw: bytes) -> str | None:
    """Classify a raw frame by its tail bytes, without JSON-decoding.

    Returns the frame's ``type`` when the frame was produced by
    :func:`encode_frame` and ``"type"`` is its last sorted key; ``None``
    otherwise (the caller should fall back to :func:`decode_frame`).
    The relay hot path skips a full JSON parse per streamed result this
    way -- the payload-heavy frames are exactly the ones it never needs
    to understand.
    """
    if not raw.endswith(b'"}'):
        return None
    at = raw.rfind(_TYPE_TAIL, max(0, len(raw) - 32))
    if at == -1:
        return None
    return raw[at + len(_TYPE_TAIL):-2].decode("ascii", "replace")


_SPEC_HASH_KEY = b'"spec_hash": "'


def peek_spec_hash(raw: bytes) -> str | None:
    """Extract the top-level ``spec_hash`` of a raw frame, if any.

    Sound for frames produced by :func:`encode_frame` whose keys
    sorting after ``"spec_hash"`` (``task``, ``type``) hold short plain
    strings -- then the *last* occurrence of the key is the top-level
    one, however large the nested report payload before it.
    """
    at = raw.rfind(_SPEC_HASH_KEY)
    if at == -1:
        return None
    start = at + len(_SPEC_HASH_KEY)
    stop = raw.find(b'"', start)
    if stop == -1:
        return None
    return raw[start:stop].decode("ascii", "replace")


async def write_frame(
    writer: asyncio.StreamWriter, payload: dict
) -> None:
    """Write one frame and drain the transport."""
    writer.write(encode_frame(payload))
    await writer.drain()


# ---------------------------------------------------------------------------
# Blocking flavour (client side)
# ---------------------------------------------------------------------------


def read_frame_sync(stream: BinaryIO) -> dict | None:
    """Read one frame from a blocking binary stream; ``None`` on EOF."""
    header = stream.read(_HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise FrameError(
            f"stream ended mid-header ({len(header)}/{_HEADER.size} bytes)"
        )
    (length,) = _HEADER.unpack(header)
    _check_length(length)
    body = stream.read(length)
    if len(body) < length:
        raise FrameError(
            f"stream ended mid-frame ({len(body)}/{length} bytes)"
        )
    return decode_payload(body)


def write_frame_sync(stream: BinaryIO, payload: dict) -> None:
    """Write one frame to a blocking binary stream and flush."""
    stream.write(encode_frame(payload))
    stream.flush()


# ---------------------------------------------------------------------------
# Endpoint addresses (shared by client, daemon and router)
# ---------------------------------------------------------------------------


def parse_address(address: str) -> tuple:
    """Classify an endpoint address: ``("unix", path)`` or ``("tcp", host, port)``.

    Accepted forms: an explicit scheme (``unix:///run/repro.sock``,
    ``tcp://127.0.0.1:7341``), a bare ``host:port`` whose port is all
    digits and which contains no path separator (``127.0.0.1:7341``,
    ``[::1]:7341``), or anything else as a unix socket path.  The
    explicit schemes exist for the ambiguous cases (a relative file
    literally named ``localhost:80``).
    """
    if not isinstance(address, str) or not address:
        raise ConfigurationError(
            f"endpoint address must be a non-empty string, got {address!r}"
        )
    if address.startswith("unix://"):
        return ("unix", address[len("unix://"):])
    explicit_tcp = address.startswith("tcp://")
    if explicit_tcp:
        address = address[len("tcp://"):]
    host, sep, port = address.rpartition(":")
    if sep and port.isdigit() and (explicit_tcp or "/" not in address):
        if host.startswith("[") and host.endswith("]"):
            host = host[1:-1]  # bracketed IPv6 literal
        if not host:
            raise ConfigurationError(
                f"tcp address needs a host, got {address!r}"
            )
        return ("tcp", host, int(port))
    if explicit_tcp:
        raise ConfigurationError(
            f"tcp address must be host:port with a numeric port, "
            f"got {address!r}"
        )
    return ("unix", address)


# ---------------------------------------------------------------------------
# Request validation (daemon side)
# ---------------------------------------------------------------------------


def _submit_shape(frame: dict) -> tuple[str, list]:
    """The ``(name, cells)`` of a ``submit`` frame, shape-checked only."""
    name = frame.get("name", "submit")
    if not isinstance(name, str) or not name:
        raise ConfigurationError(
            f"submit name must be a non-empty string, got {name!r}"
        )
    cells = frame.get("cells")
    if not isinstance(cells, list) or not cells:
        raise ConfigurationError(
            "submit needs a non-empty 'cells' list of experiment specs"
        )
    return name, cells


def parse_submit_cells(frame: dict) -> tuple[str, list[ExperimentSpec]]:
    """Validate a ``submit`` frame into ``(name, specs)``.

    The ``cells`` field is a non-empty list of serialised
    :class:`~repro.runner.spec.ExperimentSpec` objects; every cell is
    fully validated (spec construction re-runs all the constructor
    checks), so nothing malformed ever reaches the execution pipeline.
    Raises :class:`~repro.errors.ConfigurationError` with a cell index
    in the message so clients can fix the right one.
    """
    name, cells = _submit_shape(frame)
    specs = []
    for index, cell in enumerate(cells):
        if not isinstance(cell, dict):
            raise ConfigurationError(
                f"cell {index} is not an object "
                f"(got {type(cell).__name__})"
            )
        try:
            specs.append(ExperimentSpec.from_dict(cell))
        except ConfigurationError as exc:
            raise ConfigurationError(f"cell {index}: {exc}") from None
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"cell {index} is not a valid experiment spec: {exc!r}"
            ) from None
    return name, specs


def route_submit_cells(frame: dict) -> tuple[str, list, list[str]]:
    """Shape-check a ``submit`` frame into ``(name, cells, hashes)``.

    The router's lightweight counterpart to :func:`parse_submit_cells`:
    routing needs only each cell's content hash, so the cells are
    hashed over their canonical JSON and forwarded *verbatim* -- no
    spec construction, no validation.  For a cell in
    :meth:`~repro.runner.spec.ExperimentSpec.to_dict` form (the form
    every client of this protocol sends) the hash equals
    :attr:`~repro.runner.spec.ExperimentSpec.spec_hash`, so the cell
    routes to the shard that owns the spec.  The owning shard remains
    the validation authority: a malformed cell is refused there and the
    refusal relays to the client unchanged.
    """
    name, cells = _submit_shape(frame)
    hashes = [
        hashlib.sha256(
            _canonical_json(cell).encode("utf-8")
        ).hexdigest()
        for cell in cells
    ]
    return name, cells, hashes
