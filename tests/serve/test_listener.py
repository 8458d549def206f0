"""The one connection loop, as the daemon and the router both run it.

Each hostile frame goes over a fresh connection.  The service must
answer with one ``error`` frame (carrying the request's ``id`` when it
had one) or close the connection -- and afterwards still answer a
``ping`` on a new connection, having executed nothing.
"""

import os
import shutil
import socket
import struct
import tempfile

import pytest

from repro.errors import FrameError
from repro.serve import (
    MAX_FRAME_BYTES,
    DaemonThread,
    RouterConfig,
    RouterThread,
    ServeClient,
    ServeConfig,
    encode_frame,
    read_frame_sync,
)


def _framed(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


#: (id, bytes sent, substring of the error, the ``id`` it must carry).
HOSTILE = [
    (
        "oversized",
        struct.pack(">I", MAX_FRAME_BYTES + 1),
        "ceiling",
        None,
    ),
    ("non-utf8", _framed(b"\xff\xfe{}"), "not valid JSON", None),
    ("json-array", _framed(b"[1, 2]"), "JSON object", None),
    ("mid-header", b"\x00\x00", "mid-header", None),
    ("unknown-op", encode_frame({"op": "florp"}), "unknown op 'florp'", None),
    (
        "cells-not-a-list",
        encode_frame({"op": "submit", "id": 7, "cells": {"a": 1}}),
        "'cells' list",
        7,
    ),
]


@pytest.fixture(scope="module", params=["daemon", "router"])
def service(request):
    # Unix socket paths are length-limited; keep them short.
    tmp = tempfile.mkdtemp(prefix="repro-listen-")
    path = os.path.join(tmp, "s.sock")
    if request.param == "daemon":
        runner = DaemonThread(ServeConfig(socket_path=path))
    else:
        runner = RouterThread(RouterConfig(socket_path=path, shards=1))
    try:
        with runner:
            yield path
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def answers_to(path: str, data: bytes) -> list[dict]:
    """Send ``data``, half-close, read frames until the service hangs up."""
    frames = []
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(30)
        sock.connect(path)
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        with sock.makefile("rb") as stream:
            try:
                while (frame := read_frame_sync(stream)) is not None:
                    frames.append(frame)
            except (ConnectionResetError, FrameError):
                pass  # closing is an allowed answer
    return frames


@pytest.mark.parametrize(
    "data,error,request_id",
    [case[1:] for case in HOSTILE],
    ids=[case[0] for case in HOSTILE],
)
def test_hostile_frame_is_refused(service, data, error, request_id):
    answers = answers_to(service, data)
    assert len(answers) <= 1, answers
    for answer in answers:
        assert answer["type"] == "error", answer
        assert error in answer["error"], answer
        assert answer.get("id") == request_id, answer
    client = ServeClient(service)
    assert client.ping()["type"] == "pong"
    assert client.status()["executed"] == {}
