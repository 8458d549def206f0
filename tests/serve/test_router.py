"""The spec-hash router end-to-end: sharding, transports, recovery.

The acceptance scenario for the sharded serving layer: ``shard_for``
sends every submission of a hash to the same shard; overlapping clients
on *both* transports (unix socket and TCP) execute each unique spec
exactly once fleet-wide and read back reports byte-identical to a
direct executor run; a shard killed mid-fleet is restarted by the
supervisor and a resubmission returns byte-identical results; draining
the router unlinks every socket it bound.
"""

import contextlib
import dataclasses
import json
import os
import signal
import socket
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import ConfigurationError, ServeError
from repro.runner import execute_spec
from repro.runner.spec import ExperimentSpec, WorkloadSpec
from repro.serve import (
    RouterConfig,
    RouterThread,
    ServeClient,
    decode_frame,
    encode_frame,
    shard_for,
)
from repro.serve.protocol import (
    read_frame_sync,
    route_submit_cells,
    write_frame_sync,
)
from repro.serve.router import ShardProcess
from repro.sim.system import SystemConfig


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


def exchange(address, raw: bytes) -> list[bytes]:
    """Send one raw submit frame; every answer frame's bytes, to ``done``."""
    frames = []
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(120)
        sock.connect(str(address))
        sock.sendall(raw)
        with sock.makefile("rb") as stream:
            while not frames or decode_frame(frames[-1])["type"] != "done":
                header = stream.read(4)
                body = stream.read(int.from_bytes(header, "big"))
                frames.append(header + body)
    return frames


GRID = [
    make_spec(protocol=protocol, seed=seed)
    for protocol in ("no-cache", "write-once")
    for seed in (0, 1, 2)
]


class TestShardFor:
    def test_same_hash_same_shard_always(self):
        for spec in GRID:
            owners = {shard_for(spec.spec_hash, 4) for _ in range(10)}
            assert len(owners) == 1  # stable: a pure function

    def test_prefix_stability_under_hash_length(self):
        # Only the first eight hex digits decide, so the mapping holds
        # for any future hash length >= 8.
        for spec in GRID:
            full = spec.spec_hash
            assert shard_for(full, 4) == shard_for(full[:8], 4)

    def test_every_shard_is_reachable(self):
        owners = {
            shard_for(make_spec(seed=seed).spec_hash, 4)
            for seed in range(64)
        }
        assert owners == {0, 1, 2, 3}

    def test_single_shard_owns_everything(self):
        for spec in GRID:
            assert shard_for(spec.spec_hash, 1) == 0


class TestRouterConfig:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigurationError, match="shards"):
            RouterConfig(socket_path="r.sock", shards=0)
        with pytest.raises(ConfigurationError, match="listen"):
            RouterConfig(socket_path="r.sock", listen="/not/a/port")
        with pytest.raises(ConfigurationError, match="restart_backoff"):
            RouterConfig(socket_path="r.sock", restart_backoff=0)

    def test_every_forwarded_field_reaches_the_shard_command(self, tmp_path):
        # Fields the router keeps for itself; every other one must be
        # on each shard's command line, with its value.
        own = {
            "socket_path", "shards", "listen", "shard_dir",
            "restart_backoff", "max_restarts",
        }
        config = RouterConfig(
            socket_path=tmp_path / "r.sock",
            workers=3,
            exec_workers=2,
            max_queue=7,
            hot_capacity=9,
            cache_dir=tmp_path / "cache",
            journal_dir=tmp_path / "journal",
            sample_interval=0.5,
            disk_max_bytes=4096,
            disk_max_age=60.0,
            stream_artifacts=True,
        )
        argv = ShardProcess(0, config)._command()
        flags = dict(zip(argv, argv[1:]))
        expected = {
            "workers": ("--workers", "3"),
            "exec_workers": ("--exec-workers", "2"),
            "max_queue": ("--max-queue", "7"),
            "hot_capacity": ("--hot-capacity", "9"),
            "cache_dir": ("--cache-dir", str(tmp_path / "cache" / "shard-0")),
            "journal_dir": (
                "--journal", str(tmp_path / "journal" / "shard-0.jsonl")
            ),
            "sample_interval": ("--sample-interval", "0.5"),
            "disk_max_bytes": ("--disk-max-bytes", "4096"),
            "disk_max_age": ("--disk-max-age", "60.0"),
        }
        forwarded = {field.name for field in dataclasses.fields(config)}
        assert forwarded - own == {*expected, "stream_artifacts"}
        for flag, value in expected.values():
            assert flags[flag] == value
        assert "--stream-artifacts" in argv


class TestRouterEndToEnd:
    def test_overlapping_unix_and_tcp_clients_execute_once(self, tmp_path):
        """Unix and TCP clients overlap on the same grid: one execution
        per unique hash fleet-wide, byte-identical reports on both
        transports."""
        socket_path = tmp_path / "router.sock"
        direct = {
            spec.spec_hash: canonical(execute_spec(spec).to_dict())
            for spec in GRID
        }
        config = RouterConfig(
            socket_path=socket_path,
            shards=2,
            listen="127.0.0.1:0",
            workers=2,
        )
        with RouterThread(config) as router:
            tcp_address = f"127.0.0.1:{router.router.tcp_port}"

            def run_client(index):
                address = socket_path if index % 2 == 0 else tcp_address
                # Each client rotates the grid differently, then
                # repeats its own order (overlap across clients,
                # byte-identical resubmission within one).
                shift = index % len(GRID)
                cells = GRID[shift:] + GRID[:shift]
                with ServeClient(address, timeout=120) as client:
                    return [
                        client.submit(cells, name=f"c{index}")
                        for _ in range(3)
                    ]

            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [
                    pool.submit(run_client, index) for index in range(6)
                ]
                all_outcomes = [
                    outcome
                    for future in futures
                    for outcome in future.result(timeout=300)
                ]
            status = ServeClient(socket_path).status()

        assert status["router"] is True
        assert status["executed"] == {
            spec.spec_hash: 1 for spec in GRID
        }
        # Each client sent its rotation three times: two byte-identical
        # repeats apiece, routed and parsed from the wire memos and --
        # its first submission having waited for every cell -- served
        # from the shards' hot tiers.
        assert status["wire_memo"]["route_hits"] == 12
        assert status["wire_memo"]["parse_hits"] > 0
        assert len(all_outcomes) == 18
        for index, outcome in enumerate(all_outcomes):
            if index % 3:
                assert {f["source"] for f in outcome.results} == {"hot"}
            assert outcome.done["failed"] == 0
            assert len(outcome.results) == len(GRID)
            for frame in outcome.results:
                assert canonical(frame["report"]) == direct[
                    frame["spec_hash"]
                ]

    def test_shard_crash_restart_resubmit_byte_identical(self, tmp_path):
        """SIGKILL one shard: the supervisor restarts it, and a
        resubmission of the full grid returns byte-identical reports."""
        socket_path = tmp_path / "router.sock"
        config = RouterConfig(
            socket_path=socket_path,
            shards=2,
            workers=2,
            restart_backoff=0.05,
        )
        with RouterThread(config):
            client = ServeClient(socket_path, timeout=120)
            before = {
                frame["spec_hash"]: canonical(frame["report"])
                for frame in client.submit(GRID, name="before").results
            }
            assert len(before) == len(GRID)

            victim = client.status()["shards"][0]
            os.kill(victim["pid"], signal.SIGKILL)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                shard = client.status()["shards"][0]
                if (
                    shard["alive"]
                    and shard["restarts"] >= 1
                    and shard["pid"] != victim["pid"]
                ):
                    break
                time.sleep(0.1)
            else:
                raise AssertionError(
                    "shard was not restarted within 60s"
                )

            outcome = client.submit(GRID, name="after")
            assert outcome.done["failed"] == 0
            after = {
                frame["spec_hash"]: canonical(frame["report"])
                for frame in outcome.results
            }
        assert after == before

    def test_stream_artifacts_reach_the_client_through_the_router(
        self, tmp_path
    ):
        """A fresh cell streams one heatmap artifact from its shard; the
        cached repeat streams none."""
        socket_path = tmp_path / "router.sock"
        config = RouterConfig(
            socket_path=socket_path, shards=2, stream_artifacts=True
        )
        spec = make_spec(seed=3)
        with RouterThread(config):
            client = ServeClient(socket_path, timeout=120)
            first = client.submit([spec])
            again = client.submit([spec])
        assert [frame["spec_hash"] for frame in first.artifacts] == [
            spec.spec_hash
        ]
        assert first.artifacts[0]["heatmaps"]
        assert again.results[0]["source"] == "hot"
        assert again.artifacts == []

    def test_drain_unlinks_every_socket(self, tmp_path):
        socket_path = tmp_path / "router.sock"
        config = RouterConfig(socket_path=socket_path, shards=2)
        with RouterThread(config):
            shard_dir = config.resolved_shard_dir()
            shard_socks = sorted(shard_dir.glob("*.sock"))
            assert socket_path.exists()
            assert len(shard_socks) == 2
        assert not socket_path.exists()
        for sock in shard_socks:
            assert not sock.exists()

    def test_one_shard_submission_is_relayed_byte_for_byte(self, tmp_path):
        """Every cell on shard 0: once hot, the router's answer is the
        shard's own answer to the same bytes, frame for frame."""
        socket_path = tmp_path / "router.sock"
        config = RouterConfig(socket_path=socket_path, shards=2)
        cells = [
            spec
            for spec in (make_spec(seed=seed) for seed in range(16))
            if shard_for(spec.spec_hash, 2) == 0
        ][:2]
        raw = encode_frame(
            {
                "op": "submit",
                "id": "relay",
                "name": "relay",
                "stream": False,
                "cells": [spec.to_dict() for spec in cells],
            }
        )
        with RouterThread(config):
            routed = [exchange(socket_path, raw) for _ in range(2)]
            direct = exchange(
                config.resolved_shard_dir() / "shard-0.sock", raw
            )
        assert len(cells) == 2
        assert [decode_frame(frame)["type"] for frame in direct] == [
            "accepted", "result", "result", "done",
        ]
        assert routed[1] == direct

    def test_a_refused_cell_is_named_by_the_clients_index(self, tmp_path):
        """Client cell 1 is invalid and lives on shard 1, beside a valid
        cell on shard 0: the refusal names cell 1, as one daemon would,
        not the shard-local cell 0."""

        def placed(write_fraction, shard):
            """The first cell of this write fraction that ``shard`` owns."""
            for seed in range(64):
                cell = make_spec(seed=seed).to_dict()
                cell["workload"]["write_fraction"] = write_fraction
                (cell_hash,) = route_submit_cells({"cells": [cell]})[2]
                if shard_for(cell_hash, 2) == shard:
                    return cell
            raise AssertionError(f"no seed below 64 lands on {shard}")

        valid, invalid = placed(0.3, shard=0), placed(1.5, shard=1)
        socket_path = tmp_path / "router.sock"
        config = RouterConfig(socket_path=socket_path, shards=2)
        with RouterThread(config):
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.settimeout(60)
                sock.connect(str(socket_path))
                with sock.makefile("rwb") as stream:
                    write_frame_sync(
                        stream,
                        {"op": "submit", "id": "r", "cells": [valid, invalid]},
                    )
                    answer = read_frame_sync(stream)
        text = "write_fraction must be in [0, 1], got 1.5"
        assert answer == {
            "type": "error", "error": f"cell 1: {text}", "cell": 1,
            "reason": text, "id": "r",
        }

    def test_of_two_refusing_shards_the_lowest_client_cell_is_named(
        self, tmp_path
    ):
        """Client cell 0 is invalid on shard 1 and client cell 1 on shard
        0: the answer names cell 0, as one daemon names its first bad
        cell, not the refusal of the lower shard."""

        def placed(shard):
            """An invalid cell that ``shard`` owns."""
            for seed in range(64):
                cell = make_spec(seed=seed).to_dict()
                cell["workload"]["write_fraction"] = 1.5
                (cell_hash,) = route_submit_cells({"cells": [cell]})[2]
                if shard_for(cell_hash, 2) == shard:
                    return cell
            raise AssertionError(f"no seed below 64 lands on {shard}")

        socket_path = tmp_path / "router.sock"
        config = RouterConfig(socket_path=socket_path, shards=2)
        with RouterThread(config):
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.settimeout(60)
                sock.connect(str(socket_path))
                with sock.makefile("rwb") as stream:
                    write_frame_sync(
                        stream,
                        {
                            "op": "submit", "id": "r",
                            "cells": [placed(shard=1), placed(shard=0)],
                        },
                    )
                    answer = read_frame_sync(stream)
        text = "write_fraction must be in [0, 1], got 1.5"
        assert answer == {
            "type": "error", "error": f"cell 0: {text}", "cell": 0,
            "reason": text, "id": "r",
        }

    def test_failed_start_leaves_no_shard_running(self, tmp_path):
        """The shards spawn, then the TCP port turns out to be taken:
        every shard is terminated and no socket is left on disk."""
        socket_path = tmp_path / "router.sock"
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = holder.getsockname()[1]
            config = RouterConfig(
                socket_path=socket_path,
                shards=2,
                listen=f"127.0.0.1:{port}",
            )
            thread = RouterThread(config)
            try:
                with pytest.raises(ServeError, match="failed to start"):
                    thread.start()
                codes = [
                    shard.process.returncode for shard in thread.router.shards
                ]
                assert None not in codes
            finally:
                # A shard left running would outlive the test run.
                for shard in thread.router.shards:
                    if shard.process and shard.process.returncode is None:
                        with contextlib.suppress(ProcessLookupError):
                            os.kill(shard.pid, signal.SIGKILL)
        assert not socket_path.exists()
        assert list(config.resolved_shard_dir().glob("*.sock")) == []
