"""``--trace 1``: one untraced and one traced pass, and the per-layer metrics.

The traced pass stages the same work as a sequence of public calls under
spans (in a fresh child for an in-process workload, around the wire
exchange for a serve workload); its report digests must equal the
untraced pass's, and the ratio of the two walls is the tracing overhead.
Layers that sit in other processes (router, shards) are read from the
fleet's public ``status`` op; layers a workload never enters read 0.
"""

from __future__ import annotations

import contextlib
import json
import socket
import statistics
import time
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.serve import ServeClient, shard_for
from repro.serve import protocol as wire

from benchlib import probes, workloads
from benchlib.check import digest
from benchlib.measure import (
    Context, InProcessRun, Run, ServeRun, calib_ms, run_child,
)
from benchlib.spans import Tracer, self_times

#: Spans that only group others; their self time is what no layer claims.
_STRUCTURAL = ("pass", "cell", "client", "op", "sim.run_trace")
_SAMPLE_CELLS = 16
_PING_PROBES = 200
_RELAY_PROBES = 100


class Traced:
    """The outcome of one ``--trace 1`` run of one workload."""

    def __init__(self, names: list[str]) -> None:
        self.metrics: dict[str, float] = dict.fromkeys(names, 0.0)
        self.notes: list[str] = []
        self.attempted = 0
        self.failed = 0
        # (title, {layer: seconds}) blocks, printed most expensive first.
        self.sections: list[tuple[str, dict[str, float]]] = []
        self.pass_wall = 0.0

    def fill(self, values: dict) -> None:
        """Take the measured ``values``; a missing probe reads 0 with a note."""
        for name, value in values.items():
            if value is None:
                self.notes.append(f"{name}: probe target missing, reported 0")
            elif name in self.metrics:
                self.metrics[name] = value

    def count(self, run: Run) -> None:
        self.attempted += run.attempted
        self.failed += run.failed


def ranked(self_s: dict[str, float]) -> list[tuple[str, float]]:
    """Layer self times, most expensive first (structural spans left out)."""
    layers = [kv for kv in self_s.items() if kv[0] not in _STRUCTURAL]
    return sorted(layers, key=lambda kv: -kv[1])


def _write_spans(name: str, spans: list[dict], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"trace-{name}.json", "w") as handle:
        json.dump({"workload": name, "spans": spans}, handle)


def _unattributed(self_s: dict[str, float], lanes: int = 1) -> float:
    return sum(self_s.get(name, 0.0) for name in _STRUCTURAL) / lanes


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------


def trace_in_process(
    ctx: Context, name: str, names: list[str], out_dir: Path
) -> Traced:
    traced = Traced(names)
    run = InProcessRun(ctx, name)
    run.round()
    traced.count(run)
    if not run.passes:
        return traced
    calibs = [run.passes[0].calib, calib_ms()]
    job = dict(
        run.job, mode="traced", scratch_dir=str(ctx.scratch_dir("cache"))
    )
    _, result = run_child(ctx, job)
    traced.attempted += len(run.cells)
    if digest(result["reports"]) != run.digests[0]:
        traced.notes.append("traced pass digest differs from the untraced")
        traced.failed += len(run.cells)
    untraced = run.passes[0]
    traced.notes.extend(result["notes"])
    traced.fill(result["metrics"])
    traced.fill(
        {
            "runner.executor_overhead_s": run.executor_overhead_s,
            "bench.client_busy_share": untraced.cpu / untraced.wall,
            "bench.unattributed_s": _unattributed(result["self_s"]),
            "bench.trace_overhead_share": result["wall"] / untraced.wall - 1,
            "bench.calib_ms": statistics.median(calibs),
        }
    )
    traced.pass_wall = result["wall"]
    # Replay is most of every pass; list it by protocol, not as one lump.
    layers = dict(result["self_s"])
    layers.pop("sim.replay", None)
    for protocol in probes.PROTOCOLS:
        seconds = result["metrics"][f"protocol.{protocol}.replay_s"]
        if seconds:
            layers[f"sim.replay [{protocol}]"] = seconds
    traced.sections.append(("layers, self time in the traced pass", layers))
    _write_spans(name, result["spans"], out_dir)
    return traced


# ---------------------------------------------------------------------------
# Serve workloads
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _raw_dial(path: str):
    """A blocking stream to the fleet, for the staged exchange."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(60.0)
        sock.connect(path)
        with sock.makefile("rwb") as stream:
            yield stream


def _staged_submit(tracer: Tracer):
    """``ServeClient.submit`` as its three steps, one span each."""

    def submit(stream, op, op_id) -> list[dict]:
        with tracer.span("op", op=f"{op_id[0]}.{op_id[1]}"):
            with tracer.span("serve.encode_submit"):
                raw = wire.encode_frame(
                    probes.submit_payload(op.name, op.cells)
                )
            with tracer.span("serve.wire_wait"):
                stream.write(raw)
                stream.flush()
                frames = []
                while True:
                    # The documented framing: 4-byte big-endian length.
                    header = stream.read(4)
                    if len(header) < 4:
                        raise RuntimeError("connection closed mid-exchange")
                    frame = header + stream.read(int.from_bytes(header, "big"))
                    frames.append(frame)
                    kind = wire.peek_frame_type(frame)
                    if kind is None:
                        kind = wire.decode_frame(frame).get("type")
                    if kind == "done" or (
                        len(frames) == 1 and kind != "accepted"
                    ):
                        break
            with tracer.span("serve.decode_result"):
                decoded = [wire.decode_frame(frame) for frame in frames]
        if decoded[0].get("type") != "accepted":
            raise RuntimeError(f"submission not accepted: {decoded[0]!r}")
        if any(frame.get("type") == "error" for frame in decoded):
            raise RuntimeError("a cell errored")
        return [f for f in decoded if f.get("type") == "result"]

    return submit


def _fleet_probes(fleet, run: ServeRun, notes: list[str]) -> dict:
    """Server-side layers from the public ops, then two round-trip probes."""
    status = ServeClient(fleet.socket).status()
    registry = MetricsRegistry.from_dict(status["metrics"])

    def p50(name: str) -> float:
        histogram = registry.histograms.get(name)
        return (histogram.quantile(0.5) or 0.0) if histogram else 0.0

    def share(hits: str, misses: str) -> float:
        cache = status["cache"]
        total = cache[hits] + cache[misses]
        return cache[hits] / total if total else 0.0

    values = {
        "serve.submit_to_admit_ms_p50": p50("latency.submit_to_admit_ms"),
        "serve.admit_to_start_ms_p50": p50("latency.admit_to_start_ms"),
        "serve.start_to_finish_ms_p50": p50("latency.start_to_finish_ms"),
        "serve.hot_hit_share": share("hot_hits", "hot_misses"),
        "serve.disk_hit_share": share("disk_hits", "disk_misses"),
        "serve.executed": status["counts"]["executed"],
        "serve.coalesced": status["coalesced"],
        "serve.rejected": status["rejected"],
    }

    def ping_rtt() -> float:
        with ServeClient(fleet.socket) as client:
            start = time.perf_counter()
            for _ in range(_PING_PROBES):
                client.ping()
            return (time.perf_counter() - start) / _PING_PROBES * 1e6

    def relay_leg() -> float:
        # One cell the fleet already holds hot, through the router and
        # straight at the shard that owns it.
        spec = next(iter(run.specs.values()))
        shard = shard_for(spec.spec_hash, workloads.FLEET_SHARDS)

        def rtt(address: str) -> float:
            with ServeClient(address) as client:
                client.submit([spec], name="relay-probe", stream=False)
                start = time.perf_counter()
                for _ in range(_RELAY_PROBES):
                    client.submit([spec], name="relay-probe", stream=False)
                return (time.perf_counter() - start) / _RELAY_PROBES * 1e6

        return rtt(fleet.socket) - rtt(fleet.shard_socket(shard))

    values["serve.ping_rtt_us"] = probes.probe(
        notes, "serve.ping_rtt_us", ping_rtt
    )
    values["serve.relay_leg_us"] = probes.probe(
        notes, "serve.relay_leg_us", relay_leg
    )
    return values


def _server_legs(fleet) -> dict[str, float]:
    """Seconds the shards spent per request leg (histogram sums)."""
    status = ServeClient(fleet.socket).status()
    registry = MetricsRegistry.from_dict(status["metrics"])
    return {
        leg: registry.histograms[f"latency.{leg}_ms"].sum / 1e3
        for leg in ("submit_to_admit", "admit_to_start", "start_to_finish")
        if f"latency.{leg}_ms" in registry.histograms
    }


def trace_serve(
    ctx: Context, name: str, names: list[str], out_dir: Path
) -> Traced:
    traced = Traced(names)
    fleet_values: dict = {}
    run = ServeRun(ctx, name)
    run.passes_per_round = 1
    run.after_passes = lambda fleet: fleet_values.update(
        _fleet_probes(fleet, run, traced.notes)
    )
    run.round()
    traced.count(run)
    if not run.passes:
        return traced

    tracer = Tracer()
    legs: dict[str, float] = {}
    staged = ServeRun(
        ctx, name,
        dial=_raw_dial,
        submit=_staged_submit(tracer),
        lane=lambda index: tracer.span("client", op=f"client-{index}"),
    )
    staged.passes_per_round = 1
    # Preload executes too: the pass's share of each leg is after - before.
    before: dict[str, float] = {}
    staged.before_passes = lambda fleet: before.update(_server_legs(fleet))
    staged.after_passes = lambda fleet: legs.update(
        {
            leg: seconds - before.get(leg, 0.0)
            for leg, seconds in _server_legs(fleet).items()
        }
    )
    staged.round()
    traced.count(staged)
    if not staged.passes:
        return traced
    if staged.digests != run.digests:
        traced.notes.append("traced pass digests differ from the untraced")
        traced.failed += staged.attempted - staged.failed

    # The shards' own layers, staged in-process on a sample of the very
    # cells the fleet executed -- and the sample's reports, run through
    # Executor here, must be the ones the fleet delivered.
    sample = list(run.specs.values())[:_SAMPLE_CELLS]
    job = {
        "name": name,
        "cells": [spec.to_dict() for spec in sample],
        "scratch_dir": str(ctx.scratch_dir("cache")),
    }
    _, direct = run_child(ctx, dict(job, mode="pass"))
    _, layers = run_child(ctx, dict(job, mode="traced"))
    delivered = [run.delivered[spec.spec_hash] for spec in sample]
    traced.attempted += len(sample)
    if not (direct["reports"] == layers["reports"] == delivered):
        traced.notes.append("fleet reports differ from direct execution")
        traced.failed += len(sample)
    traced.notes.extend(layers["notes"])
    traced.fill(layers["metrics"])
    submissions = [
        (op.name, op.cells) for lane_ops in run.last_ops for op in lane_ops
    ][:64]
    traced.fill(
        probes.probe(
            traced.notes, "serve wire probes",
            lambda: probes.wire_probes(submissions, sample, delivered),
        ) or {}
    )
    traced.fill(fleet_values)
    self_s = self_times(tracer.spans)
    lanes = workloads.N_CLIENTS
    untraced, staged_pass = run.passes[0], staged.passes[0]
    traced.fill(
        {
            "runner.executor_overhead_s": (
                direct["wall"] - sum(direct["cell_walls"])
            ),
            "serve.router_cpu_s": run.party_cpu[0][1],
            "serve.shards_cpu_s": run.party_cpu[0][2],
            "bench.client_busy_share": run.party_cpu[0][0] / untraced.wall,
            "bench.unattributed_s": _unattributed(self_s, lanes),
            "bench.trace_overhead_share": staged_pass.wall / untraced.wall - 1,
            "bench.calib_ms": statistics.median(
                [untraced.calib, staged_pass.calib]
            ),
        }
    )
    traced.pass_wall = staged_pass.wall
    generator_cpu, router_cpu, shards_cpu = staged.party_cpu[0]
    traced.sections += [
        (
            "parties, CPU seconds during the traced pass",
            {
                "router": router_cpu,
                "shards (each)": shards_cpu / workloads.FLEET_SHARDS,
                "load generator": generator_cpu,
            },
        ),
        (
            "shard request legs during the traced pass, per shard",
            {k: v / workloads.FLEET_SHARDS for k, v in legs.items()},
        ),
        (
            f"inside start_to_finish, staged on {len(sample)} of the cells",
            layers["self_s"],
        ),
        (
            "client side of the exchange, per connection",
            {k: v / lanes for k, v in self_s.items()},
        ),
    ]
    _write_spans(name, tracer.spans, out_dir)
    return traced
