"""The traced pass and the micro-probes behind the per-layer metrics.

Nothing here patches or reaches into the program: a traced pass stages
the work of :func:`repro.runner.execute_spec` as the same sequence of
public calls, wrapping each in a span, and every probe times a public
call on the traced cells' own specs, reports, frames and destination
sets.  A probe whose target is gone in a later commit yields ``None``
and a note (see :func:`probe`), never an exception.
"""

from __future__ import annotations

import dataclasses
import time

from benchlib.check import canonical
from benchlib.spans import Tracer

#: The ``default_factories()`` names, one ``protocol.<name>.replay_s`` each.
PROTOCOLS = (
    "no-cache", "write-once", "full-map",
    "distributed-write", "global-read", "two-mode",
)


def probe(notes: list[str], name: str, fn):
    """``fn()``, or ``None`` plus a note when its target is missing."""
    try:
        return fn()
    except Exception as exc:  # boundary: a probe must never end the run
        notes.append(f"{name}: {type(exc).__name__}: {exc}")
        return None


def _per_call_us(fn, items, budget: float = 0.15) -> float:
    """Mean microseconds of ``fn(item)``, repeating ``items`` for ``budget`` s."""
    calls = 0
    start = time.perf_counter()
    deadline = start + budget
    while True:
        for item in items:
            fn(item)
        calls += len(items)
        now = time.perf_counter()
        if now >= deadline:
            return (now - start) / calls * 1e6


# ---------------------------------------------------------------------------
# The staged pass
# ---------------------------------------------------------------------------


def staged_pass(cells, tracer: Tracer, notes: list[str]):
    """Run ``cells`` as ``execute_spec`` would, one span per layer call.

    Returns ``(reports, acc, dest_sets)``: the report dicts in cell
    order, the summed layer counters, and a sample of the destination
    sets the cells' multicasts really used (from the public
    ``RoutePlanCache.keys()``) for the network probes.
    """
    from repro.analysis.compare import default_factories
    from repro.perf.timer import PhaseTimer
    from repro.sim.engine import run_trace
    from repro.sim.system import System

    factories = default_factories()
    acc = {
        "refs": 0, "generated_refs": 0, "cells": 0,
        "batched_refs": 0, "fastpath_hits": 0,
        "ownership_transfers": 0, "mode_switches": 0,
        "epoch_bumps": 0, "present_epoch_bumps": 0,
        "plan_hits": 0, "plan_builds": 0,
        "measured_refs": 0, "bits": 0,
    }
    acc.update({f"replay_s.{name}": 0.0 for name in PROTOCOLS})
    reports: list[dict] = []
    dest_sets: list[tuple] = []
    with tracer.span("pass"):
        for index, spec in enumerate(cells):
            with tracer.span("cell", op=index):
                with tracer.span("sim.system_build"):
                    system = System(spec.config, fault_plan=spec.fault_plan)
                    protocol = factories[spec.protocol](system)
                with tracer.span("workloads.generate"):
                    trace = spec.workload.build_compiled()
                acc["generated_refs"] += spec.workload.n_references
                timer = PhaseTimer()
                if spec.warmup:
                    _traced_run(
                        tracer, timer, acc, spec.protocol,
                        lambda: run_trace(
                            protocol, trace[: spec.warmup], verify=False,
                            check_invariants_every=0, timer=timer,
                        ),
                    )
                report = _traced_run(
                    tracer, timer, acc, spec.protocol,
                    lambda: run_trace(
                        protocol, trace[spec.warmup:], verify=spec.verify,
                        check_invariants_every=spec.check_invariants_every,
                        timer=timer,
                    ),
                )
                with tracer.span("runner.report_serialise"):
                    data = report.to_dict()
                    canonical(data)
                reports.append(data)
                acc["cells"] += 1
                acc["refs"] += spec.workload.n_references
                acc["measured_refs"] += report.n_references
                acc["bits"] += report.network_total_bits
                _count_layers(acc, notes, system, protocol, report)
                if len(dest_sets) < 96:
                    dest_sets.extend(
                        _harvest_dest_sets(notes, spec, system, limit=16)
                    )
    return reports, acc, dest_sets


def _traced_run(tracer: Tracer, timer, acc: dict, protocol_name: str, call):
    """One ``run_trace`` call; its PhaseTimer laps become child spans."""
    before = timer.laps
    timer.restart()
    with tracer.span("sim.run_trace") as span_id:
        result = call()
    # The laps partition the call (reset, replay, report in that order),
    # so laying them end to end from the span's start rebuilds them.
    cursor = tracer.spans[span_id]["start"]
    for name in ("reset", "replay", "report"):
        seconds = timer.laps.get(name, 0.0) - before.get(name, 0.0)
        tracer.add(f"sim.{name}", cursor, cursor + seconds, span_id,
                   tracer.spans[span_id]["op"])
        cursor += seconds
        if name == "replay":
            key = f"replay_s.{protocol_name}"
            acc[key] = acc.get(key, 0.0) + seconds
    return result


def _count_layers(acc, notes, system, protocol, report) -> None:
    events = report.stats.events
    acc["ownership_transfers"] += events.get("ownership_transfers", 0)
    acc["mode_switches"] += events.get("mode_switches", 0)
    # Baseline protocols have no fast path: fastpath() is None and the
    # epoch stamps do not exist, which counts as zero, not as missing.
    table = probe(notes, "protocol.fastpath", lambda: protocol.fastpath())
    if table is not None:
        acc["fastpath_hits"] += table.hits
    kernel = probe(
        notes, "protocol.batched_kernel", lambda: protocol.batched_kernel()
    )
    if kernel is not None:
        acc["batched_refs"] += kernel.batched_refs
    acc["epoch_bumps"] += getattr(protocol, "fastpath_epoch", 0)
    acc["present_epoch_bumps"] += getattr(protocol, "present_epoch", 0)
    plans = probe(
        notes, "system.route_plan_stats", lambda: system.route_plan_stats()
    )
    if plans:
        acc["plan_hits"] += plans["hits"]
        acc["plan_builds"] += plans["misses"]


def _harvest_dest_sets(notes, spec, system, limit: int) -> list[tuple]:
    def harvest():
        found = []
        for key in system.network.route_plans.keys():
            if (
                isinstance(key, tuple) and len(key) == 3
                and key[0] is spec.config.multicast_scheme
                and isinstance(key[2], frozenset) and len(key[2]) > 1
            ):
                found.append(
                    (spec.config.n_nodes, key[0], key[1], key[2])
                )
                if len(found) == limit:
                    break
        return found

    return probe(notes, "network.route_plans.keys", harvest) or []


def layer_metrics(acc: dict, self_s: dict[str, float]) -> dict:
    """Per-layer metrics of one staged pass from its counters and spans."""
    refs = acc["refs"] or 1
    generate = self_s.get("workloads.generate", 0.0)
    replay = self_s.get("sim.replay", 0.0)
    lookups = acc["plan_hits"] + acc["plan_builds"]
    metrics = {
        "workloads.generate_s": generate,
        "workloads.generate_refs_per_s": (
            acc["generated_refs"] / generate if generate else 0.0
        ),
        "sim.system_build_s": self_s.get("sim.system_build", 0.0),
        "sim.reset_s": self_s.get("sim.reset", 0.0),
        "sim.replay_s": replay,
        "sim.report_s": self_s.get("sim.report", 0.0),
        "sim.replay_refs_per_s": acc["refs"] / replay if replay else 0.0,
        "sim.kernel_batched_share": acc["batched_refs"] / refs,
        "sim.fastpath_hit_share": acc["fastpath_hits"] / refs,
        "sim.bits_per_ref": acc["bits"] / (acc["measured_refs"] or 1),
        "protocol.ownership_transfers": acc["ownership_transfers"],
        "protocol.mode_switches": acc["mode_switches"],
        "protocol.epoch_bumps": acc["epoch_bumps"],
        "protocol.present_epoch_bumps": acc["present_epoch_bumps"],
        "network.plan_hit_share": (
            acc["plan_hits"] / lookups if lookups else 0.0
        ),
        "network.plan_builds": acc["plan_builds"],
        "runner.report_serialise_us": (
            self_s.get("runner.report_serialise", 0.0)
            / (acc["cells"] or 1) * 1e6
        ),
    }
    for name in PROTOCOLS:
        metrics[f"protocol.{name}.replay_s"] = acc[f"replay_s.{name}"]
    return metrics


# ---------------------------------------------------------------------------
# Micro-probes on the traced cells' own data
# ---------------------------------------------------------------------------


def slow_ref_us(cells) -> float:
    """Per-reference dispatch (``compiled=False``) on a 5 000-ref prefix."""
    from repro.runner import execute_spec

    spec = next(
        (cell for cell in cells if cell.protocol == "two-mode"), cells[0]
    )
    refs = min(5000, spec.workload.n_references)
    prefix = dataclasses.replace(
        spec,
        workload=dataclasses.replace(spec.workload, n_references=refs),
        warmup=0,
        compiled=False,
    )
    start = time.perf_counter()
    execute_spec(prefix)
    return (time.perf_counter() - start) / refs * 1e6


def network_probes(dest_sets: list[tuple], plan_builds: int) -> dict:
    """``send_payload`` with plans memoised and with ``route_plans=None``."""
    from repro.network.multicast import Multicaster
    from repro.network.topology import OmegaNetwork

    if not dest_sets:
        raise LookupError("the traced cells multicast to no destination set")
    casters: dict[tuple, tuple] = {}
    for n_nodes, scheme, _source, _dests in dest_sets:
        if (n_nodes, scheme) not in casters:
            hot_net, cold_net = OmegaNetwork(n_nodes), OmegaNetwork(n_nodes)
            cold_net.route_plans = None
            casters[n_nodes, scheme] = (
                Multicaster(hot_net, scheme), Multicaster(cold_net, scheme)
            )

    def send(which: int):
        def one(item) -> None:
            n_nodes, scheme, source, dests = item
            casters[n_nodes, scheme][which].send_payload(source, 20, dests)
        return one

    for item in dest_sets:  # build every plan once, outside the timing
        send(0)(item)
    # One cold send is several plan builds under some schemes (COMBINED
    # builds all three candidates), so builds convert to sends first.
    builds_per_send = sum(
        hot.network.route_plans.stats()["misses"]
        for hot, _cold in casters.values()
    ) / len(dest_sets)
    hit = _per_call_us(send(0), dest_sets)
    cold = _per_call_us(send(1), dest_sets)
    return {
        "network.send_hit_us": hit,
        "network.send_cold_us": cold,
        "network.est_build_s": (
            plan_builds / builds_per_send * (cold - hit) / 1e6
        ),
    }


def runner_probes(cells, reports: list[dict], scratch_dir: str) -> dict:
    """Spec round trip and the result cache, disk and hot tier."""
    from repro.runner import (
        ExperimentSpec, ResultCache, TieredResultCache,
    )
    from repro.sim.engine import SimulationReport

    def roundtrip(spec) -> None:
        ExperimentSpec.from_dict(spec.to_dict()).spec_hash

    pairs = [
        (spec, SimulationReport.from_dict(report))
        for spec, report in zip(cells, reports)
    ]
    disk = ResultCache(scratch_dir)
    hot = TieredResultCache(None, capacity=max(256, len(pairs)))
    for spec, report in pairs:
        hot.put(spec, report)
    return {
        "runner.spec_roundtrip_us": _per_call_us(roundtrip, list(cells)),
        "runner.cache_put_us": _per_call_us(
            lambda pair: disk.put(*pair), pairs
        ),
        "runner.cache_get_us": _per_call_us(
            lambda pair: disk.get(pair[0]), pairs
        ),
        "runner.hot_get_us": _per_call_us(
            lambda pair: hot.get(pair[0]), pairs
        ),
    }


def submit_payload(name: str, cells) -> dict:
    """The frame ``ServeClient.submit(cells, name=name, stream=False)`` sends."""
    return {
        "op": "submit", "name": name, "stream": False,
        "cells": [spec.to_dict() for spec in cells],
    }


def wire_probes(submissions, cells, reports: list[dict]) -> dict:
    """The ``repro.serve.protocol`` functions on the workload's real frames.

    ``submissions`` are ``(name, cells)`` pairs; ``cells``/``reports``
    pair up into the ``result`` frames a shard would stream back.
    """
    from repro.serve import protocol as wire

    payloads = [submit_payload(name, group) for name, group in submissions]
    frames = [wire.decode_frame(wire.encode_frame(p)) for p in payloads]
    results = [
        wire.encode_frame(
            {
                "type": "result", "task": spec.spec_hash[:12],
                "spec_hash": spec.spec_hash, "source": "queued",
                "report": report,
            }
        )
        for spec, report in zip(cells, reports)
    ]
    return {
        "serve.encode_submit_us": _per_call_us(wire.encode_frame, payloads),
        "serve.decode_result_us": _per_call_us(wire.decode_frame, results),
        "serve.parse_submit_us": _per_call_us(
            wire.parse_submit_cells, frames
        ),
        "serve.route_submit_us": _per_call_us(
            wire.route_submit_cells, frames
        ),
    }
