"""The fresh process every in-process pass runs in.

``python -m benchlib.child`` imports the program, prints ``ready`` (the
parent times spawn -> ``ready`` as the workload's set-up), reads one JSON
job from stdin, runs it and prints one JSON result.  A fresh process per
pass means route-plan caches, memo LRUs and the heap start cold, so no
process-wide memo a later change adds can turn pass two into a hot pass.

Jobs (``mode``):

* ``pass`` -- ``Executor(workers=0, cache=None).run(sweep)``, timed;
* ``traced`` -- the same cells staged call by call under spans
  (:func:`benchlib.probes.staged_pass`) plus the micro-probes;
* ``reference`` -- the cells through the reference path
  (``compiled=False``: the per-``Reference`` loop, no fast path, no
  kernel): what ``bench/expected.json`` pins and the audit compares with.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time

from benchlib import procfs


def _cells(job: dict):
    from repro.runner import ExperimentSpec

    return [ExperimentSpec.from_dict(cell) for cell in job["cells"]]


def run_pass(job: dict) -> dict:
    from repro.runner import Executor, SweepSpec

    sweep = SweepSpec(job["name"], tuple(_cells(job)))
    cpu0 = time.process_time()
    start = time.perf_counter()
    results = Executor(workers=0, cache=None).run(sweep)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    return {
        "wall": wall,
        "cpu": cpu,
        "cell_walls": [result.wall_time for result in results],
        "reports": [result.report.to_dict() for result in results],
    }


def run_traced(job: dict) -> dict:
    from benchlib import probes
    from benchlib.spans import Tracer, self_times

    cells = _cells(job)
    tracer = Tracer()
    notes: list[str] = []
    start = time.perf_counter()
    reports, acc, dest_sets = probes.staged_pass(cells, tracer, notes)
    wall = time.perf_counter() - start
    self_s = self_times(tracer.spans)
    metrics = probes.layer_metrics(acc, self_s)
    metrics["protocol.slow_ref_us"] = probes.probe(
        notes, "protocol.slow_ref_us", lambda: probes.slow_ref_us(cells)
    )
    for name, fn in (
        ("network", lambda: probes.network_probes(
            dest_sets, acc["plan_builds"])),
        ("runner", lambda: probes.runner_probes(
            cells, reports, job["scratch_dir"])),
        ("serve", lambda: probes.wire_probes(
            [(job["name"], cells)], cells, reports)),
    ):
        metrics.update(probes.probe(notes, name, fn) or {})
    return {
        "wall": wall,
        "reports": reports,
        "metrics": metrics,
        "self_s": self_s,
        "spans": tracer.spans,
        "notes": notes,
    }


def run_reference(job: dict) -> dict:
    from repro.runner import execute_spec

    return {
        "reports": [
            execute_spec(dataclasses.replace(spec, compiled=False)).to_dict()
            for spec in _cells(job)
        ]
    }


MODES = {"pass": run_pass, "traced": run_traced, "reference": run_reference}


def main() -> int:
    import repro.runner  # noqa: F401  (the program's imports are set-up)

    print("ready", flush=True)
    job = json.loads(sys.stdin.readline())
    result = MODES[job["mode"]](job)
    result["peak_rss_mb"] = procfs.peak_rss_mb()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
