#!/usr/bin/env python3
"""The benchmark of record (see bench/README.md and BENCHMARK.json).

One command, run from the checkout root::

    python3 bench/run.py --workload fig8_sweep --seed 1989 --seconds 14 --trace 0

drives the program through its public entry points only, checks every
delivered report, prints each metric by name with its unit, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without ``--workload`` all five workloads run with
their rounds interleaved and the last line is keyed by workload.

Other modes: ``--write-expected`` regenerates ``bench/expected.json``
through the reference path; ``--compare A.json B.json`` compares two
sets of runs recorded with ``--save``; ``--quick`` is the tenth-size
profile ``bench/test_bench.py`` uses.

Output goes to stdout and ``bench/out/`` only; nothing here appends to
``BENCH_history.jsonl``.  The exit code is non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    # The program is measured from the checkout's own source, never from
    # whatever ``repro`` an interpreter might have installed.
    sys.exit(f"bench/run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from benchlib import workloads  # noqa: E402
from benchlib.check import digest, spread  # noqa: E402
from benchlib.measure import (  # noqa: E402
    MAX_SERVE_ROUNDS, SERVE_PASSES_PER_ROUND, Context, Run, make_run,
    measure, run_child,
)
from benchlib.tracing import ranked, trace_in_process, trace_serve  # noqa: E402

OUT = Path("bench/out")  # relative to ROOT, the working directory
DEFAULT_SEED = 1989
HELD_OUT_SEED = 604
PINNED_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)

#: Seeds not pinned in expected.json are audited instead: this many
#: delivered cells per run go through the reference path again, cells
#: above ``_AUDIT_MAX_REFS`` references as a prefix clone.
_AUDIT_CELLS = 3
_AUDIT_MAX_REFS = 10_000


def load_json(path: Path) -> dict:
    with open(path) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Output checks beyond the per-pass ones: the audit
# ---------------------------------------------------------------------------


def audit(ctx: Context, run: Run) -> None:
    """Re-run a seeded sample of delivered cells through the reference path.

    For an unpinned seed there is no digest to compare with, so a
    delivered report (the default path, what was timed) is held against
    ``compiled=False`` on the same cell.  A cell too long to replay per
    reference is audited on a prefix clone instead, default path against
    reference path.
    """
    rng = random.Random(f"audit/{run.name}/{ctx.seed}")
    pairs = run.checked_cells()
    cells, delivered, clones = [], [], []
    for spec, report in rng.sample(pairs, min(_AUDIT_CELLS, len(pairs))):
        if spec.workload.n_references > _AUDIT_MAX_REFS:
            spec = dataclasses.replace(
                spec,
                workload=dataclasses.replace(
                    spec.workload, n_references=_AUDIT_MAX_REFS
                ),
                warmup=min(spec.warmup, _AUDIT_MAX_REFS // 2),
            )
            clones.append(len(cells))
            report = None
        cells.append(spec)
        delivered.append(report)

    def job(mode: str, specs: list) -> dict:
        return {
            "mode": mode, "name": run.name,
            "cells": [spec.to_dict() for spec in specs],
        }

    reference = run_child(ctx, job("reference", cells))[1]["reports"]
    if clones:
        default = run_child(ctx, job("pass", [cells[i] for i in clones]))
        for index, report in zip(clones, default[1]["reports"]):
            delivered[index] = report
    bad = sum(want != ref for want, ref in zip(delivered, reference))
    if bad:
        run.problem(f"audit: {bad} cell(s) differ from the reference path")
        run.failed += bad
    print(
        f"  {run.name} audit: {len(cells)} cell(s) ({len(clones)} as "
        f"{_AUDIT_MAX_REFS}-ref prefix clones) against the reference "
        f"path, {bad} differ"
    )


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def result_line(correct: bool, attempted: int, failed: int, values: dict,
                definitions: list[dict]) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
            for d in definitions
        },
    }


def print_metrics(result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"  {name:<34} {metric['value']:>16.6f} {metric['unit']}")


def run_end_to_end(ctx: Context, names: list[str], seconds: float,
                   bench: dict) -> dict[str, dict]:
    runs = [make_run(ctx, name) for name in names]
    measure(runs, seconds)
    results = {}
    for run in runs:
        print(f"{run.name}  seed={ctx.seed}  profile={ctx.profile.name}")
        if run.passes and run.name not in ctx.pinned:
            try:
                audit(ctx, run)
            except Exception as exc:  # boundary: report it as a failure
                run.problem(f"audit failed: {exc!r}")
                run.failed += 1
        for line in run.describe():
            print(line)
        if not run.passes or not any(run.latencies):
            print(f"  no pass of {run.name} completed")
            continue
        results[run.name] = result_line(
            run.failed == 0 and not run.problems,
            max(1, run.attempted), run.failed, run.end_to_end(),
            bench["end_to_end"],
        )
        print_metrics(results[run.name])
        print(f"  operations: {run.attempted} attempted, {run.failed} failed")
    return results


def run_traced(ctx: Context, names: list[str], bench: dict) -> dict[str, dict]:
    layer_names = [d["name"] for d in bench["per_layer"]]
    results = {}
    for name in names:
        trace = trace_in_process if name in workloads.IN_PROCESS else trace_serve
        traced = trace(ctx, name, layer_names, OUT)
        print(f"{name}  seed={ctx.seed}  profile={ctx.profile.name}  traced")
        for note in traced.notes:
            print(f"  note: {note}")
        if not traced.pass_wall:
            print(f"  no traced pass of {name} completed")
            continue
        results[name] = result_line(
            traced.failed == 0, max(1, traced.attempted), traced.failed,
            traced.metrics, bench["per_layer"],
        )
        print_metrics(results[name])
        unattributed = traced.metrics["bench.unattributed_s"]
        print(
            f"  traced pass wall {traced.pass_wall:.3f} s, unattributed "
            f"{unattributed / traced.pass_wall:.2%} of it"
        )
        for title, layers in traced.sections:
            total = sum(seconds for _, seconds in ranked(layers)) or 1.0
            print(f"  most expensive {title}:")
            for layer, seconds in ranked(layers)[:3]:
                print(f"    {layer:<34} {seconds:>9.4f} s  {seconds / total:>7.1%}")
        print(f"  operations: {traced.attempted} attempted, {traced.failed} failed")
    return results


def save_runs(label: str, seed: int, trace: int, results: dict) -> None:
    path = OUT / f"{label}.json"
    runs = load_json(path)["runs"] if path.exists() else []
    for name, result in results.items():
        runs.append(
            {
                "workload": name, "seed": seed, "trace": trace,
                "correct": result["correct"],
                "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            }
        )
    with open(path, "w") as handle:
        json.dump({"runs": runs}, handle, indent=1)


def write_expected(ctx_for) -> int:
    """Pin one digest per (profile, seed, workload[, pass]) via the reference path."""
    expected: dict = {}
    for profile, seeds in (
        (workloads.FULL, PINNED_SEEDS), (workloads.QUICK, PINNED_SEEDS)
    ):
        for seed in seeds:
            ctx = ctx_for(profile, seed)
            pinned = expected.setdefault(profile.name, {}).setdefault(str(seed), {})
            for name in workloads.NAMES:
                pinned[name] = []
                for unit in digest_units(name, seed, profile):
                    job = {
                        "mode": "reference", "name": name,
                        "cells": [spec.to_dict() for spec in unit],
                    }
                    _, result = run_child(ctx, job)
                    pinned[name].append(digest(result["reports"]))
                print(f"pinned {profile.name} seed {seed} {name}: {len(pinned[name])} digest(s)", flush=True)
    with open(ROOT / "bench" / "expected.json", "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def digest_units(name: str, seed: int, profile) -> list[list]:
    """The cell lists each pinned digest of ``name`` is taken over."""
    if name in workloads.IN_PROCESS:
        return [list(workloads.sweep(name, seed, profile).cells)]
    if name == "serve_hot":
        return [list(workloads.hot_working_set(seed, profile))]
    return [
        [
            spec
            for client_ops in workloads.cold_ops(seed, index, profile)
            for op in client_ops
            for spec in op.cells
        ]
        for index in range(MAX_SERVE_ROUNDS * SERVE_PASSES_PER_ROUND)
    ]


def compare(path_a: str, path_b: str, bench: dict) -> int:
    """Two sets of runs, metric by metric, against the bounds."""
    sets = [load_json(Path(path))["runs"] for path in (path_a, path_b)]
    worse_count = 0
    print(f"{'workload':<15}{'metric':<13}{'median A':>14}{'median B':>14}"
          f"{'B worse by':>12}{'bound':>8}{'spread A':>10}{'spread B':>10}  verdict")
    for name in workloads.NAMES:
        for metric in bench["end_to_end"]:
            a, b = (
                [
                    run["metrics"][metric["name"]] for run in runs
                    if run["workload"] == name and not run["trace"]
                ]
                for runs in sets
            )
            if not a or not b:
                continue
            median_a, median_b = statistics.median(a), statistics.median(b)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (median_b - median_a) / median_a
            spreads = [spread(v) if len(v) > 1 else 0.0 for v in (a, b)]
            if max(spreads) > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "WORSE"
                worse_count += 1
            else:
                verdict = "ok"
            print(f"{name:<15}{metric['name']:<13}{median_a:>14.4f}{median_b:>14.4f}"
                  f"{worse:>+12.2%}{metric['bound']:>8.0%}{spreads[0]:>10.2%}"
                  f"{spreads[1]:>10.2%}  {verdict}")
    # Counts made by the program repeat exactly for one seed, or not at all.
    exact = [m["name"] for m in bench["per_layer"] if m["unit"] in ("count", "bits/ref")]
    for name in workloads.NAMES:
        seen: dict = {}
        for runs in sets:
            for run in runs:
                if run["workload"] == name and run["trace"]:
                    key = run["seed"]
                    values = tuple(run["metrics"][m] for m in exact)
                    seen.setdefault(key, set()).add(values)
        for seed, variants in seen.items():
            same = len(variants) == 1
            worse_count += not same
            print(f"{name:<15}exact counts, seed {seed}: "
                  f"{'agree exactly' if same else 'DIFFER'}")
    return 1 if worse_count else 0


def main(argv: list[str] | None = None) -> int:
    bench = load_json(ROOT / "BENCHMARK.json")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tenth-size workloads, one round (for tests)")
    parser.add_argument("--save", metavar="LABEL",
                        help="append this run to bench/out/LABEL.json")
    parser.add_argument("--write-expected", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare, bench)
    os.chdir(ROOT)
    scratch = OUT / f"tmp-{os.getpid()}"
    python_path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    expected_path = ROOT / "bench" / "expected.json"
    expected = load_json(expected_path) if expected_path.exists() else {}

    def ctx_for(profile, seed: int) -> Context:
        pinned = expected.get(profile.name, {}).get(str(seed), {})
        return Context(
            profile, seed, python_path, scratch, pinned,
            min_rounds=1 if args.quick else 3,
        )

    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_expected:
            return write_expected(ctx_for)
        profile = workloads.QUICK if args.quick else workloads.FULL
        ctx = ctx_for(profile, args.seed)
        names = [args.workload] if args.workload else list(workloads.NAMES)
        if args.trace:
            results = run_traced(ctx, names, bench)
        else:
            seconds = 0.0 if args.quick else args.seconds
            results = run_end_to_end(ctx, names, seconds, bench)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.save:
        save_runs(args.save, args.seed, args.trace, results)
    if len(results) < len(names):
        return 1
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({"seed": args.seed, "workloads": results}))
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
