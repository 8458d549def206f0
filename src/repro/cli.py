"""Command-line interface: ``python -m repro <command>``.

Thirteen commands cover the common uses of the library without writing
code:

* ``tables``  -- regenerate the paper's Tables 2, 3 and 4 next to the
  published values;
* ``figures`` -- render the Figure 5/6/8 curves as ASCII charts;
* ``simulate`` -- run a generated workload (or a trace file) through a
  protocol on the verifying simulator and print the report;
* ``compare`` -- run one workload through every protocol and rank them;
* ``latency`` -- zero-contention cycles per reference, per protocol;
* ``sweep``   -- cost vs sharer count, executed through the
  :mod:`repro.runner` subsystem (``--workers`` fans cells out over
  processes, ``--cache-dir`` skips unchanged cells, ``--journal``
  records task events), optionally archived as JSON;
* ``chaos``   -- a fault-injection campaign (:mod:`repro.faults`):
  sweep message drop rates (plus optional duplicates, delays and dead
  links/switches) with invariants checked after every reference, and
  report survival (see docs/FAULTS.md);
* ``trace``   -- run one workload with a
  :class:`~repro.obs.recorder.TraceRecorder` attached and export the
  JSONL trace, the Perfetto-loadable Chrome trace and the heatmap JSON
  (see docs/OBSERVABILITY.md);
* ``heatmap`` -- run one workload and render the per-link / per-switch
  utilization grids as ASCII (optionally archived as JSON);
* ``serve``   -- run the :mod:`repro.serve` daemon on a unix socket:
  request coalescing by spec hash, two-tier result cache, bounded-queue
  admission control, streamed progress, graceful drain on SIGTERM
  (see docs/SERVE.md);
* ``submit``  -- submit the ``sweep`` grid to a running daemon instead
  of executing locally (plus ``--ping`` / ``--status`` / ``--metrics``
  / ``--drain`` daemon controls); same table out, so the CLI is just
  one client of the service;
* ``top``     -- live terminal view of a running daemon: request rates,
  p50/p90/p99 latency estimates, cache hit ratios and queue/fabric
  sparklines, refreshed from the daemon's ``metrics`` op (``--once``
  for the non-interactive single-frame mode);
* ``mc``      -- model-check the protocol (:mod:`repro.mc`): exhaustive
  breadth-first exploration of the abstract two-mode model with
  coherence/recovery invariants and minimal counterexample traces,
  plus ``--fuzz`` differential fuzzing of the model against the
  concrete simulator (see docs/MODELCHECK.md).

``sweep`` and ``chaos`` additionally accept ``--trace-dir`` to export
per-cell trace artifacts while the grid runs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.compare import compare_protocols, default_factories
from repro.analysis.figures import (
    fig5_data,
    fig6_data,
    fig8_data,
    table2_data,
    table3_data,
    table4_data,
)
from repro.analysis.report import render_series, render_table
from repro.analysis.sweep import series_by_protocol, sharer_grid, sweep_records
from repro.errors import TraceError
from repro.sim.ctrace import CompiledTrace
from repro.sim.engine import run_trace
from repro.sim.system import System, SystemConfig
from repro.sim.trace import load_trace
from repro.workloads.markov import markov_block_trace
from repro.workloads.synthetic import random_trace


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Stenström's two-mode cache consistency "
            "protocol (ISCA 1989)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "tables", help="regenerate Tables 2-4 next to the paper's values"
    )

    figures = commands.add_parser(
        "figures", help="render the Figure 5/6/8 curves"
    )
    figures.add_argument(
        "--width", type=int, default=64, help="chart width in columns"
    )

    simulate = commands.add_parser(
        "simulate", help="run one workload through one protocol"
    )
    _add_workload_arguments(simulate)
    simulate.add_argument(
        "--protocol",
        choices=sorted(default_factories()),
        default="two-mode",
        help="protocol to drive (default: two-mode)",
    )

    compare = commands.add_parser(
        "compare", help="run one workload through every protocol"
    )
    _add_workload_arguments(compare)

    latency = commands.add_parser(
        "latency",
        help="zero-contention cycles per reference, per protocol",
    )
    _add_workload_arguments(latency)

    sweep = commands.add_parser(
        "sweep",
        help=(
            "cost vs sharer count across protocols, executed through "
            "the repro.runner subsystem (JSON-exportable)"
        ),
    )
    _add_sharer_grid_arguments(sweep)
    sweep.add_argument(
        "--output", help="write the records as JSON to this path"
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes (0 = sequential in-process)",
    )
    sweep.add_argument(
        "--cache-dir",
        help="content-addressed result cache; re-runs only changed cells",
    )
    sweep.add_argument(
        "--journal",
        help="append task start/finish/retry events to this JSONL file",
    )
    sweep.add_argument(
        "--trace-dir",
        help=(
            "export per-cell trace + heatmap artifacts to this directory "
            "(bypasses the result cache)"
        ),
    )

    chaos = commands.add_parser(
        "chaos",
        help=(
            "fault-injection campaign: sweep drop rates (plus optional "
            "duplicates, delays, dead links/switches) with invariants "
            "checked every reference, and report survival"
        ),
    )
    chaos.add_argument(
        "--nodes", type=int, default=16, help="processors (power of two)"
    )
    chaos.add_argument(
        "--references", type=int, default=400, help="trace length per cell"
    )
    chaos.add_argument(
        "--write-fraction", type=float, default=0.3, help="w of §4"
    )
    chaos.add_argument(
        "--workload",
        choices=("random", "markov", "shared-structure"),
        default="random",
        help="generated workload kind (default: random)",
    )
    chaos.add_argument(
        "--seed", type=int, default=0, help="workload generator seed"
    )
    chaos.add_argument(
        "--drop-rates",
        type=float,
        nargs="+",
        default=[0.0, 0.02, 0.05, 0.1],
        help="message drop probabilities to sweep",
    )
    chaos.add_argument(
        "--duplicate-rate",
        type=float,
        default=0.02,
        help="message duplication probability (every cell)",
    )
    chaos.add_argument(
        "--delay-rate",
        type=float,
        default=0.02,
        help="message delay probability (every cell)",
    )
    chaos.add_argument(
        "--kill-link",
        action="append",
        default=[],
        metavar="LEVEL:POSITION",
        help="declare a network link dead (repeatable)",
    )
    chaos.add_argument(
        "--kill-switch",
        action="append",
        default=[],
        metavar="STAGE:INDEX",
        help="declare a 2x2 switch dead (repeatable)",
    )
    chaos.add_argument(
        "--fault-seeds",
        type=int,
        nargs="+",
        default=[0],
        help="fault-injection RNG seeds to sweep",
    )
    chaos.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="retry budget per delivery before giving up",
    )
    chaos.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes (0 = sequential in-process)",
    )
    chaos.add_argument(
        "--cache-dir",
        help="content-addressed result cache; re-runs only changed cells",
    )
    chaos.add_argument(
        "--journal",
        help="append task start/finish/retry events to this JSONL file",
    )
    chaos.add_argument(
        "--output", help="write the survival report as JSON to this path"
    )
    chaos.add_argument(
        "--trace-dir",
        help=(
            "export per-cell trace + heatmap artifacts to this directory "
            "(bypasses the result cache)"
        ),
    )

    trace = commands.add_parser(
        "trace",
        help=(
            "run one workload with tracing on and export JSONL, Chrome "
            "trace (Perfetto) and heatmap JSON artifacts"
        ),
    )
    _add_workload_arguments(trace)
    trace.add_argument(
        "--protocol",
        choices=sorted(default_factories()),
        default="two-mode",
        help="protocol to drive (default: two-mode)",
    )
    trace.add_argument(
        "--out",
        default="trace-out",
        help="directory receiving the artifacts (default: trace-out)",
    )

    heatmap = commands.add_parser(
        "heatmap",
        help=(
            "run one workload and render per-link / per-switch "
            "utilization as ASCII stage-by-position grids"
        ),
    )
    _add_workload_arguments(heatmap)
    heatmap.add_argument(
        "--protocol",
        choices=sorted(default_factories()),
        default="two-mode",
        help="protocol to drive (default: two-mode)",
    )
    heatmap.add_argument(
        "--json", help="also write all four heatmaps as JSON to this path"
    )

    serve = commands.add_parser(
        "serve",
        help=(
            "run the experiment-serving daemon on a unix socket: "
            "coalescing, two-tier caching, admission control, graceful "
            "drain on SIGTERM; --shards N scales out to a spec-hash "
            "router over N daemon subprocesses (see docs/SERVE.md)"
        ),
    )
    serve.add_argument(
        "--socket",
        required=True,
        help="unix socket path to listen on (removed on clean drain)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help=(
            "daemon shards behind a spec-hash router (1 = a single "
            "daemon, no router; default: 1)"
        ),
    )
    serve.add_argument(
        "--listen",
        help=(
            "also accept clients on this TCP host:port (same protocol; "
            "port 0 picks a free port).  No authentication -- bind on "
            "trusted networks only (see docs/SERVE.md)"
        ),
    )
    serve.add_argument(
        "--shard-dir",
        help=(
            "directory for per-shard sockets and logs "
            "(default: <socket>.shards/; only with --shards > 1)"
        ),
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="concurrently executing cells (default: 2)",
    )
    serve.add_argument(
        "--exec-workers",
        type=int,
        default=0,
        help=(
            "worker processes per cell inside the executor "
            "(0 = in-process, the default)"
        ),
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help=(
            "admitted-but-not-started cell bound; submissions beyond it "
            "are rejected whole (default: 64)"
        ),
    )
    serve.add_argument(
        "--hot-capacity",
        type=int,
        default=256,
        help="in-memory LRU hot-tier entries (default: 256)",
    )
    serve.add_argument(
        "--cache-dir",
        help=(
            "disk tier behind the hot cache (content-addressed store); "
            "with --shards > 1 each shard gets its own subdirectory"
        ),
    )
    serve.add_argument(
        "--disk-max-bytes",
        type=int,
        help=(
            "byte budget for the disk tier: puts beyond it evict the "
            "least recently used entries (by mtime; default: unbounded)"
        ),
    )
    serve.add_argument(
        "--disk-max-age",
        type=float,
        help=(
            "expire disk-tier entries not written or read for this many "
            "seconds (default: never)"
        ),
    )
    serve.add_argument(
        "--journal",
        help=(
            "append fsynced daemon + task events to this JSONL file "
            "(the source of streamed progress); with --shards > 1 this "
            "is a directory receiving one journal per shard"
        ),
    )
    serve.add_argument(
        "--stream-artifacts",
        action="store_true",
        help=(
            "stream link/switch heatmaps of every fresh execution to "
            "subscribed clients as 'artifact' frames (in-process task "
            "body only)"
        ),
    )
    serve.add_argument(
        "--sample-interval",
        type=float,
        default=1.0,
        help=(
            "telemetry sampling cadence in seconds "
            "(wall-clock; default: 1.0)"
        ),
    )
    serve.add_argument(
        "--flight-dir",
        help=(
            "directory for automatic flight-recorder JSONL dumps "
            "(coherence errors, rejection bursts, drain); the incident "
            "ring records even without this, but nothing is written"
        ),
    )
    serve.add_argument(
        "--flight-capacity",
        type=int,
        default=512,
        help="flight-recorder ring size in events (default: 512)",
    )

    submit = commands.add_parser(
        "submit",
        help=(
            "submit the sweep grid to a running serve daemon instead of "
            "executing locally (same table out)"
        ),
    )
    submit.add_argument(
        "--socket",
        required=True,
        help=(
            "daemon or router endpoint: a unix socket path, or a TCP "
            "host:port for daemons started with --listen"
        ),
    )
    _add_sharer_grid_arguments(submit)
    submit.add_argument(
        "--output",
        help=(
            "write spec hashes + full reports as deterministic JSON "
            "(byte-identical across clients for identical grids)"
        ),
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="socket timeout in seconds (default: 300)",
    )
    submit.add_argument(
        "--quiet-events",
        action="store_true",
        help="do not print streamed progress events",
    )
    submit.add_argument(
        "--ping",
        action="store_true",
        help="liveness-probe the daemon and exit",
    )
    submit.add_argument(
        "--status",
        action="store_true",
        help="print the daemon's status snapshot as JSON and exit",
    )
    submit.add_argument(
        "--metrics",
        action="store_true",
        help=(
            "print the daemon's /metrics exposition (Prometheus-style "
            "plaintext) and exit"
        ),
    )
    submit.add_argument(
        "--drain",
        action="store_true",
        help="ask the daemon to drain and shut down, then exit",
    )

    top = commands.add_parser(
        "top",
        help=(
            "live terminal view of a running serve daemon: request "
            "rates, p50/p90/p99 latencies, cache hit ratios, queue and "
            "fabric sparklines (see docs/SERVE.md)"
        ),
    )
    top.add_argument(
        "--socket",
        required=True,
        help=(
            "daemon or router endpoint: a unix socket path, or a TCP "
            "host:port for daemons started with --listen"
        ),
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="refresh interval in seconds (default: 2.0)",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="frames to render before exiting (0 = until interrupted)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (non-interactive / CI mode)",
    )
    top.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="socket timeout in seconds (default: 30)",
    )

    mc = commands.add_parser(
        "mc",
        help=(
            "model-check the two-mode protocol: exhaustive exploration "
            "with invariants + counterexample traces, and differential "
            "fuzzing against the simulator (see docs/MODELCHECK.md)"
        ),
    )
    mc.add_argument(
        "--nodes", type=int, default=2, help="model nodes (power of two)"
    )
    mc.add_argument(
        "--blocks", type=int, default=1, help="model blocks (default: 1)"
    )
    mc.add_argument(
        "--exhaustive",
        action="store_true",
        help="explore the full reachable space (no state cap)",
    )
    mc.add_argument(
        "--max-states",
        type=int,
        default=200_000,
        help=(
            "visited-state cap when not --exhaustive (default: 200000)"
        ),
    )
    mc.add_argument(
        "--default-dw",
        action="store_true",
        help=(
            "blocks enter distributed-write mode on first load "
            "(default: global-read)"
        ),
    )
    mc.add_argument(
        "--max-retries",
        type=int,
        default=1,
        help="multicast re-send budget before degradation (default: 1)",
    )
    mc.add_argument(
        "--no-faults",
        action="store_true",
        help="disable the fault actions (degrade, partial delivery)",
    )
    mc.add_argument(
        "--fuzz",
        type=int,
        default=0,
        metavar="RUNS",
        help=(
            "also run this many differential-fuzz interleavings against "
            "the concrete simulator (0 = exploration only)"
        ),
    )
    mc.add_argument(
        "--fuzz-mode",
        choices=("none", "scripted", "dead", "mixed"),
        default="mixed",
        help="fault regime for the fuzz runs (default: mixed)",
    )
    mc.add_argument(
        "--fuzz-nodes",
        type=int,
        default=None,
        help="fuzzer system size (default: same as --nodes)",
    )
    mc.add_argument(
        "--fuzz-blocks",
        type=int,
        default=None,
        help="fuzzer block count (default: same as --blocks)",
    )
    mc.add_argument(
        "--ops",
        type=int,
        default=24,
        help="operations per fuzz run (default: 24)",
    )
    mc.add_argument("--seed", type=int, default=0, help="fuzzer seed")
    mc.add_argument(
        "--output",
        help="write the summary text to this path as well as stdout",
    )

    return parser


def _add_sharer_grid_arguments(parser: argparse.ArgumentParser) -> None:
    """The sharer-sweep grid knobs, shared by ``sweep`` and ``submit``."""
    parser.add_argument(
        "--nodes", type=int, default=64, help="processors (power of two)"
    )
    parser.add_argument(
        "--sharers",
        type=int,
        nargs="+",
        default=[2, 4, 8, 16],
        help="sharer counts to sweep",
    )
    parser.add_argument(
        "--write-fraction", type=float, default=0.3, help="w of §4"
    )
    parser.add_argument(
        "--references", type=int, default=2000, help="trace length"
    )
    parser.add_argument("--seed", type=int, default=0)


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--nodes", type=int, default=16, help="processors (power of two)"
    )
    parser.add_argument(
        "--trace", help="trace file to replay (overrides the generator)"
    )
    parser.add_argument(
        "--workload",
        choices=("markov", "random"),
        default="markov",
        help="generated workload kind",
    )
    parser.add_argument(
        "--sharers", type=int, default=4, help="tasks sharing the block"
    )
    parser.add_argument(
        "--write-fraction", type=float, default=0.2, help="w of §4"
    )
    parser.add_argument(
        "--references", type=int, default=5000, help="trace length"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip value and invariant verification (faster)",
    )


def _make_trace(args: argparse.Namespace) -> CompiledTrace | None:
    """The trace a workload command replays; ``None``, after one
    ``error:`` line on stderr, when the ``--trace`` file cannot be read.
    """
    if args.trace:
        try:
            return load_trace(args.trace)
        except OSError as exc:
            message = exc.strerror or exc
        except TraceError as exc:
            message = exc
        print(f"error: {args.trace}: {message}", file=sys.stderr)
        return None
    if args.workload == "markov":
        return markov_block_trace(
            args.nodes,
            tasks=list(range(args.sharers)),
            write_fraction=args.write_fraction,
            n_references=args.references,
            seed=args.seed,
        )
    return random_trace(
        args.nodes,
        args.references,
        write_fraction=args.write_fraction,
        seed=args.seed,
    )


def _command_tables(_args: argparse.Namespace) -> int:
    for table in (table2_data(), table3_data(), table4_data()):
        print(table.render())
        print()
    return 0


def _command_figures(args: argparse.Namespace) -> int:
    print(
        render_series(
            fig5_data(),
            title="Figure 5: schemes 1 vs 2 (N=1024, M=20)",
            width=args.width,
            log_x=True,
        )
    )
    print()
    print(
        render_series(
            fig6_data(),
            title="Figure 6: schemes 1, 2', 3 (N=1024, n1=128, M=20)",
            width=args.width,
            log_x=True,
        )
    )
    print()
    print(
        render_series(
            fig8_data(n_values=(4, 16)),
            title="Figure 8: normalized CC per reference vs w",
            width=args.width,
        )
    )
    return 0


def _command_simulate(args: argparse.Namespace) -> int:
    trace = _make_trace(args)
    if trace is None:
        return 2
    config = SystemConfig(n_nodes=trace.n_nodes or args.nodes,
                          block_size_words=trace.block_size_words)
    factory = default_factories()[args.protocol]
    protocol = factory(System(config))
    report = run_trace(protocol, trace, verify=not args.no_verify)
    print(report.summary())
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    trace = _make_trace(args)
    if trace is None:
        return 2
    config = SystemConfig(n_nodes=trace.n_nodes or args.nodes,
                          block_size_words=trace.block_size_words)
    comparison = compare_protocols(
        trace, config, verify=not args.no_verify
    )
    print(comparison.render())
    print(f"cheapest: {comparison.winner()}")
    return 0


def _command_latency(args: argparse.Namespace) -> int:
    from repro.analysis.latency import latency_comparison

    trace = _make_trace(args)
    if trace is None:
        return 2
    config = SystemConfig(n_nodes=trace.n_nodes or args.nodes,
                          block_size_words=trace.block_size_words)
    reports = latency_comparison(trace, config, default_factories())
    rows = [
        (
            name,
            f"{report.mean_cycles:.1f}",
            f"{report.hit_fraction:.0%}",
            report.max_cycles,
        )
        for name, report in sorted(
            reports.items(), key=lambda item: item[1].mean_cycles
        )
    ]
    print(
        render_table(
            ("protocol", "cycles/ref", "hits", "worst reference"),
            rows,
            title=(
                f"zero-contention latency over {len(trace)} references"
            ),
        )
    )
    return 0


def _print_sharer_table(records, args: argparse.Namespace) -> None:
    """One row per sharer count; a cell with no record prints ``failed``."""
    series = series_by_protocol(records, "n_sharers")
    names = sorted(default_factories())
    rows = []
    for n in sorted(args.sharers):
        costs = [dict(series.get(name, ())).get(n) for name in names]
        rows.append(
            (f"n={n}",)
            + tuple("failed" if c is None else f"{c:.1f}" for c in costs)
        )
    print(
        render_table(
            ("sharers",) + tuple(names),
            rows,
            title=(
                f"bits/reference vs sharers "
                f"(w={args.write_fraction}, N={args.nodes})"
            ),
        )
    )


def _command_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.records import save_records
    from repro.runner import Executor, ResultCache, RunJournal

    sweep = sharer_grid(
        "cli-sharer-sweep", args.sharers, args.write_fraction,
        n_nodes=args.nodes, references=args.references, seed=args.seed,
    )
    journal = RunJournal(args.journal)
    executor = Executor(
        workers=args.workers,
        cache=ResultCache(args.cache_dir) if args.cache_dir else None,
        journal=journal,
        trace_dir=args.trace_dir,
    )
    results = executor.run(sweep)
    records = sweep_records(
        [(result.spec, result.report) for result in results], "n_sharers"
    )
    _print_sharer_table(records, args)
    counts = journal.counts()
    print(
        f"runner: {len(results)} cells, {counts['executed']} executed, "
        f"{counts['cached']} cached, {counts['retried']} retried "
        f"(workers={args.workers})"
    )
    if args.output:
        save_records(
            records,
            args.output,
            metadata={
                "write_fraction": args.write_fraction,
                "n_nodes": args.nodes,
                "references": args.references,
                "seed": args.seed,
                "sweep_hash": sweep.spec_hash,
            },
        )
        print(f"records written to {args.output}")
    journal.close()
    return 0


def _parse_pairs(values: list[str], label: str) -> tuple[tuple[int, int], ...]:
    """``["1:3", "0:0"]`` -> ``((1, 3), (0, 0))`` with a usable error."""
    from repro.errors import ConfigurationError

    pairs = []
    for value in values:
        try:
            left, right = value.split(":")
            pairs.append((int(left), int(right)))
        except ValueError:
            raise ConfigurationError(
                f"bad {label} {value!r}: expected two integers as A:B"
            ) from None
    return tuple(pairs)


def _command_chaos(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.faults.campaign import chaos_cells, run_campaign
    from repro.runner import ResultCache, RunJournal

    cells = chaos_cells(
        n_nodes=args.nodes,
        n_references=args.references,
        write_fraction=args.write_fraction,
        workload_seed=args.seed,
        workload_kind=args.workload,
        drop_rates=tuple(args.drop_rates),
        duplicate_rate=args.duplicate_rate,
        delay_rate=args.delay_rate,
        dead_links=_parse_pairs(args.kill_link, "--kill-link"),
        dead_switches=_parse_pairs(args.kill_switch, "--kill-switch"),
        fault_seeds=tuple(args.fault_seeds),
        max_retries=args.max_retries,
    )
    journal = RunJournal(args.journal)
    report = run_campaign(
        cells,
        name="cli-chaos",
        workers=args.workers,
        cache=ResultCache(args.cache_dir) if args.cache_dir else None,
        journal=journal,
        trace_dir=args.trace_dir,
    )
    print(report.render())
    counts = journal.counts()
    print(
        f"runner: {len(report.cells)} cells, {counts['executed']} executed, "
        f"{counts['cached']} cached, {counts['failed']} failed "
        f"(workers={args.workers})"
    )
    if args.output:
        Path(args.output).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"survival report written to {args.output}")
    journal.close()
    if not report.survived:
        print("CHAOS: campaign FAILED (see rows marked NO)")
        return 1
    print("CHAOS: campaign survived (zero coherence violations)")
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs import (
        TraceRecorder,
        write_chrome_trace,
        write_heatmaps,
        write_jsonl,
    )

    trace = _make_trace(args)
    config = SystemConfig(n_nodes=trace.n_nodes or args.nodes,
                          block_size_words=trace.block_size_words)
    factory = default_factories()[args.protocol]
    protocol = factory(System(config))
    recorder = TraceRecorder()
    report = run_trace(
        protocol, trace, verify=not args.no_verify, recorder=recorder
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    paths = [
        write_jsonl(recorder, out / "trace.jsonl"),
        write_chrome_trace(
            recorder, out / "trace.chrome.json", process_name=args.protocol
        ),
        write_heatmaps(protocol.system.network, out / "heatmap.json"),
    ]
    print(report.summary())
    kinds = ", ".join(
        f"{name}={count}"
        for name, count in recorder.counts_by_kind().items()
    )
    print(f"trace             : {len(recorder)} events ({kinds})")
    for path in paths:
        print(f"written           : {path}")
    print(
        "open the .chrome.json file at https://ui.perfetto.dev "
        "(or chrome://tracing)"
    )
    return 0


def _command_heatmap(args: argparse.Namespace) -> int:
    from repro.obs import link_heatmap, switch_heatmap, write_heatmaps

    trace = _make_trace(args)
    config = SystemConfig(n_nodes=trace.n_nodes or args.nodes,
                          block_size_words=trace.block_size_words)
    factory = default_factories()[args.protocol]
    protocol = factory(System(config))
    run_trace(protocol, trace, verify=not args.no_verify)
    network = protocol.system.network
    for grid in (
        link_heatmap(network, "bits"),
        link_heatmap(network, "messages"),
        switch_heatmap(network, "messages"),
        switch_heatmap(network, "splits"),
    ):
        print(grid.render())
        print()
    if args.json:
        path = write_heatmaps(network, args.json)
        print(f"heatmaps written to {path}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    # What a daemon takes and a router forwards to each of its shards.
    common = dict(
        socket_path=args.socket,
        listen=args.listen,
        workers=args.workers,
        exec_workers=args.exec_workers,
        max_queue=args.max_queue,
        hot_capacity=args.hot_capacity,
        cache_dir=args.cache_dir,
        sample_interval=args.sample_interval,
        disk_max_bytes=args.disk_max_bytes,
        disk_max_age=args.disk_max_age,
        stream_artifacts=args.stream_artifacts,
    )
    if args.shards > 1:
        return _command_serve_router(args, common)

    from repro.serve.daemon import ServeConfig, ServeDaemon

    daemon = ServeDaemon(
        ServeConfig(
            **common,
            journal_path=args.journal,
            flight_capacity=args.flight_capacity,
            flight_dir=args.flight_dir,
        )
    )
    _serve_until_stopped(
        daemon,
        f"serving on {args.socket} "
        f"(workers={args.workers}, max_queue={args.max_queue}, "
        f"hot_capacity={args.hot_capacity}",
    )
    counts = daemon.journal.counts()
    print(
        f"drained: {counts['executed']} executed, "
        f"{daemon.cache.hot_hits} hot hits, "
        f"{daemon._coalesced} coalesced, "
        f"{daemon._rejected} rejected"
    )
    return 0


def _command_serve_router(args: argparse.Namespace, common: dict) -> int:
    from repro.serve.router import RouterConfig, ServeRouter

    router = ServeRouter(
        RouterConfig(
            **common,
            shards=args.shards,
            shard_dir=args.shard_dir,
            journal_dir=args.journal,
        )
    )
    _serve_until_stopped(
        router,
        f"routing on {args.socket} across {args.shards} shards "
        f"(workers={args.workers} each, max_queue={args.max_queue}",
    )
    counters = router.metrics.counters
    print(
        f"drained: {counters.get('router.requests', 0)} requests, "
        f"{counters.get('router.rejected', 0)} rejected, "
        f"{counters.get('router.shard_restarts', 0)} shard restarts"
    )
    return 0


def _serve_until_stopped(service, banner: str) -> None:
    """Start ``service``, stop it on SIGTERM/SIGINT, serve until drained.

    The handlers go in before ``start`` binds anything: a signal during
    the start drains once it is done, and never kills the process with
    its socket file still on disk.  ``banner`` is printed once the
    endpoints are bound, closed by the TCP port (when there is one) and
    a parenthesis.
    """
    import asyncio
    import signal

    async def _main() -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, service.request_stop)
        await service.start()
        listen = (
            f", tcp port {service.tcp_port}"
            if service.tcp_port is not None
            else ""
        )
        print(f"{banner}{listen})", flush=True)
        await service.run_until_stopped()

    asyncio.run(_main())


def _command_submit(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.errors import OverloadedError
    from repro.serve.client import ServeClient
    from repro.sim.engine import SimulationReport

    client = ServeClient(args.socket, timeout=args.timeout)
    if args.ping:
        print(json.dumps(client.ping(), sort_keys=True))
        return 0
    if args.status:
        print(json.dumps(client.status(), indent=2, sort_keys=True))
        return 0
    if args.metrics:
        print(client.metrics()["text"], end="")
        return 0
    if args.drain:
        print(json.dumps(client.drain(), sort_keys=True))
        return 0

    sweep = sharer_grid(
        "cli-sharer-sweep", args.sharers, args.write_fraction,
        n_nodes=args.nodes, references=args.references, seed=args.seed,
    )

    def show_event(frame: dict) -> None:
        task = frame.get("task", "?")
        label = frame.get("event", "event")
        extra = ""
        if frame.get("refs_per_sec") is not None:
            extra = f" ({frame['refs_per_sec']:,.0f} refs/s)"
        print(f"  event: {task} {label}{extra}")

    try:
        outcome = client.submit(
            list(sweep.cells),
            name=sweep.name,
            on_event=None if args.quiet_events else show_event,
        )
    except OverloadedError as exc:
        print(f"rejected: {exc}")
        return 3
    by_hash = {
        frame["spec_hash"]: frame["report"] for frame in outcome.results
    }
    finished = [spec for spec in sweep.cells if spec.spec_hash in by_hash]
    pairs = [
        (spec, SimulationReport.from_dict(by_hash[spec.spec_hash]))
        for spec in finished
    ]
    records = sweep_records(pairs, "n_sharers")
    _print_sharer_table(records, args)
    accepted = outcome.accepted
    print(
        f"serve: {accepted['tasks']} cells "
        f"({accepted['unique']} unique), "
        f"{accepted['queued']} queued, "
        f"{accepted['coalesced']} coalesced, "
        f"{accepted['cached']} cached "
        f"(socket={args.socket})"
    )
    if args.output:
        # Deterministic payload: spec hash + report only, sorted keys,
        # in *grid cell order* (not arrival order -- a sharded router
        # interleaves shard streams nondeterministically), so any two
        # clients submitting the same grid write identical bytes.
        payload = {
            "name": sweep.name,
            "sweep_hash": sweep.spec_hash,
            "results": [
                {
                    "spec_hash": spec.spec_hash,
                    "report": by_hash[spec.spec_hash],
                }
                for spec in finished
            ],
        }
        Path(args.output).write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n"
        )
        print(f"results written to {args.output}")
    if outcome.failed:
        for frame in outcome.errors:
            print(f"FAILED: {frame.get('task')}: {frame.get('error')}")
        return 1
    return 0


def _command_top(args: argparse.Namespace) -> int:
    import time

    from repro.obs.telemetry import render_top
    from repro.serve.client import ServeClient

    client = ServeClient(args.socket, timeout=args.timeout)
    iterations = 1 if args.once else args.iterations
    previous: dict | None = None
    scraped_at: float | None = None
    rendered = 0
    try:
        while True:
            frame = client.metrics()
            now = time.monotonic()
            elapsed = (
                now - scraped_at if scraped_at is not None else None
            )
            print(
                render_top(
                    frame,
                    previous=previous,
                    elapsed=elapsed,
                    title=f"repro top -- {args.socket}",
                ),
                flush=True,
            )
            previous, scraped_at = frame, now
            rendered += 1
            if iterations and rendered >= iterations:
                return 0
            print(flush=True)  # blank line between frames
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _command_mc(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.mc import DifferentialFuzzer, ModelConfig, explore

    cfg = ModelConfig(
        n_nodes=args.nodes,
        n_blocks=args.blocks,
        default_dw=args.default_dw,
        max_retries=args.max_retries,
        faults=not args.no_faults,
    )
    result = explore(
        cfg, max_states=None if args.exhaustive else args.max_states
    )
    sections = [result.summary()]

    fuzz_ok = True
    if args.fuzz:
        fuzzer = DifferentialFuzzer(
            n_nodes=args.fuzz_nodes or args.nodes,
            n_blocks=args.fuzz_blocks or args.blocks,
            ops_per_run=args.ops,
            fault_mode=args.fuzz_mode,
            max_retries=args.max_retries,
            seed=args.seed,
        )
        report = fuzzer.run(args.fuzz)
        fuzz_ok = report.ok
        sections.append("differential fuzz:")
        sections.append(report.summary())
    text = "\n".join(sections)
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"summary written to {args.output}")
    if not result.ok or not fuzz_ok:
        print("MC: FAILED (see violations/divergences above)")
        return 1
    print("MC: pass")
    return 0


_COMMANDS = {
    "tables": _command_tables,
    "figures": _command_figures,
    "simulate": _command_simulate,
    "compare": _command_compare,
    "latency": _command_latency,
    "sweep": _command_sweep,
    "chaos": _command_chaos,
    "trace": _command_trace,
    "heatmap": _command_heatmap,
    "serve": _command_serve,
    "submit": _command_submit,
    "top": _command_top,
    "mc": _command_mc,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
