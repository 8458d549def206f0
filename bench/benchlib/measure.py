"""Rounds, passes and their checks: what one workload's run is made of.

A *round* starts the program cold -- a fresh child process for an
in-process workload, a fresh two-shard fleet for a serve workload --
and times that start as one ``setup_s`` sample; the passes of the round
are the timed work.  :func:`measure` interleaves the rounds of several
workloads round-robin, so slow machine drift hits all of them alike.

Every delivered report is checked before it counts
(:func:`benchlib.check.report_problem`), a pass whose digest differs
from the pinned one fails every operation of that pass, and serve
rounds also require the fleet's ``status`` ledger to show each
submitted cell executed exactly once.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.serve import ServeClient

from benchlib import workloads
from benchlib.check import digest, percentile, quartiles, report_problem
from benchlib.fleet import Fleet, run_ops
from benchlib.workloads import Op, Profile

#: Serve rounds hold this many passes; ``bench/expected.json`` pins the
#: digests of ``MAX_SERVE_ROUNDS`` rounds' worth of ``serve_cold`` passes.
SERVE_PASSES_PER_ROUND = 2
MAX_SERVE_ROUNDS = 4
MAX_IN_PROCESS_ROUNDS = 16

_CHILD_DEADLINE = 150.0
_PRELOAD_BATCH = 16


@dataclass
class Context:
    """What every round of one invocation shares."""

    profile: Profile
    seed: int
    python_path: str  # PYTHONPATH of children and fleets: src/ and bench/
    scratch: Path  # under bench/out/, relative to the checkout root
    pinned: dict  # workload -> digests, for this (profile, seed); may be {}
    min_rounds: int = 3
    _serial: int = 0

    def scratch_dir(self, stem: str) -> Path:
        self._serial += 1
        return self.scratch / f"{stem}{self._serial}"


def calib_ms() -> float:
    """A fixed pure-Python spin: how fast the machine is right now."""
    start = time.perf_counter()
    total = 0
    for index in range(400_000):
        total += index * index % 7
    return (time.perf_counter() - start) * 1e3


# ---------------------------------------------------------------------------
# Child processes (in-process workloads)
# ---------------------------------------------------------------------------


def run_child(ctx: Context, job: dict) -> tuple[float, dict]:
    """Spawn ``benchlib.child``; returns ``(set-up seconds, result)``."""
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-m", "benchlib.child"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=ctx.python_path),
    )
    watchdog = threading.Timer(_CHILD_DEADLINE, process.kill)
    watchdog.start()
    try:
        if process.stdout.readline().strip() != "ready":
            raise RuntimeError("child exited before it was ready")
        setup = time.perf_counter() - started
        process.stdin.write(json.dumps(job) + "\n")
        process.stdin.flush()
        line = process.stdout.readline()
        if not line:
            raise RuntimeError("child exited without a result")
        return setup, json.loads(line)
    finally:
        watchdog.cancel()
        process.stdin.close()
        process.stdout.close()
        if process.poll() is None:
            try:
                process.wait(10.0)
            except subprocess.TimeoutExpired:
                process.kill()
        process.wait()


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    wall: float
    cpu: float
    refs: int
    cells: int
    calib: float


@dataclass
class Run:
    """The accumulating measurements of one workload in one invocation."""

    ctx: Context
    name: str
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    setups: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    passes: list[Pass] = field(default_factory=list)
    latencies: list[list[float]] = field(default_factory=list)  # s, per pass
    problems: list[str] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)

    max_rounds = MAX_IN_PROCESS_ROUNDS

    def elapsed(self) -> float:
        return sum(p.wall for p in self.passes)

    def wants_round(self, seconds: float) -> bool:
        """Whether another round brings the timed total closer to ``seconds``."""
        if self.rounds >= self.max_rounds:
            return False
        if self.rounds < self.ctx.min_rounds or not self.passes:
            return True
        per_round = self.elapsed() / self.rounds
        return self.elapsed() + per_round / 2 < seconds

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"  !! {self.name}: {text}")

    def check_digest(self, index: int, got: str) -> bool:
        """``got`` against pinned digest ``index``, when there is one."""
        pinned = self.ctx.pinned.get(self.name)
        if pinned is None or index >= len(pinned) or pinned[index] == got:
            return True
        self.problem(
            f"digest {got[:12]} differs from pinned {pinned[index][:12]}"
        )
        return False

    def round(self) -> None:
        """One guarded round: an exception fails the round's operations."""
        self.rounds += 1
        planned = self.planned_ops()
        before = self.attempted
        try:
            self._round()
        except Exception as exc:  # boundary: the run reports, never dies
            self.problem(f"round {self.rounds} failed: {exc!r}")
            missing = planned - (self.attempted - before)
            self.attempted += missing
            self.failed += missing

    def end_to_end(self) -> dict[str, float]:
        """The end-to-end metrics; raises if no pass completed."""
        return {
            "setup_s": statistics.median(self.setups),
            "refs_per_s": statistics.median(
                p.refs / p.wall for p in self.passes
            ),
            "cells_per_s": statistics.median(
                p.cells / p.wall for p in self.passes
            ),
            "op_p50_ms": self.op_percentile_ms(50),
            "op_p95_ms": self.op_percentile_ms(95),
            "cpu_s": statistics.median(p.cpu for p in self.passes),
            "peak_rss_mb": statistics.median(self.rss_mb),
        }

    def op_percentile_ms(self, q: float) -> float:
        """Median over passes of each pass's nearest-rank percentile.

        One slow pass then moves the figure no more than it moves the
        throughput medians; pooled, it would own the whole upper tail.
        """
        return 1e3 * statistics.median(
            percentile(latencies, q) for latencies in self.latencies if latencies
        )

    def describe(self) -> list[str]:
        """Median and quartiles per per-pass series, with sample counts."""
        series = {
            "setup_s": self.setups,
            "pass_wall_s": [p.wall for p in self.passes],
            "refs_per_s": [p.refs / p.wall for p in self.passes],
            "cells_per_s": [p.cells / p.wall for p in self.passes],
            "cpu_s": [p.cpu for p in self.passes],
            "peak_rss_mb": self.rss_mb,
            "calib_ms": [p.calib for p in self.passes],
        }
        lines = []
        for name, values in series.items():
            if values:
                q1, median, q3 = quartiles(values)
                lines.append(
                    f"  {name:<14} median {median:>12.4f}  "
                    f"q1 {q1:>12.4f}  q3 {q3:>12.4f}  n={len(values)}"
                )
        if any(self.latencies):
            lines.append(
                f"  {'op latency':<14} p50 {self.op_percentile_ms(50):.4f} ms"
                f"  p95 {self.op_percentile_ms(95):.4f} ms  (median over passes"
                f" of per-pass percentiles; n={sum(map(len, self.latencies))}"
                f" ops in {len(self.latencies)} passes)"
            )
        return lines


class InProcessRun(Run):
    """One pass per round: a fresh child runs the sweep through Executor.

    The operation is the cell: ``attempted`` counts cells and the
    latency pool holds each cell's ``TaskResult.wall_time``.
    """

    def __init__(self, ctx: Context, name: str) -> None:
        super().__init__(ctx, name)
        self.cells = list(workloads.sweep(name, ctx.seed, ctx.profile).cells)
        self.job = {
            "mode": "pass",
            "name": name,
            "cells": [cell.to_dict() for cell in self.cells],
        }
        self.reports: list[dict] = []
        self.executor_overhead_s = 0.0

    def planned_ops(self) -> int:
        return len(self.cells)

    def checked_cells(self) -> list[tuple]:
        """``(spec, report)`` of the last pass, for the audit."""
        return list(zip(self.cells, self.reports))

    def _round(self) -> None:
        calib = calib_ms()
        setup, result = run_child(self.ctx, self.job)
        reports = result["reports"]
        self.attempted += len(self.cells)
        bad = 0
        for spec, report in zip(self.cells, reports):
            problem = report_problem(spec, report)
            if problem:
                bad += 1
                self.problem(f"{spec.describe()}: {problem}")
        got = digest(reports)
        # Every pass runs the same cells, so every pass must agree with
        # the first (and with the pinned digest when the seed is pinned).
        if len(reports) != len(self.cells) or not self.check_digest(0, got):
            bad = len(self.cells)
        elif self.digests and got != self.digests[0]:
            self.problem("pass digest differs from the first pass")
            bad = len(self.cells)
        self.digests.append(got)
        self.failed += bad
        self.reports = reports
        self.setups.append(setup)
        self.rss_mb.append(result["peak_rss_mb"])
        self.latencies.append(result["cell_walls"])
        self.executor_overhead_s = result["wall"] - sum(result["cell_walls"])
        self.passes.append(
            Pass(
                wall=result["wall"], cpu=result["cpu"],
                refs=sum(r["n_references"] for r in reports),
                cells=len(reports), calib=calib,
            )
        )
        print(
            f"  {self.name} pass {len(self.passes)}: calib {calib:.1f} ms"
            f"  setup {setup:.3f} s  wall {result['wall']:.3f} s"
            f"  cpu {result['cpu']:.3f} s  {'ok' if not bad else 'FAILED'}"
        )


class ServeRun(Run):
    """A fleet per round, ``SERVE_PASSES_PER_ROUND`` passes per fleet.

    The operation is the submission: ``attempted`` counts
    ``ServeClient.submit`` calls and the latency pool holds their round
    trips.  ``submit``/``dial``/``lane`` are swapped by the traced pass.
    """

    max_rounds = MAX_SERVE_ROUNDS

    def __init__(self, ctx: Context, name: str, **run_ops_kwargs) -> None:
        super().__init__(ctx, name)
        self.hot = name == "serve_hot"
        self.expected_source = "hot" if self.hot else "queued"
        self.passes_per_round = SERVE_PASSES_PER_ROUND
        self.run_ops_kwargs = run_ops_kwargs
        self.working_set = (
            workloads.hot_working_set(ctx.seed, ctx.profile) if self.hot else ()
        )
        self.pass_index = 0
        self.party_cpu: list[tuple[float, float, float]] = []  # per pass
        self.last_ops: list[list[Op]] = []
        # Every checked delivery, by spec hash, in first-delivery order.
        self.specs: dict[str, object] = {}
        self.delivered: dict[str, dict] = {}
        # Hooks(fleet) around a round's passes: probes on the live fleet.
        self.before_passes = self.after_passes = lambda fleet: None

    def planned_ops(self) -> int:
        per_client = (
            self.ctx.profile.hot_ops if self.hot
            else self.ctx.profile.cold_batches
        )
        return per_client * workloads.N_CLIENTS * self.passes_per_round

    def checked_cells(self) -> list[tuple]:
        """``(spec, report)`` of every checked delivery, for the audit."""
        return [(self.specs[h], self.delivered[h]) for h in self.specs]

    def _ops(self) -> list[list[Op]]:
        if self.hot:
            return workloads.hot_ops(
                self.ctx.seed, self.pass_index, self.working_set,
                self.ctx.profile,
            )
        return workloads.cold_ops(
            self.ctx.seed, self.pass_index, self.ctx.profile
        )

    def _preload(self, fleet: Fleet) -> dict[str, dict]:
        """Execute the working set once; its reports, by spec hash."""
        known: dict[str, dict] = {}
        with ServeClient(fleet.socket) as client:
            for at in range(0, len(self.working_set), _PRELOAD_BATCH):
                batch = self.working_set[at:at + _PRELOAD_BATCH]
                outcome = client.submit(
                    list(batch), name="preload", stream=False
                )
                if outcome.errors or len(outcome.results) != len(batch):
                    raise RuntimeError("preload did not deliver every cell")
                for frame in outcome.results:
                    known[frame["spec_hash"]] = frame["report"]
        for spec in self.working_set:
            problem = report_problem(spec, known[spec.spec_hash])
            if problem:
                raise RuntimeError(f"preloaded {spec.describe()}: {problem}")
        got = digest([known[spec.spec_hash] for spec in self.working_set])
        if not self.check_digest(0, got):
            raise RuntimeError("working-set digest differs from pinned")
        self.digests.append(got)
        return known

    def _round(self) -> None:
        ctx = self.ctx
        started = time.perf_counter()
        with Fleet(ctx.scratch_dir("fleet"), ctx.python_path) as fleet:
            known = self._preload(fleet) if self.hot else None
            setup = time.perf_counter() - started
            self.setups.append(setup)
            self.before_passes(fleet)
            submitted: set[str] = set()
            round_ops = round_bad = 0
            for _ in range(self.passes_per_round):
                ops, bad = self._pass(fleet, known, submitted, setup)
                round_ops += ops
                round_bad += bad
            # Exactly-once, fleet-wide, from the public status ledger.
            executed = ServeClient(fleet.socket).status()["executed"]
            expect = (
                [spec.spec_hash for spec in self.working_set] if self.hot
                else sorted(submitted)
            )
            wrong = [h for h in expect if executed.get(h) != 1]
            if wrong:
                self.problem(
                    f"{len(wrong)} cell(s) not executed exactly once, e.g. "
                    f"{wrong[0][:12]} x{executed.get(wrong[0])}"
                )
                self.failed += round_ops - round_bad
            self.rss_mb.append(fleet.peak_rss_mb())
            self.after_passes(fleet)

    def _pass(self, fleet, known, submitted: set, setup) -> tuple[int, int]:
        """One timed pass; returns ``(operations, operations failed)``."""
        calib = calib_ms()
        per_client = self._ops()
        index = self.pass_index
        self.pass_index += 1
        router0, shards0 = fleet.cpu_s()
        wall, generator_cpu, lanes = run_ops(
            fleet.socket, per_client, **self.run_ops_kwargs
        )
        router1, shards1 = fleet.cpu_s()
        # Who was busy, from outside: (generator, router, shards) seconds.
        self.party_cpu.append(
            (generator_cpu, router1 - router0, shards1 - shards0)
        )
        cpu = sum(self.party_cpu[-1])
        ops = bad = 0
        reports: list[dict] = []
        latencies: list[float] = []
        for client_ops, lane in zip(per_client, lanes):
            for op, (latency, results) in zip(client_ops, lane):
                ops += 1
                delivered = self._check_op(op, latency, results, known)
                if delivered is None:
                    bad += 1
                    continue
                latencies.append(latency)
                reports.extend(delivered)
                for spec, report in zip(op.cells, delivered):
                    submitted.add(spec.spec_hash)
                    self.specs[spec.spec_hash] = spec
                    self.delivered[spec.spec_hash] = report
        if not self.hot:
            got = digest(reports)
            self.digests.append(got)
            if not self.check_digest(index, got):
                bad = ops
        self.attempted += ops
        self.failed += bad
        self.latencies.append(latencies)
        self.last_ops = per_client
        self.passes.append(
            Pass(
                wall=wall, cpu=cpu,
                refs=sum(r["n_references"] for r in reports),
                cells=len(reports), calib=calib,
            )
        )
        print(
            f"  {self.name} pass {len(self.passes)}: calib {calib:.1f} ms"
            f"  setup {setup:.3f} s  wall {wall:.3f} s  cpu {cpu:.3f} s"
            f"  generator busy {generator_cpu / wall:.2f}"
            f"  {'ok' if not bad else f'{bad} op(s) FAILED'}"
        )
        return ops, bad

    def _check_op(self, op: Op, latency, results, known) -> list[dict] | None:
        """The op's reports in cell order, or ``None`` if it failed."""
        if latency is None:
            self.problem(f"{op.name}: {results}")
            return None
        by_hash = {frame.get("spec_hash"): frame for frame in results}
        reports = []
        for spec in op.cells:
            frame = by_hash.get(spec.spec_hash)
            if frame is None or len(results) != len(op.cells):
                problem = "a cell's result is missing"
            elif frame.get("source") != self.expected_source:
                problem = (
                    f"source {frame.get('source')!r}, "
                    f"expected {self.expected_source!r}"
                )
            elif known is not None and frame["report"] != known[spec.spec_hash]:
                problem = "report differs from the preloaded one"
            else:
                problem = report_problem(spec, frame["report"])
            if problem:
                self.problem(f"{op.name}: {problem}")
                return None
            reports.append(frame["report"])
        return reports


def make_run(ctx: Context, name: str) -> Run:
    if name in workloads.IN_PROCESS:
        return InProcessRun(ctx, name)
    return ServeRun(ctx, name)


def measure(runs: list[Run], seconds: float) -> None:
    """Round-robin rounds until every run has measured for ``seconds``."""
    while True:
        pending = [run for run in runs if run.wants_round(seconds)]
        if not pending:
            return
        for run in pending:
            run.round()
