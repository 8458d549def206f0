"""Parallel, cached, observable execution of experiment specs.

The :class:`Executor` fans a :class:`~repro.runner.spec.SweepSpec` out over
worker processes -- one short-lived process per cell, fed the cell's spec
as plain JSON data and returning the serialised
:class:`~repro.sim.engine.SimulationReport` over a pipe.  Because every
cell is a pure function of its spec (the workload generator is reseeded
from the spec inside the worker), the parallel path is bit-identical to
the sequential in-process fallback (``workers=0``): same specs in, same
reports out, in cell order, regardless of completion order.

Robustness knobs:

* ``timeout`` -- per-attempt wall-clock limit; a worker that overruns is
  terminated and the cell retried (parallel mode only -- an in-process
  task cannot be interrupted);
* ``retries`` -- how many *additional* attempts a cell gets after a
  worker crash, raised exception, or timeout, before the whole run fails
  with :class:`~repro.errors.ExecutionError`;
* ``backoff`` -- base delay before a retry, doubled per attempt
  (``backoff * 2**(attempt-1)``): a deterministic schedule derived from
  the attempt number alone, never from the clock, recorded per retry in
  the journal;
* ``on_error`` -- ``"raise"`` (default) aborts the run when a cell
  exhausts its budget; ``"collect"`` records the failure as a
  :class:`TaskResult` with ``report=None`` and keeps going, which is how
  chaos campaigns turn failures into survival-report rows;
* ``cache`` -- a :class:`~repro.runner.cache.ResultCache`; hits skip
  execution entirely and are journaled as ``task_cached``;
* ``journal`` -- a :class:`~repro.runner.journal.RunJournal` receiving
  start/finish/retry/failure events with wall time, traffic counters,
  and the error class of every failed attempt;
* ``metrics`` -- a :class:`~repro.obs.metrics.MetricsRegistry`; when
  set, every completed task observes its wall time into the
  ``latency.start_to_finish_ms`` histogram (the serve daemon's
  start->finish leg) and the parallel path keeps an
  ``executor.workers_busy`` occupancy gauge.  ``None`` (the default)
  costs the execution paths nothing;
* ``trace_dir`` -- when set, every cell runs with a
  :class:`~repro.obs.recorder.TraceRecorder` attached and exports its
  JSONL trace, Chrome trace and heatmap JSON there (named by spec
  hash); the result cache is bypassed so every cell actually runs and
  traced reports never leak into untraced consumers.

Errors are *classified before retrying*: an exception whose type says
the outcome is a pure function of the spec -- a bad configuration, a
coherence violation, a malformed trace -- will fail identically on every
attempt, so the executor fails fast instead of burning the retry budget
(see :data:`PERMANENT_ERROR_CLASSES`).
"""

from __future__ import annotations

import functools
import multiprocessing
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait as connection_wait
from pathlib import Path
from typing import Callable, Sequence

from repro.errors import ConfigurationError, ExecutionError
from repro.obs.metrics import LATENCY_BUCKETS_MS, MetricsRegistry
from repro.runner.cache import ResultCache
from repro.runner.journal import RunJournal
from repro.runner.spec import ExperimentSpec, SweepSpec
from repro.sim.engine import SimulationReport, run_trace
from repro.sim.system import System
from repro.types import Op

#: How long the scheduler sleeps in :func:`multiprocessing.connection.wait`
#: between bookkeeping passes (timeout checks, launches).
_POLL_SECONDS = 0.05

#: Exception class names whose failure is a deterministic function of the
#: spec: retrying re-runs the same pure function on the same input, so
#: these fail fast regardless of the retry budget.  Classes not listed
#: here (worker crashes, timeouts, MemoryError, ...) stay retryable.
PERMANENT_ERROR_CLASSES = frozenset(
    {
        "ConfigurationError",
        "CoherenceError",
        "TraceError",
        "ProtocolError",
        "FaultInjectionError",
    }
)


def _run_cell(spec: ExperimentSpec, trace=None, recorder=None):
    """Build the machine, warm it up, measure: ``(report, system)``.

    The one cell body behind :func:`execute_spec` and its two twins in
    :mod:`repro.obs.hooks`.  ``trace``, when given, is replayed instead
    of a fresh ``spec.workload.build()``, never modified; ``recorder``,
    when given, watches the measured run only.
    """
    from repro.analysis.compare import default_factories

    factories = default_factories()
    if spec.protocol not in factories:
        raise ConfigurationError(
            f"unknown protocol {spec.protocol!r}; "
            f"expected one of {sorted(factories)}"
        )
    system = System(spec.config, fault_plan=spec.fault_plan)
    protocol = factories[spec.protocol](system)
    if trace is None:
        trace = spec.workload.build()

    def replay(rows, **checks):
        # compiled=False hands the rows over as a plain iterable, which
        # run_trace replays on its checked slow loop, never the kernel.
        return run_trace(
            protocol, rows if spec.compiled else iter(rows), **checks
        )

    shadow = None
    if spec.warmup:
        warm = trace[: spec.warmup]
        replay(warm, verify=False, check_invariants_every=0)
        if spec.verify:
            # The caches hold the warm-up's writes: verify against them.
            shadow = {r.address: r.value for r in warm if r.op is Op.WRITE}
    report = replay(
        trace[spec.warmup :],
        verify=spec.verify,
        check_invariants_every=spec.check_invariants_every,
        recorder=recorder,
        _shadow=shadow,
    )
    return report, system


def execute_spec(spec: ExperimentSpec, trace=None) -> SimulationReport:
    """Run one cell in-process: build the machine, the trace, measure.

    The sequential path calls this directly and the worker processes
    call it on a deserialised copy of the spec, which is what makes the
    two paths bit-identical.  ``trace``, when given, must be what this
    function would have built for ``spec``, ``spec.workload.build()``.
    It is replayed, never modified, so the sequential path hands one
    generation to every cell with an equal workload.
    """
    return _run_cell(spec, trace)[0]


def _worker_main(spec_dict: dict, task_fn, conn) -> None:
    """Worker-process entry: run one cell, ship the outcome, exit."""
    try:
        spec = ExperimentSpec.from_dict(spec_dict)
        fn = execute_spec if task_fn is None else task_fn
        report = fn(spec)
        conn.send(("ok", report.to_dict()))
    except BaseException as exc:
        try:
            conn.send(
                (
                    "error",
                    {
                        "class": type(exc).__name__,
                        "traceback": traceback.format_exc(),
                    },
                )
            )
        except Exception:  # parent gone; nothing left to report to
            pass
    finally:
        conn.close()


@dataclass(frozen=True)
class TaskResult:
    """One executed (or cache-served, or collected-failed) cell.

    ``attempts`` counts executions actually performed (0 for a cache
    hit); ``wall_time`` is the successful attempt's duration in seconds.
    Under ``on_error="collect"`` a cell that exhausted its budget comes
    back with ``report=None`` and the last failure's class and text in
    ``error_class`` / ``error``.
    """

    spec: ExperimentSpec
    report: SimulationReport | None
    cached: bool
    attempts: int
    wall_time: float
    error: str | None = None
    error_class: str | None = None

    @property
    def failed(self) -> bool:
        return self.report is None


class _Running:
    """Bookkeeping for one in-flight worker process."""

    def __init__(self, index, spec, attempt, process, conn, started):
        self.index = index
        self.spec = spec
        self.attempt = attempt
        self.process = process
        self.conn = conn
        self.started = started


class Executor:
    """Runs experiment specs, optionally in parallel, through the cache.

    ``workers=0`` (the default) executes sequentially in-process --
    useful under debuggers, in environments without ``multiprocessing``
    head-room, and as the reference the parallel path is checked against.
    """

    def __init__(
        self,
        *,
        workers: int = 0,
        timeout: float | None = None,
        retries: int = 1,
        backoff: float = 0.0,
        on_error: str = "raise",
        cache: ResultCache | None = None,
        journal: RunJournal | None = None,
        task_fn: Callable[[ExperimentSpec], SimulationReport] | None = None,
        trace_dir: str | Path | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if workers < 0:
            raise ConfigurationError(
                f"workers must be >= 0, got {workers}"
            )
        if timeout is not None and timeout <= 0:
            raise ConfigurationError(
                f"timeout must be positive, got {timeout}"
            )
        if retries < 0:
            raise ConfigurationError(
                f"retries must be >= 0, got {retries}"
            )
        if backoff < 0:
            raise ConfigurationError(
                f"backoff must be >= 0, got {backoff}"
            )
        if on_error not in ("raise", "collect"):
            raise ConfigurationError(
                f"on_error must be 'raise' or 'collect', got {on_error!r}"
            )
        if trace_dir is not None and task_fn is not None:
            raise ConfigurationError(
                "trace_dir and task_fn are mutually exclusive: tracing "
                "substitutes its own task body"
            )
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.on_error = on_error
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        # Tracing bypasses the result cache in both directions: a cache
        # hit would skip the run that produces the trace artifacts, and
        # a traced report (which carries metrics) must not be served to
        # later untraced runs.
        self.cache = cache if self.trace_dir is None else None
        self.journal = journal if journal is not None else RunJournal()
        self.metrics = metrics
        # Testing hook: replaces execute_spec as the task body.  Under the
        # fork start method any callable works; under spawn it must be an
        # importable module-level function (a functools.partial of one,
        # as built for trace_dir below, also pickles fine).
        if self.trace_dir is not None:
            from repro.obs.hooks import execute_spec_traced

            self._task_fn = functools.partial(
                execute_spec_traced, trace_dir=str(self.trace_dir)
            )
        else:
            self._task_fn = task_fn
        #: Whether the task body takes a shared trace, as execute_spec
        #: and its traced twin do (a testing hook never gets one).
        self._shares_trace = task_fn is None

    def _backoff_for(self, attempt: int) -> float:
        """Delay before re-running a cell that just failed ``attempt``.

        A pure function of the attempt number (exponential doubling from
        ``backoff``), so the retry schedule is reproducible and
        journalable -- no clock reads, no jitter.
        """
        if self.backoff == 0.0:
            return 0.0
        return self.backoff * (2 ** (attempt - 1))

    def _give_up(self, error_class: str | None, attempt: int) -> bool:
        """Classify before retrying: permanent errors never retry."""
        if error_class in PERMANENT_ERROR_CLASSES:
            return True
        return attempt > self.retries

    # ------------------------------------------------------------------

    def run(
        self, sweep: SweepSpec | Sequence[ExperimentSpec]
    ) -> list[TaskResult]:
        """Execute every cell; results come back in cell order.

        Cache hits never reach a worker.  A cell that exhausts
        ``retries`` (or fails with a permanent error class) aborts the
        run with :class:`~repro.errors.ExecutionError` (remaining
        workers are terminated first) -- unless ``on_error="collect"``,
        in which case the failure becomes a ``TaskResult`` with
        ``report=None`` and the run continues.
        """
        if isinstance(sweep, SweepSpec):
            name, cells = sweep.name, list(sweep.cells)
        else:
            name, cells = "ad-hoc", list(sweep)
        started = time.perf_counter()
        self.journal.sweep_start(name, len(cells), self.workers)

        results: list[TaskResult | None] = [None] * len(cells)
        pending: list[tuple[int, ExperimentSpec]] = []
        for index, spec in enumerate(cells):
            # "is not None", never truthiness: a cache's len() may scan a
            # directory, or count only a hot tier that starts out empty.
            report = self.cache.get(spec) if self.cache is not None else None
            if report is not None:
                self.journal.task_cached(spec)
                results[index] = TaskResult(
                    spec=spec,
                    report=report,
                    cached=True,
                    attempts=0,
                    wall_time=0.0,
                )
            else:
                pending.append((index, spec))

        if self.workers == 0:
            self._run_sequential(pending, results)
        else:
            self._run_parallel(pending, results)

        self.journal.sweep_finish(name, time.perf_counter() - started)
        return [result for result in results if result is not None]

    # ------------------------------------------------------------------
    # Sequential fallback
    # ------------------------------------------------------------------

    def _run_sequential(self, pending, results) -> None:
        # execute_spec and its traced twin replay one generated trace for
        # every consecutive cell with an equal workload -- a grid is
        # workload-major, so that is once per workload.  The slot is
        # this frame's: emptied before the next workload is generated,
        # gone when run() returns.
        shared_workload = shared_trace = None
        for index, spec in pending:
            attempt = 0
            while True:
                attempt += 1
                self.journal.task_start(spec, attempt)
                t0 = time.perf_counter()
                try:
                    if not self._shares_trace:
                        report = self._task_fn(spec)
                    else:
                        if spec.workload != shared_workload:
                            shared_workload = shared_trace = None
                            shared_trace = spec.workload.build()
                            shared_workload = spec.workload
                        body = self._task_fn or execute_spec
                        report = body(spec, trace=shared_trace)
                except Exception as exc:
                    error = traceback.format_exc()
                    error_class = type(exc).__name__
                    if self._give_up(error_class, attempt):
                        self._fail(
                            results, index, spec, attempt, error,
                            error_class,
                        )
                        break
                    delay = self._backoff_for(attempt)
                    self.journal.task_retry(
                        spec, attempt, error,
                        error_class=error_class, backoff=delay,
                    )
                    if delay > 0:
                        time.sleep(delay)
                    continue
                self._finish(
                    results, index, spec, attempt,
                    time.perf_counter() - t0, report,
                )
                break

    # ------------------------------------------------------------------
    # Parallel fan-out
    # ------------------------------------------------------------------

    def _run_parallel(self, pending, results) -> None:
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        queue = list(pending)  # (index, spec); retries carry attempt no.
        # Retries wait out their backoff in this queue as
        # (ready_at, index, spec, attempt); ready ones launch first.
        retry_queue: list[tuple[float, int, ExperimentSpec, int]] = []
        running: list[_Running] = []
        try:
            while queue or retry_queue or running:
                while len(running) < self.workers:
                    now = time.perf_counter()
                    ready = next(
                        (
                            item for item in retry_queue
                            if item[0] <= now
                        ),
                        None,
                    )
                    if ready is not None:
                        retry_queue.remove(ready)
                        _, index, spec, attempt = ready
                    elif queue:
                        index, spec = queue.pop(0)
                        attempt = 1
                    else:
                        break
                    running.append(
                        self._launch(context, index, spec, attempt)
                    )
                if self.metrics is not None:
                    self.metrics.set_gauge(
                        "executor.workers_busy", len(running)
                    )
                if running:
                    self._reap(running, retry_queue, results)
                elif retry_queue:
                    # Only backoffs in flight: wait for the earliest.
                    time.sleep(
                        min(
                            _POLL_SECONDS,
                            max(
                                0.0,
                                min(item[0] for item in retry_queue)
                                - time.perf_counter(),
                            ),
                        )
                    )
        except BaseException:
            self._terminate_all(running)
            raise

    def _launch(self, context, index, spec, attempt) -> _Running:
        self.journal.task_start(spec, attempt)
        parent_conn, child_conn = context.Pipe(duplex=False)
        process = context.Process(
            target=_worker_main,
            args=(spec.to_dict(), self._task_fn, child_conn),
            daemon=True,
        )
        process.start()
        child_conn.close()  # the parent keeps only the reading end
        return _Running(
            index, spec, attempt, process, parent_conn,
            time.perf_counter(),
        )

    def _reap(self, running, retry_queue, results) -> None:
        """One scheduler pass: collect finished, crashed and overrun."""
        if running:
            connection_wait(
                [task.conn for task in running], timeout=_POLL_SECONDS
            )
        now = time.perf_counter()
        for task in list(running):
            outcome = None  # ("ok", report) | ("error", payload) | None
            if task.conn.poll():
                try:
                    outcome = task.conn.recv()
                except EOFError:  # died between send and close
                    outcome = (
                        "error",
                        {
                            "class": "WorkerCrash",
                            "traceback": "worker closed the pipe early",
                        },
                    )
            elif self.timeout is not None and (
                now - task.started > self.timeout
            ):
                outcome = (
                    "error",
                    {
                        "class": "Timeout",
                        "traceback": f"timed out after {self.timeout:g} s",
                    },
                )
            elif not task.process.is_alive():
                outcome = (
                    "error",
                    {
                        "class": "WorkerCrash",
                        "traceback": (
                            f"worker exited with code "
                            f"{task.process.exitcode} before reporting"
                        ),
                    },
                )
            if outcome is None:
                continue

            running.remove(task)
            self._retire(task)
            status, payload = outcome
            if status == "ok":
                self._finish(
                    results, task.index, task.spec, task.attempt,
                    now - task.started,
                    SimulationReport.from_dict(payload),
                )
            else:
                error = payload["traceback"]
                error_class = payload["class"]
                if self._give_up(error_class, task.attempt):
                    if self.on_error == "raise":
                        self._terminate_all(running)
                    self._fail(
                        results, task.index, task.spec, task.attempt,
                        error, error_class,
                    )
                    continue
                delay = self._backoff_for(task.attempt)
                self.journal.task_retry(
                    task.spec, task.attempt, error,
                    error_class=error_class, backoff=delay,
                )
                retry_queue.append(
                    (now + delay, task.index, task.spec, task.attempt + 1)
                )

    @staticmethod
    def _retire(task: _Running) -> None:
        task.conn.close()
        if task.process.is_alive():
            task.process.terminate()
        task.process.join()

    @staticmethod
    def _terminate_all(running: list[_Running]) -> None:
        for task in running:
            Executor._retire(task)
        running.clear()

    # ------------------------------------------------------------------

    def _finish(
        self, results, index, spec, attempt, wall_time, report
    ) -> None:
        if self.metrics is not None:
            self.metrics.inc("executor.tasks")
            self.metrics.observe(
                "latency.start_to_finish_ms",
                wall_time * 1000.0,
                LATENCY_BUCKETS_MS,
            )
        self.journal.task_finish(spec, attempt, wall_time, report)
        if self.cache is not None:
            self.cache.put(spec, report)
        results[index] = TaskResult(
            spec=spec,
            report=report,
            cached=False,
            attempts=attempt,
            wall_time=wall_time,
        )

    def _fail(
        self, results, index, spec, attempts, error, error_class
    ) -> None:
        self.journal.task_failed(
            spec, attempts, error, error_class=error_class
        )
        if self.on_error == "collect":
            results[index] = TaskResult(
                spec=spec,
                report=None,
                cached=False,
                attempts=attempts,
                wall_time=0.0,
                error=error,
                error_class=error_class,
            )
            return
        raise ExecutionError(
            f"task {spec.spec_hash[:12]} ({spec.describe()}) failed "
            f"after {attempts} attempt(s) [{error_class}]:\n{error}"
        )
