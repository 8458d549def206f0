"""One trace per workload per sequential run -- and nothing else changes.

``Executor._run_sequential`` hands the trace it generated for a cell to
the following cells with an equal workload (docs/RUNNER.md, "Trace
reuse"), traced or not, compiled or not.  These tests pin the scope of
that: reports, journal events and failure classes are what a
cell-by-cell ``execute_spec(spec)`` loop produces, only ``execute_spec``
and its traced twin on the sequential path take part, a
``compiled=False`` cell still never reaches a kernel, and no trace
outlives ``run()``.
"""

import gc
import inspect
import json
import time
from dataclasses import replace

import pytest

from repro.analysis.compare import default_factories
from repro.errors import ConfigurationError, ExecutionError
from repro.network.multicast import MulticastScheme
from repro.protocol.messages import MessageCosts
from repro.protocol.no_cache import NoCacheKernel
from repro.runner import (
    Executor,
    RunJournal,
    SweepSpec,
    WorkloadSpec,
    execute_spec,
)
from repro.sim.ctrace import CompiledTrace
from repro.sim.kernel import BatchedKernel
from repro.sim.system import SystemConfig
from repro.workloads import markov


def make_workloads(n_references=240) -> list[WorkloadSpec]:
    return [
        WorkloadSpec(
            kind="markov", n_nodes=8, n_references=n_references,
            write_fraction=0.3, seed=5, tasks=(0, 2, 5),
        ),
        WorkloadSpec(
            kind="shared-structure", n_nodes=8, n_references=n_references,
            write_fraction=0.2, seed=6, tasks=(1, 3, 4, 6), n_blocks=5,
        ),
        WorkloadSpec(
            kind="random", n_nodes=8, n_references=n_references,
            write_fraction=0.4, seed=7, n_blocks=6, locality=0.3,
        ),
    ]


def make_grid(*, warmup=0, compiled=True) -> list:
    """Workload-major, all six protocols at every workload."""
    sweep = SweepSpec.from_grid(
        "reuse",
        protocols=list(default_factories()),
        workloads=make_workloads(),
        configs=[SystemConfig(n_nodes=8)],
        warmup=warmup,
    )
    return [replace(cell, compiled=compiled) for cell in sweep]


def report_bytes(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


def count_generations(monkeypatch) -> list[WorkloadSpec]:
    """Patch ``WorkloadSpec.build``; returns the list it logs calls to."""
    calls: list[WorkloadSpec] = []
    original = WorkloadSpec.build

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(WorkloadSpec, "build", counting)
    return calls


def spy_replays(monkeypatch) -> list:
    """Patch the executor's ``run_trace``; returns the inputs it replays."""
    from repro.runner import executor as executor_module

    replayed = []
    original = executor_module.run_trace

    def spying(protocol, trace, **checks):
        replayed.append(trace)
        return original(protocol, trace, **checks)

    monkeypatch.setattr(executor_module, "run_trace", spying)
    return replayed


def kernel_grid() -> list:
    """``kernel_n1024``'s shape scaled down: three Stenstrom protocols on
    one strided-task workload, vector multicast, no warm-up."""
    return list(
        SweepSpec.from_grid(
            "kernel-small",
            protocols=["distributed-write", "global-read", "two-mode"],
            workloads=[
                WorkloadSpec(
                    kind="markov", n_nodes=64, n_references=600,
                    write_fraction=0.3, seed=1989,
                    tasks=tuple(range(0, 64, 4)),
                )
            ],
            configs=[
                SystemConfig(
                    n_nodes=64, costs=MessageCosts.uniform(20),
                    multicast_scheme=MulticastScheme.VECTOR,
                )
            ],
        )
    )


class TestReportsAreUnchanged:
    @pytest.mark.parametrize("warmup", [0, 40])
    @pytest.mark.parametrize("compiled", [True, False])
    def test_grid_equals_cell_by_cell(self, warmup, compiled, monkeypatch):
        cells = make_grid(warmup=warmup, compiled=compiled)
        expected = [report_bytes(execute_spec(cell)) for cell in cells]
        calls = count_generations(monkeypatch)
        results = Executor(workers=0).run(cells)
        assert [report_bytes(r.report) for r in results] == expected
        assert calls == make_workloads()  # one generation per workload

    def test_sequential_equals_parallel(self):
        cells = make_grid(warmup=40)
        sequential = Executor(workers=0).run(cells)
        parallel = Executor(workers=2).run(cells)
        assert [report_bytes(r.report) for r in sequential] == [
            report_bytes(r.report) for r in parallel
        ]

    def test_interleaved_list_is_still_correct(self, monkeypatch):
        grid = make_grid()
        n_protocols = len(default_factories())
        # Protocol-major: consecutive cells never share a workload.
        cells = [
            grid[w * n_protocols + p]
            for p in range(n_protocols)
            for w in range(len(make_workloads()))
        ]
        expected = [report_bytes(execute_spec(cell)) for cell in cells]
        calls = count_generations(monkeypatch)
        results = Executor(workers=0).run(cells)
        assert [report_bytes(r.report) for r in results] == expected
        assert len(calls) == len(cells)

    def test_compiled_and_reference_cells_share_one_generation(
        self, monkeypatch
    ):
        cell = make_grid()[0]
        cells = [cell, replace(cell, compiled=False), cell]
        calls = count_generations(monkeypatch)
        results = Executor(workers=0).run(cells)
        assert len(calls) == 1
        assert len({report_bytes(r.report) for r in results}) == 1


class TestTracedCells:
    def test_a_traced_grid_generates_once(self, monkeypatch, tmp_path):
        cells = kernel_grid()
        expected = [report_bytes(execute_spec(cell)) for cell in cells]
        calls = count_generations(monkeypatch)
        results = Executor(workers=0, trace_dir=tmp_path).run(cells)
        assert calls == [cells[0].workload]
        for result, untraced in zip(results, expected):
            report = result.report.to_dict()
            assert report["stats"].pop("metrics")
            assert json.dumps(report, sort_keys=True) == untraced
        assert len(list(tmp_path.glob("*.trace.jsonl"))) == len(cells)

    def test_traced_and_untraced_cells_replay_one_trace(
        self, monkeypatch, tmp_path
    ):
        cell = kernel_grid()[0]
        trace = cell.workload.build()
        monkeypatch.setattr(WorkloadSpec, "build", lambda self: trace)
        replayed = spy_replays(monkeypatch)
        Executor(workers=0).run([cell])
        Executor(workers=0, trace_dir=tmp_path).run([cell])
        assert len(replayed) == 2
        assert all(rows is trace for rows in replayed)

    @pytest.mark.parametrize("traced", [False, True])
    def test_a_reference_cell_never_reaches_a_kernel(
        self, monkeypatch, tmp_path, traced
    ):
        def no_kernel(*args, **kwargs):
            raise AssertionError("a compiled=False cell reached a kernel")

        monkeypatch.setattr(BatchedKernel, "replay", no_kernel)
        monkeypatch.setattr(NoCacheKernel, "replay", no_kernel)
        replayed = spy_replays(monkeypatch)
        cells = [
            replace(cell, compiled=False, warmup=100)
            for cell in make_grid()[:6]
        ]
        expected = [report_bytes(execute_spec(cell)) for cell in cells]
        trace_dir = tmp_path if traced else None
        results = Executor(workers=0, trace_dir=trace_dir).run(cells)
        assert replayed and not any(
            isinstance(rows, CompiledTrace) for rows in replayed
        )
        if not traced:
            assert [report_bytes(r.report) for r in results] == expected


class TestJournalAndFailures:
    def test_journal_sequence_is_unchanged(self):
        cells = make_grid()
        journal = RunJournal()
        Executor(workers=0, journal=journal).run(cells)
        events = [
            (event["event"], event.get("task"), event.get("attempt"))
            for event in journal.events
        ]
        expected = [("sweep_start", None, None)]
        for cell in cells:
            task = cell.spec_hash[:len(events[1][1])]
            expected += [("task_start", task, 1), ("task_finish", task, 1)]
        expected.append(("sweep_finish", None, None))
        assert events == expected

    def test_first_cell_of_a_workload_carries_the_generation(
        self, monkeypatch
    ):
        original = WorkloadSpec.build

        def slow(self):
            time.sleep(0.05)
            return original(self)

        monkeypatch.setattr(WorkloadSpec, "build", slow)
        cells = make_grid()
        results = Executor(workers=0).run(cells)
        n_protocols = len(default_factories())
        firsts = results[::n_protocols]
        assert all(r.wall_time >= 0.05 for r in firsts)
        assert sum(r.wall_time for r in results) < 0.05 * len(cells)

    def test_retried_cell_replays_the_shared_trace(self, monkeypatch):
        from repro.runner import executor as executor_module

        cells = make_grid()[:3]
        expected = [report_bytes(execute_spec(cell)) for cell in cells]
        original = executor_module.execute_spec
        failed_once = []

        def flaky(spec, trace=None):
            if spec == cells[1] and not failed_once:
                failed_once.append(spec)
                raise RuntimeError("transient")
            return original(spec, trace)

        monkeypatch.setattr(executor_module, "execute_spec", flaky)
        calls = count_generations(monkeypatch)
        journal = RunJournal()
        results = Executor(workers=0, retries=1, journal=journal).run(cells)
        assert [r.attempts for r in results] == [1, 2, 1]
        assert [report_bytes(r.report) for r in results] == expected
        assert journal.counts()["retried"] == 1
        assert len(calls) == 1

    def test_generator_error_fails_every_sharing_cell_alike(
        self, monkeypatch
    ):
        # A generator that refuses one workload: the spec builds and
        # hashes, and the error surfaces where the trace is made.
        bad = WorkloadSpec(
            kind="markov", n_nodes=8, n_references=50,
            write_fraction=0.5, seed=1, tasks=(0, 1),
        )
        generate = markov.markov_block_trace

        def refusing(*args, **kwargs):
            if kwargs["seed"] == bad.seed:
                raise ConfigurationError("the generator refuses seed 1")
            return generate(*args, **kwargs)

        monkeypatch.setattr(markov, "markov_block_trace", refusing)
        sweep = SweepSpec.from_grid(
            "bad-then-good",
            protocols=["no-cache", "two-mode"],
            workloads=[bad, make_workloads()[0]],
            configs=[SystemConfig(n_nodes=8)],
        )
        with pytest.raises(ConfigurationError):
            execute_spec(sweep.cells[0])
        results = Executor(workers=0, on_error="collect").run(sweep)
        assert [r.error_class for r in results] == [
            "ConfigurationError", "ConfigurationError", None, None,
        ]
        assert [r.attempts for r in results] == [1, 1, 1, 1]
        with pytest.raises(ExecutionError, match="ConfigurationError"):
            Executor(workers=0).run(sweep)


class TestScope:
    def test_custom_task_fn_never_receives_a_trace(self):
        seen = []

        def task(*args, **kwargs):
            seen.append((len(args), sorted(kwargs)))
            return execute_spec(args[0])

        Executor(workers=0, task_fn=task).run(make_grid()[:4])
        assert seen == [(1, [])] * 4

    def test_no_trace_outlives_run(self, monkeypatch):
        built: list[CompiledTrace] = []
        original = WorkloadSpec.build

        def capturing(self):
            built.append(original(self))
            return built[-1]

        monkeypatch.setattr(WorkloadSpec, "build", capturing)
        executor = Executor(workers=0, journal=RunJournal())
        results = executor.run(make_grid())
        assert len(built) == len(make_workloads())
        gc.collect()
        # CompiledTrace is slotted without __weakref__, so ask the
        # collector who still points at each trace: the capture list
        # above, and nothing the executor, its journal or the results
        # (all still alive here) own.
        for index in range(len(built)):
            holders = [
                holder
                for holder in gc.get_referrers(built[index])
                if holder is not built and not inspect.isframe(holder)
            ]
            assert holders == []
        assert len(results) == len(make_grid())
