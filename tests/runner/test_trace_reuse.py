"""One trace per workload per sequential run -- and nothing else changes.

``Executor._run_sequential`` hands the trace it generated for a cell to
the following cells with an equal ``(workload, compiled)``
(docs/RUNNER.md, "Trace reuse").  These tests pin the scope of that:
reports, journal events and failure classes are what a cell-by-cell
``execute_spec(spec)`` loop produces, only the default task body on the
sequential path takes part, and no trace outlives ``run()``.
"""

import gc
import inspect
import json
import time
from dataclasses import replace

import pytest

from repro.analysis.compare import default_factories
from repro.errors import ConfigurationError, ExecutionError
from repro.runner import (
    Executor,
    RunJournal,
    SweepSpec,
    WorkloadSpec,
    execute_spec,
)
from repro.sim.ctrace import CompiledTrace
from repro.sim.system import SystemConfig


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
    """Patch ``WorkloadSpec._build``; returns the list it logs calls to."""
    calls: list[WorkloadSpec] = []
    original = WorkloadSpec._build

    def counting(self, *, compiled):
        calls.append(self)
        return original(self, compiled=compiled)

    monkeypatch.setattr(WorkloadSpec, "_build", counting)
    return calls


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

    def test_compiled_and_reference_cells_do_not_share(self, monkeypatch):
        cell = make_grid()[0]
        cells = [cell, replace(cell, compiled=False), cell]
        calls = count_generations(monkeypatch)
        results = Executor(workers=0).run(cells)
        assert len(calls) == 3
        assert len({report_bytes(r.report) for r in results}) == 1


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
        original = WorkloadSpec._build

        def slow(self, *, compiled):
            time.sleep(0.05)
            return original(self, compiled=compiled)

        monkeypatch.setattr(WorkloadSpec, "_build", slow)
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

    def test_generator_error_fails_every_sharing_cell_alike(self):
        bad = WorkloadSpec(
            kind="markov", n_nodes=8, n_references=50,
            write_fraction=0.3, seed=1, tasks=(0, 9),  # task 9 of 8 nodes
        )
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
        original = WorkloadSpec.build_compiled

        def capturing(self):
            built.append(original(self))
            return built[-1]

        monkeypatch.setattr(WorkloadSpec, "build_compiled", capturing)
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
