"""Executor: parallel == sequential, caching, retries, timeouts, crashes.

The first test is the subsystem's acceptance criterion: a >= 32-cell
sweep run with ``workers=4`` must produce byte-identical per-cell
``SimulationReport.to_dict()`` results to the ``workers=0`` sequential
path, and a second invocation over the same cache must execute nothing.
"""

import gc
import json
import multiprocessing
import os
import time

import pytest

from repro.analysis.compare import default_factories
from repro.errors import ConfigurationError, ExecutionError
from repro.protocol.base import CoherenceProtocol
from repro.runner import (
    Executor,
    ResultCache,
    RunJournal,
    SweepSpec,
    TieredResultCache,
    WorkloadSpec,
    execute_spec,
)
from repro.runner.spec import ExperimentSpec
from repro.sim.kernel import BatchedKernel
from repro.sim.system import System, SystemConfig

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="failure-injection task functions need the fork start method",
)


def make_sweep() -> SweepSpec:
    """2 protocols x 4 sharer counts x 4 write fractions = 32 cells."""
    workloads = [
        WorkloadSpec(
            kind="markov",
            n_nodes=8,
            n_references=120,
            write_fraction=w,
            seed=11,
            tasks=tuple(range(sharers)),
        )
        for sharers in (1, 2, 3, 4)
        for w in (0.1, 0.3, 0.5, 0.8)
    ]
    return SweepSpec.from_grid(
        "executor-acceptance",
        protocols=["no-cache", "write-once"],
        workloads=workloads,
        configs=[SystemConfig(n_nodes=8)],
    )


def make_cell(seed=3) -> ExperimentSpec:
    return ExperimentSpec(
        protocol="no-cache",
        workload=WorkloadSpec(
            kind="markov",
            n_nodes=4,
            n_references=30,
            write_fraction=0.5,
            seed=seed,
            tasks=(0, 1),
        ),
        config=SystemConfig(n_nodes=4),
    )


def report_bytes(result) -> str:
    return json.dumps(result.report.to_dict(), sort_keys=True)


class TestAcceptance:
    def test_parallel_bit_identical_and_second_run_all_cached(
        self, tmp_path
    ):
        sweep = make_sweep()
        assert len(sweep) >= 32

        sequential = Executor(workers=0).run(sweep)

        cache = ResultCache(tmp_path / "cache")
        cold_journal = RunJournal(tmp_path / "cold.jsonl")
        parallel = Executor(
            workers=4, cache=cache, journal=cold_journal
        ).run(sweep)

        assert len(parallel) == len(sequential) == len(sweep)
        for seq_cell, par_cell in zip(sequential, parallel):
            assert seq_cell.spec == par_cell.spec
            assert report_bytes(seq_cell) == report_bytes(par_cell)
        assert cold_journal.counts() == {
            "executed": len(sweep), "cached": 0,
            "retried": 0, "failed": 0,
        }

        warm_journal = RunJournal(tmp_path / "warm.jsonl")
        warm = Executor(
            workers=4, cache=cache, journal=warm_journal
        ).run(sweep)
        assert warm_journal.counts()["executed"] == 0
        assert warm_journal.counts()["cached"] == len(sweep)
        for seq_cell, warm_cell in zip(sequential, warm):
            assert warm_cell.cached
            assert report_bytes(seq_cell) == report_bytes(warm_cell)


class TestSequential:
    def test_results_follow_cell_order(self):
        sweep = make_sweep()
        results = Executor(workers=0).run(sweep)
        assert [r.spec for r in results] == list(sweep.cells)

    def test_accepts_a_plain_spec_list(self):
        results = Executor(workers=0).run([make_cell(), make_cell(4)])
        assert len(results) == 2
        assert not results[0].cached

    def test_retry_then_success(self):
        attempts = []

        def flaky(spec):
            attempts.append(spec.spec_hash)
            if len(attempts) == 1:
                raise RuntimeError("transient")
            return execute_spec(spec)

        journal = RunJournal()
        results = Executor(
            workers=0, retries=1, journal=journal, task_fn=flaky
        ).run([make_cell()])
        assert len(attempts) == 2
        assert results[0].attempts == 2
        assert journal.counts()["retried"] == 1
        assert journal.counts()["executed"] == 1

    def test_retries_exhausted_raises(self):
        def broken(spec):
            raise RuntimeError("permanent")

        journal = RunJournal()
        with pytest.raises(ExecutionError, match="permanent"):
            Executor(
                workers=0, retries=2, journal=journal, task_fn=broken
            ).run([make_cell()])
        assert journal.counts()["failed"] == 1
        assert journal.counts()["retried"] == 2

    def test_unknown_protocol_fails_with_known_names(self):
        cell = ExperimentSpec(
            protocol="nonexistent",
            workload=make_cell().workload,
            config=SystemConfig(n_nodes=4),
        )
        with pytest.raises(ExecutionError, match="two-mode"):
            Executor(workers=0, retries=0).run([cell])


class TestParallel:
    def test_more_workers_than_tasks(self):
        results = Executor(workers=8).run([make_cell(), make_cell(4)])
        assert len(results) == 2

    @fork_only
    def test_worker_exception_is_retried(self, tmp_path):
        sentinel = tmp_path / "already-failed"

        def flaky(spec):
            if not sentinel.exists():
                sentinel.write_text("1")
                raise RuntimeError("first attempt fails")
            return execute_spec(spec)

        journal = RunJournal()
        results = Executor(
            workers=2, retries=1, journal=journal, task_fn=flaky
        ).run([make_cell()])
        assert journal.counts()["retried"] == 1
        assert results[0].report.n_references == 30

    @fork_only
    def test_worker_crash_is_reported(self):
        def crash(spec):
            os._exit(3)

        # Depending on timing the crash surfaces as an EOF on the result
        # pipe or as a dead process with an exit code; both are terminal.
        with pytest.raises(
            ExecutionError,
            match="closed the pipe early|exited with code",
        ):
            Executor(workers=2, retries=0, task_fn=crash).run(
                [make_cell()]
            )

    @fork_only
    def test_timeout_terminates_and_reports(self):
        def hang(spec):
            time.sleep(60)

        started = time.perf_counter()
        with pytest.raises(ExecutionError, match="timed out"):
            Executor(
                workers=2, retries=0, timeout=0.3, task_fn=hang
            ).run([make_cell()])
        assert time.perf_counter() - started < 30

    @fork_only
    def test_cached_cells_skip_the_workers(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = make_cell()
        Executor(workers=0, cache=cache).run([cell])

        def explode(spec):
            raise AssertionError("cache hit must not reach a worker")

        results = Executor(
            workers=2, cache=cache, task_fn=explode
        ).run([cell])
        assert results[0].cached


class TestCacheLookupIgnoresTruthiness:
    """``Executor.run`` asks a cache by ``is not None``, never ``bool()``.

    ``len()`` of a disk cache globs its directory, and of a tiered cache
    counts the hot tier only -- empty in every fresh process.
    """

    def test_warm_disk_tier_under_an_empty_hot_tier_is_hit(self, tmp_path):
        cell = make_cell()
        Executor(workers=0, cache=TieredResultCache(tmp_path)).run([cell])
        fresh = TieredResultCache(tmp_path)
        assert len(fresh) == 0 and fresh.get(cell) is not None
        fresh = TieredResultCache(tmp_path)
        journal = RunJournal()
        results = Executor(workers=0, cache=fresh, journal=journal).run(
            [cell]
        )
        assert results[0].cached
        assert journal.counts() == {
            "executed": 0, "cached": 1, "retried": 0, "failed": 0,
        }

    def test_disk_cache_is_never_measured(self, tmp_path):
        class Unsized(ResultCache):
            def __len__(self):
                raise AssertionError("run() must not size the cache")

        cache = Unsized(tmp_path)
        first = Executor(workers=0, cache=cache).run([make_cell()])
        second = Executor(workers=0, cache=cache).run([make_cell()])
        assert not first[0].cached and second[0].cached


class TestValidation:
    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            Executor(workers=-1)

    def test_non_positive_timeout_rejected(self):
        with pytest.raises(ConfigurationError):
            Executor(timeout=0)

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigurationError):
            Executor(retries=-1)


class TestCompiledReplay:
    def test_compiled_default_is_bit_identical(self):
        """The ``compiled`` knob changes speed, never results.

        Same cell, with and without the columnar fast path (and with a
        warmup, so the trace-slicing path is exercised too): the reports
        must agree byte for byte.
        """
        from dataclasses import replace

        from repro.runner.executor import execute_spec

        spec = ExperimentSpec(
            protocol="two-mode",
            workload=WorkloadSpec(
                kind="markov",
                n_nodes=8,
                n_references=400,
                write_fraction=0.3,
                seed=21,
                tasks=(0, 1, 2, 3),
            ),
            config=SystemConfig(n_nodes=8),
            warmup=50,
        )
        assert spec.compiled
        compiled_report = execute_spec(spec)
        reference_report = execute_spec(replace(spec, compiled=False))
        assert json.dumps(
            compiled_report.to_dict(), sort_keys=True
        ) == json.dumps(reference_report.to_dict(), sort_keys=True)


class TestVerifiedWarmup:
    """A verified run after a warm-up starts from the warm-up's writes.

    The caches and memory hold what the warm-up wrote, so the measured
    run's value check has to expect it: every protocol, both trace forms,
    a cell built by hand and one from a sweep grid.
    """

    def spec(self, protocol, **changes):
        return ExperimentSpec(
            protocol=protocol,
            workload=WorkloadSpec(
                kind="markov",
                n_nodes=16,
                n_references=2000,
                write_fraction=0.5,
                seed=3,
                tasks=(0, 1, 2, 3),
            ),
            config=SystemConfig(n_nodes=16),
            warmup=500,
            verify=True,
            check_invariants_every=0,
            **changes,
        )

    @pytest.mark.parametrize(
        "compiled", [True, False], ids=["compiled", "refs"]
    )
    @pytest.mark.parametrize("protocol", sorted(default_factories()))
    def test_a_correct_protocol_verifies(self, protocol, compiled):
        from dataclasses import replace

        spec = self.spec(protocol, compiled=compiled)
        verified = execute_spec(spec).to_dict()
        assert verified.pop("verified") is True
        assert verified["n_references"] == 1500
        plain = execute_spec(replace(spec, verify=False)).to_dict()
        assert plain.pop("verified") is False
        assert verified == plain

    def test_a_sweep_grid_cell_verifies(self):
        sweep = SweepSpec.from_grid(
            "verified-warmup",
            protocols=["full-map"],
            workloads=[self.spec("full-map").workload],
            configs=[SystemConfig(n_nodes=16)],
            warmup=500,
            verify=True,
        )
        (result,) = Executor(workers=0).run(sweep)
        assert result.report.verified

    def test_the_seed_is_what_the_check_expects(self):
        from repro.errors import CoherenceError
        from repro.sim.engine import run_trace
        from repro.types import Address, Op, Reference

        protocol = default_factories()["no-cache"](
            System(SystemConfig(n_nodes=4))
        )
        with pytest.raises(
            CoherenceError,
            match=r"read 0 from Address\(block=0, offset=1\), but the "
            r"most recent write stored 7$",
        ):
            run_trace(
                protocol,
                [Reference(2, Op.READ, Address(0, 1))],
                _shadow={Address(0, 1): 7},
            )


class TestCycleFreeCells:
    """A finished cell is freed by reference counting alone.

    A back-reference closing a cycle through the machine (a replay tier
    holding its protocol strongly, say) leaves every cell for the cyclic
    collector, whose full passes then trace all of them.
    """

    @pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "refs"])
    @pytest.mark.parametrize("protocol", list(default_factories()))
    def test_a_finished_cell_leaves_the_collector_nothing(
        self, protocol, compiled
    ):
        spec = ExperimentSpec(
            protocol=protocol,
            workload=WorkloadSpec(
                kind="random",
                n_nodes=8,
                n_references=300,
                write_fraction=0.3,
                seed=5,
            ),
            config=SystemConfig(n_nodes=8),
            warmup=50,
            compiled=compiled,
        )
        cell_types = (System, CoherenceProtocol, BatchedKernel)
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            execute_spec(spec)
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            left = [
                type(obj).__name__
                for obj in gc.garbage
                if isinstance(obj, cell_types)
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        assert left == []
