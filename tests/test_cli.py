"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import main
from repro.sim.trace import Trace, save_trace
from repro.types import Address, Op, Reference


class TestTables:
    def test_prints_all_three_tables(self, capsys):
        assert main(["tables"]) == 0
        output = capsys.readouterr().out
        assert "Table 2" in output
        assert "Table 3" in output
        assert "Table 4" in output


class TestFigures:
    def test_prints_all_three_figures(self, capsys):
        assert main(["figures"]) == 0
        output = capsys.readouterr().out
        assert "Figure 5" in output
        assert "Figure 6" in output
        assert "Figure 8" in output

    def test_width_option(self, capsys):
        assert main(["figures", "--width", "40"]) == 0
        assert capsys.readouterr().out


class TestSimulate:
    def test_default_markov_run(self, capsys):
        assert main(
            [
                "simulate",
                "--nodes", "8",
                "--references", "300",
                "--seed", "3",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "stenstrom-two-mode" in output
        assert "verified          : True" in output

    def test_protocol_choice(self, capsys):
        assert main(
            [
                "simulate",
                "--protocol", "no-cache",
                "--references", "100",
            ]
        ) == 0
        assert "no-cache" in capsys.readouterr().out

    def test_random_workload(self, capsys):
        assert main(
            [
                "simulate",
                "--workload", "random",
                "--references", "200",
            ]
        ) == 0
        assert "references        : 200" in capsys.readouterr().out

    def test_no_verify_flag(self, capsys):
        assert main(
            ["simulate", "--references", "100", "--no-verify"]
        ) == 0
        assert "verified          : False" in capsys.readouterr().out

    def test_trace_file_replay(self, tmp_path, capsys):
        trace = Trace(
            [
                Reference(0, Op.WRITE, Address(0, 0), 5),
                Reference(1, Op.READ, Address(0, 0)),
            ],
            n_nodes=4,
            block_size_words=2,
        )
        path = tmp_path / "small.trace"
        save_trace(trace.compile(), path)
        assert main(["simulate", "--trace", str(path)]) == 0
        assert "references        : 2" in capsys.readouterr().out


class TestBadTraceFile:
    """A ``--trace`` file that cannot be read is one line, not a traceback."""

    @pytest.mark.parametrize(
        "line, message",
        [
            ("0 X 1:0 0", "line 2: unknown operation 'X'"),
            ("0 R 9223372036854775808:0 0", "line 2: a field of"),
        ],
        ids=["bad-op", "int64-overflow"],
    )
    @pytest.mark.parametrize("command", ["simulate", "compare", "latency"])
    def test_malformed_file(self, tmp_path, capsys, command, line, message):
        path = tmp_path / "bad.trace"
        path.write_text(f"# repro-trace v1 n_nodes=4 block_size=2\n{line}\n")
        assert main([command, "--trace", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: {message}")
        assert captured.err.count("\n") == 1

    def test_missing_file(self, tmp_path, capsys):
        path = tmp_path / "absent.trace"
        assert main(["simulate", "--trace", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: No such file or directory\n"
        )


class TestCompare:
    def test_ranks_all_protocols(self, capsys):
        assert main(
            ["compare", "--nodes", "8", "--references", "300"]
        ) == 0
        output = capsys.readouterr().out
        for name in (
            "no-cache",
            "write-once",
            "full-map",
            "two-mode",
        ):
            assert name in output
        assert "cheapest:" in output


class TestLatency:
    def test_ranks_by_cycles(self, capsys):
        assert main(
            ["latency", "--nodes", "8", "--references", "200"]
        ) == 0
        output = capsys.readouterr().out
        assert "cycles/ref" in output
        assert "no-cache" in output


class TestSweep:
    def test_prints_sharers_table(self, capsys):
        assert main(
            [
                "sweep",
                "--nodes", "16",
                "--sharers", "2", "4",
                "--references", "300",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "n=2" in output and "n=4" in output

    def test_json_export(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert main(
            [
                "sweep",
                "--nodes", "16",
                "--sharers", "2",
                "--references", "200",
                "--output", str(out),
            ]
        ) == 0
        from repro.analysis.records import load_records

        records, metadata = load_records(out)
        assert records
        assert metadata["n_nodes"] == 16
        assert metadata["sweep_hash"]

    def _sweep_table(self, capsys, extra=()):
        argv = [
            "sweep",
            "--nodes", "16",
            "--sharers", "2", "4",
            "--references", "200",
            *extra,
        ]
        assert main(argv) == 0
        output = capsys.readouterr().out
        table = output.split("runner:")[0]
        return table, output

    def test_parallel_workers_match_sequential_table(self, capsys):
        sequential, _ = self._sweep_table(capsys)
        parallel, output = self._sweep_table(
            capsys, ("--workers", "2")
        )
        assert parallel == sequential
        assert "workers=2" in output

    def test_cache_dir_makes_second_run_all_cached(
        self, tmp_path, capsys
    ):
        cache = str(tmp_path / "cache")
        _, cold = self._sweep_table(capsys, ("--cache-dir", cache))
        assert "12 executed, 0 cached" in cold
        warm_table, warm = self._sweep_table(
            capsys, ("--cache-dir", cache)
        )
        assert "0 executed, 12 cached" in warm
        cold_table = cold.split("runner:")[0]
        assert warm_table == cold_table

    def test_journal_records_task_events(self, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        self._sweep_table(capsys, ("--journal", str(journal)))
        from repro.runner import read_journal

        events = read_journal(journal)
        kinds = {event["event"] for event in events}
        assert "sweep_start" in kinds
        assert "task_finish" in kinds
        assert "sweep_finish" in kinds


class TestParser:
    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestMc:
    def test_exhaustive_small_config_passes(self, capsys):
        assert main(["mc", "--nodes", "2", "--blocks", "1", "--exhaustive"]) == 0
        output = capsys.readouterr().out
        assert "states explored" in output
        assert "exhaustive        : True" in output
        assert "violations        : 0" in output
        assert "MC: pass" in output

    def test_two_runs_print_identical_summaries(self, tmp_path, capsys):
        first = tmp_path / "one.txt"
        second = tmp_path / "two.txt"
        base = ["mc", "--nodes", "2", "--blocks", "1", "--exhaustive"]
        assert main(base + ["--output", str(first)]) == 0
        assert main(base + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_state_cap_reports_incomplete(self, capsys):
        assert main(
            ["mc", "--nodes", "4", "--blocks", "1", "--max-states", "100"]
        ) == 0
        assert "exhaustive        : False" in capsys.readouterr().out

    def test_fuzz_runs_and_reports(self, capsys):
        assert main(
            [
                "mc", "--nodes", "4", "--blocks", "2", "--exhaustive",
                "--nodes", "2", "--blocks", "1",
                "--fuzz", "30", "--fuzz-nodes", "4", "--fuzz-blocks", "2",
                "--seed", "3",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "differential fuzz:" in output
        assert "divergences       : 0" in output

    def test_default_dw_flag_changes_the_summary(self, capsys):
        assert main(
            ["mc", "--nodes", "2", "--blocks", "1", "--exhaustive",
             "--default-dw"]
        ) == 0
        assert "distributed-write" in capsys.readouterr().out
