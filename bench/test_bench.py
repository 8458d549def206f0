"""Self-test of the benchmark: ``python -m pytest bench -q`` (< 30 s).

Not collected by tier-1 (whose ``testpaths`` is ``tests``).  It runs
``bench/run.py --quick`` -- tenth-size workloads, one round -- and holds
``BENCHMARK.json`` to the contract the benchmark driver enforces.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_quick(*args: str) -> dict:
    """``bench/run.py --quick ARGS``; its last stdout line, decoded."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--quick", *args],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


def test_benchmark_json_meets_the_contract():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert BENCH["paths"] == ["bench"]
    assert 1 <= BENCH["run_seconds"] <= 60
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    names = WORKLOADS + [
        m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]
    ]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.fullmatch(name), name
    for workload in BENCH["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in BENCH["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_quick_run_emits_every_end_to_end_metric():
    results = run_quick("--seed", "1989")["workloads"]
    assert sorted(results) == sorted(WORKLOADS)
    for name, result in results.items():
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [
            m["name"] for m in BENCH["end_to_end"]
        ]
        for metric in BENCH["end_to_end"]:
            emitted = result["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert emitted["value"] > 0, (name, metric["name"])


@pytest.mark.parametrize("workload", ["migratory_n64", "serve_cold"])
def test_quick_traced_run_emits_every_per_layer_metric(workload):
    result = run_quick("--workload", workload, "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    for metric in BENCH["per_layer"]:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    unattributed = result["metrics"]["bench.unattributed_s"]["value"]
    spans = json.loads(
        (ROOT / "bench" / "out" / f"trace-{workload}.json").read_text()
    )["spans"]
    assert spans and {"name", "start", "end", "parent", "op"} <= set(spans[0])
    assert unattributed >= 0
