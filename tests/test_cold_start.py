"""Cold start: the service path loads the standard library and ``repro``.

numpy and ``scipy.stats`` cost a second and ~80 MB per process, and only
``fit_linear`` / ``replicate`` call them, so each imports its library at
the call site (docs/PERF.md, "Cold start").  One stray module-level
import puts the second back silently, hence an invariant rather than a
timing: every case runs in a fresh interpreter and asserts that the
top-level names it added to ``sys.modules`` are standard library or
``repro`` -- no clock, no module-count ceiling that moves with the
Python version.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.analysis import fit_linear, replicate, replicated_cost
from repro.errors import ConfigurationError
from repro.protocol.no_cache import NoCacheProtocol
from repro.sim.system import SystemConfig

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: Makes ``import numpy`` / ``import scipy`` raise, as on a machine
#: without the ``analysis`` extra.
BLOCK = 'sys.modules["numpy"] = sys.modules["scipy"] = None'

#: ``{block}`` runs first; ``report()`` prints, as the last line of
#: stdout, what arrived since.
PRELUDE = """\
import json, sys
{block}
_before = {{name.partition(".")[0] for name in sys.modules}}

def report():
    after = {{name.partition(".")[0] for name in sys.modules}}
    # ``__mp_main__`` is multiprocessing's alias for ``__main__``.
    allowed = sys.stdlib_module_names | {{"repro", "__mp_main__"}}
    print(json.dumps(sorted(after - _before - allowed)))
"""


def third_party_after(body, *argv, block="", cwd=None):
    """Run ``body`` in a fresh interpreter; the non-stdlib names it loaded."""
    script = PRELUDE.format(block=block) + textwrap.dedent(body) + "\nreport()\n"
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "module",
    [
        "repro",
        "repro.cli",
        "repro.runner",
        "repro.serve",
        "repro.perf",
        "repro.mc",
        "repro.obs",
        # The runner and the CLI import this package, so importing it is
        # on the service path; only *calling* fit_linear / replicate may
        # load numpy / scipy.
        "repro.analysis",
    ],
)
def test_import_loads_stdlib_and_repro_only(module):
    body = "import importlib\nimportlib.import_module(sys.argv[1])"
    assert third_party_after(body, module) == []


# The same invariant after the service path has actually run, so a lazy
# import cannot migrate into a timed pass.


def test_executor_journal_and_summary_run_without_extras(tmp_path):
    body = """
        from repro.runner import (
            Executor, ResultCache, RunJournal, SweepSpec, WorkloadSpec,
        )
        from repro.sim.system import SystemConfig

        sweep = SweepSpec.from_grid(
            "cold-start",
            protocols=["two-mode", "no-cache"],
            workloads=[WorkloadSpec(
                kind="markov", n_nodes=4, n_references=80,
                write_fraction=0.3, seed=7, tasks=(0, 1),
            )],
            configs=[SystemConfig(n_nodes=4)],
        )
        journal = RunJournal(sys.argv[1] + "/journal.jsonl")
        executor = Executor(
            workers=0, cache=ResultCache(sys.argv[1] + "/cache"),
            journal=journal,
        )
        assert len(executor.run(sweep)) == 2
        assert len(executor.run(sweep)) == 2  # second pass: cache reads
        journal.close()
        summary = journal.summary()
        assert "runner summary" in summary, summary
        assert journal.counts()["executed"] == 2, summary
        assert journal.counts()["cached"] == 2, summary
    """
    assert third_party_after(body, str(tmp_path), block=BLOCK) == []


def test_daemon_submit_status_metrics_run_without_extras():
    body = """
        import os, shutil, tempfile

        from repro.runner import ExperimentSpec, WorkloadSpec
        from repro.serve import DaemonThread, ServeClient, ServeConfig
        from repro.sim.system import SystemConfig

        spec = ExperimentSpec(
            protocol="two-mode",
            workload=WorkloadSpec(
                kind="markov", n_nodes=4, n_references=80,
                write_fraction=0.3, seed=7, tasks=(0, 1),
            ),
            config=SystemConfig(n_nodes=4),
        )
        # Unix socket paths are length-limited; keep it short.
        tmp = tempfile.mkdtemp(prefix="repro-cold-")
        try:
            path = os.path.join(tmp, "d.sock")
            with DaemonThread(ServeConfig(socket_path=path)):
                client = ServeClient(path)
                cold = client.submit([spec], name="cold")
                hot = client.submit([spec], name="hot")
                assert not cold.failed and not hot.failed
                assert cold.reports() == hot.reports()
                status = client.status()
                assert sum(status["executed"].values()) == 1, status
                assert status["cache"]["hot_hits"] == 1, status
                assert "text" in client.metrics()
                client.drain()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    """
    assert third_party_after(body, block=BLOCK) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        [
            "sweep", "--nodes", "8", "--sharers", "2",
            "--references", "100", "--workers", "0",
        ],
    ],
    ids=["help", "sweep"],
)
def test_cli_runs_without_extras(argv, tmp_path):
    body = """
        import runpy

        sys.argv[0] = "repro"
        try:
            runpy.run_module("repro", run_name="__main__")
        except SystemExit as stop:
            assert not stop.code, stop.code
    """
    assert third_party_after(body, *argv, block=BLOCK, cwd=tmp_path) == []


class TestExtrasAreNeededOnlyAtTheCall:
    """Without the ``analysis`` extra the two callers say what to install."""

    def test_fit_linear_names_the_extra(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(
            ConfigurationError,
            match=r"needs numpy: install the 'analysis' extra "
            r"\(pip install repro\[analysis\]\)",
        ) as caught:
            fit_linear([(0, 1), (1, 3)])
        assert isinstance(caught.value.__cause__, ImportError)
        # Argument validation does not depend on the extra.
        with pytest.raises(ConfigurationError, match="at least two points"):
            fit_linear([(1, 1)])

    def test_replicate_names_the_extra_before_measuring(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy", None)
        measured = []
        with pytest.raises(
            ConfigurationError,
            match=r"needs scipy: install the 'analysis' extra "
            r"\(pip install repro\[analysis\]\)",
        ) as caught:
            replicate(measured.append, seeds=[0, 1, 2])
        assert isinstance(caught.value.__cause__, ImportError)
        assert measured == []
        # Argument validation does not depend on the extra.
        with pytest.raises(ConfigurationError, match="at least two seeds"):
            replicate(float, seeds=[1])
        with pytest.raises(ConfigurationError, match=r"confidence must be"):
            replicate(float, seeds=[1, 2], confidence=1.5)

    def test_replicated_cost_names_the_extra(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy", None)
        with pytest.raises(ConfigurationError, match="'analysis' extra"):
            replicated_cost(
                NoCacheProtocol, lambda seed: [], SystemConfig(n_nodes=4),
                seeds=[0, 1],
            )
