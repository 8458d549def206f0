"""The public API surface: ``__all__`` accuracy and import hygiene."""

import importlib
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.cache",
    "repro.faults",
    "repro.mc",
    "repro.memory",
    "repro.network",
    "repro.obs",
    "repro.protocol",
    "repro.runner",
    "repro.serve",
    "repro.sim",
    "repro.workloads",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} has no __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_all_is_sorted(package):
    module = importlib.import_module(package)
    assert list(module.__all__) == sorted(module.__all__)


def test_version_is_exposed():
    import repro

    assert repro.__version__


def test_star_import_is_clean():
    namespace = {}
    exec("from repro import *", namespace)  # noqa: S102
    assert "StenstromProtocol" in namespace
    assert "System" in namespace


def test_no_circular_import_from_any_leaf():
    """Each module imports cleanly on its own (fresh interpreter order
    is approximated by importing leaves before the package roots)."""
    leaves = [
        "repro.network.cost",
        "repro.network.selector",
        "repro.network.contention",
        "repro.network.radix",
        "repro.protocol.stenstrom",
        "repro.protocol.limited_pointer",
        "repro.analysis.latency",
        "repro.analysis.replication",
        "repro.analysis.sweep",
        "repro.analysis.compare",
        "repro.sim.timing",
        "repro.workloads.locks",
        "repro.cli",
    ]
    for leaf in leaves:
        importlib.import_module(leaf)


def test_the_sweep_module_imports_first_and_leaves_the_runner_lazy():
    """``repro.runner``'s journal imports ``repro.analysis``, and the
    sweep helpers call the runner: imported first in a fresh interpreter,
    :mod:`repro.analysis.sweep` must load without loading the runner."""
    probe = (
        "import sys, repro.analysis.sweep\n"
        "assert 'repro.runner' not in sys.modules, 'runner imported'\n"
        "from repro.analysis.sweep import sharer_sweep\n"
        "assert len(sharer_sweep([2], 0.3, n_nodes=4, references=20)) == 6\n"
    )
    subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": SRC},
        check=True,
    )


def test_every_public_callable_has_a_docstring():
    for package in PACKAGES:
        module = importlib.import_module(package)
        for name in module.__all__:
            value = getattr(module, name)
            if callable(value):
                assert value.__doc__, f"{package}.{name} lacks a docstring"
