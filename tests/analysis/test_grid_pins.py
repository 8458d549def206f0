"""The declared grids are the grids behind the committed exhibits.

``benchmarks/results/fig8_simulated.json`` and ``sharer_scaling.json``
key every cell's report by its spec hash.  The exhibits build their
grids with :func:`fig8_grid` and :func:`sharer_grid`; if a builder's
defaults or cell order drifted, the exhibits' hashes would change and
only the slow ``pytest benchmarks`` run would notice.  These pins read
the committed keys instead, so tier-1 notices without running a cell.
"""

import json
import os

import pytest

from repro.analysis.sweep import fig8_grid, sharer_grid

RESULTS = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks", "results"
)


def committed_hashes(name):
    with open(os.path.join(RESULTS, f"{name}.json"), encoding="utf-8") as f:
        return set(json.load(f))


@pytest.mark.parametrize(
    "exhibit, sweep",
    [
        (
            "fig8_simulated",
            lambda: fig8_grid(
                "fig8-simulated",
                (0.05, 0.2, 0.5, 0.8, 0.95),
                8,
                references=2500,
                warmup=500,
                seed=17,
            ),
        ),
        (
            "sharer_scaling",
            lambda: sharer_grid(
                "sharer-scaling", (2, 4, 8, 16, 32), 0.3, seed=13
            ),
        ),
    ],
    ids=["fig8", "sharers"],
)
def test_grid_yields_the_exhibits_cell_hashes(exhibit, sweep):
    cells = sweep().cells
    assert len(cells) == 30
    assert {cell.spec_hash for cell in cells} == committed_hashes(exhibit)
