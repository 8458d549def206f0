#!/usr/bin/env python3
"""Mode selection: the §4 analysis and the same experiment on the machine.

Sweeps the write fraction ``w`` and shows, side by side:

* the analytic normalized costs of Figure 8 (no cache, write-once,
  distributed write, global read, two-mode with the ``w1 = 2/(n+2)``
  threshold), and
* the measured costs of the actual protocols on the simulated
  multiprocessor under the same uniform message-size model.

The headline claim to watch: the two-mode curve never rises above the
uncached reference line, while write-once (and each single mode) does.

Run:  python examples/mode_selection.py
"""

import os
import sys

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without installation
    sys.path.insert(
        0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
    )

from repro.analysis.compare import simulated_cost_curve
from repro.analysis.report import render_table
from repro.protocol.costs import (
    normalized_distributed_write,
    normalized_global_read,
    normalized_no_cache,
    normalized_two_mode,
    normalized_write_once,
    two_mode_peak,
)
from repro.protocol.modes import write_fraction_threshold

N_SHARERS = 8
WRITE_FRACTIONS = (0.05, 0.15, 0.3, 0.5, 0.7, 0.9)


def analytic_table() -> str:
    rows = []
    for w in WRITE_FRACTIONS:
        rows.append(
            (
                f"{w:.2f}",
                f"{normalized_no_cache(w):.2f}",
                f"{normalized_write_once(w, N_SHARERS):.2f}",
                f"{normalized_distributed_write(w, N_SHARERS):.2f}",
                f"{normalized_global_read(w):.2f}",
                f"{normalized_two_mode(w, N_SHARERS):.2f}",
            )
        )
    return render_table(
        ("w", "no cache", "write-once", "distr. write", "global read",
         "two-mode"),
        rows,
        title=f"Analytic (eqs. 9-12, scheme 1, n={N_SHARERS} sharers)",
    )


def simulated_table() -> str:
    curves = simulated_cost_curve(
        WRITE_FRACTIONS,
        N_SHARERS,
        n_nodes=16,
        references=3000,
        warmup=500,
        seed=2,
    )
    names = ("no-cache", "write-once", "distributed-write", "global-read",
             "two-mode")
    rows = []
    for index, w in enumerate(WRITE_FRACTIONS):
        rows.append(
            (f"{w:.2f}",)
            + tuple(f"{curves[name][index][1]:.2f}" for name in names)
        )
    return render_table(
        ("w",) + names,
        rows,
        title=(
            f"Simulated (n={N_SHARERS} sharers, "
            f"N=16, uniform M=20)"
        ),
    )


def main() -> None:
    w1 = write_fraction_threshold(N_SHARERS)
    print(analytic_table())
    print()
    print(
        f"threshold w1 = 2/(n+2) = {w1:.3f}; below it distributed write "
        f"wins, above it global read."
    )
    print(
        f"two-mode worst case = 2n/(n+2) = {two_mode_peak(N_SHARERS):.2f}"
        f" < 2.00 = the uncached worst case.\n"
    )
    print(simulated_table())
    print(
        "\nThe simulated two-mode protocol (oracle selector) tracks the "
        "lower envelope, as the analysis predicts."
    )


if __name__ == "__main__":
    main()
