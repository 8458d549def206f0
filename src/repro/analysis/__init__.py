"""Experiment harness: regenerate every table and figure of the paper.

* :mod:`repro.analysis.figures` -- data builders, one per table/figure,
  each returning plain data structures plus the paper's published values
  for side-by-side comparison;
* :mod:`repro.analysis.compare` -- end-to-end protocol comparisons on the
  trace-driven simulator (the empirical counterpart of Figure 8);
* :mod:`repro.analysis.sweep` -- the Figure 8 and sharer-count grids,
  each declared once and run on :mod:`repro.runner`;
* :mod:`repro.analysis.report` -- ASCII rendering of tables and line
  charts for terminal output.
"""

from repro.analysis.compiler import (
    BlockProfile,
    profile_trace,
    recommend_modes,
)
from repro.analysis.compare import (
    ProtocolComparison,
    compare_protocols,
    simulated_cost_curve,
)
from repro.analysis.fitting import LinearFit, fit_linear
from repro.analysis.latency import (
    LatencyReport,
    latency_comparison,
    trace_latency,
)
from repro.analysis.sweep import series_by_protocol, sharer_sweep
from repro.analysis.figures import (
    fig5_data,
    fig6_data,
    fig8_data,
    state_memory_table,
    table2_data,
    table3_data,
    table4_data,
)
from repro.analysis.records import load_records, save_records
from repro.analysis.replication import (
    ReplicatedMeasurement,
    replicate,
    replicated_cost,
)
from repro.analysis.report import render_series, render_table

__all__ = [
    "BlockProfile",
    "LatencyReport",
    "LinearFit",
    "ProtocolComparison",
    "ReplicatedMeasurement",
    "compare_protocols",
    "fig5_data",
    "fig6_data",
    "fig8_data",
    "fit_linear",
    "latency_comparison",
    "load_records",
    "profile_trace",
    "recommend_modes",
    "render_series",
    "render_table",
    "replicate",
    "replicated_cost",
    "save_records",
    "series_by_protocol",
    "sharer_sweep",
    "simulated_cost_curve",
    "state_memory_table",
    "table2_data",
    "table3_data",
    "table4_data",
    "trace_latency",
]
