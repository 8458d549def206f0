"""Trace-driven simulation engine.

* :mod:`repro.sim.stats` -- event and traffic counters;
* :mod:`repro.sim.system` -- the machine: caches + memories + omega network;
* :mod:`repro.sim.ctrace` -- the compiled (columnar) trace every
  generator returns;
* :mod:`repro.sim.trace` -- the trace text format and the hand-written
  reference-list trace;
* :mod:`repro.sim.engine` -- runs a trace through a protocol, verifying that
  every read returns the most recently written value.
"""

from repro.sim.ctrace import CompiledTrace
from repro.sim.engine import SimulationReport, run_trace
from repro.sim.snapshot import block_snapshot, system_snapshot
from repro.sim.stats import Stats
from repro.sim.system import System, SystemConfig
from repro.sim.timing import TimingReport, makespan, schedule
from repro.sim.trace import Trace, load_trace, save_trace

__all__ = [
    "CompiledTrace",
    "SimulationReport",
    "Stats",
    "System",
    "SystemConfig",
    "TimingReport",
    "Trace",
    "block_snapshot",
    "load_trace",
    "makespan",
    "run_trace",
    "save_trace",
    "schedule",
    "system_snapshot",
]
