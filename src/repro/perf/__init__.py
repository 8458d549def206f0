"""Timing the simulator itself.

Host time has one instrument, the benchmark of record (``bench/`` +
``BENCHMARK.json``), and bit-identity between the fast paths and their
reference paths is tier-1's job (docs/PERF.md, "Where each proof
lives").  What remains here is the clock both use:
:class:`~repro.perf.timer.PhaseTimer`, accepted by
:func:`repro.sim.engine.run_trace` for coarse phase breakdowns.
"""

from repro.perf.timer import PhaseTimer

__all__ = ["PhaseTimer"]
