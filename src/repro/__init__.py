"""repro -- a reproduction of Stenström's two-mode cache consistency
protocol for multiprocessors with multistage networks (ISCA 1989).

The package provides, from the bottom up:

* :mod:`repro.network` -- an omega-network simulator with per-link traffic
  accounting, the three multicast schemes of §3 and all of the paper's
  closed-form communication costs (eqs. 1-8);
* :mod:`repro.cache` / :mod:`repro.memory` -- the cache and memory-module
  substrate, including the distributed state field and the block store;
* :mod:`repro.protocol` -- the two-mode protocol itself (§2), the mode
  selection policies (§4/§5), and the baseline protocols it is compared
  against (write-once, full-map directory, no cache);
* :mod:`repro.sim` -- a verifying trace-driven simulation engine;
* :mod:`repro.workloads` -- reference-trace generators;
* :mod:`repro.analysis` -- the harness regenerating every table and figure
  of the paper's evaluation;
* :mod:`repro.runner` -- parallel, cached, observable execution of
  declarative experiment grids (specs, worker fan-out, result cache,
  run journal);
* :mod:`repro.faults` -- deterministic fault injection (message drops,
  duplicates, delays, dead links/switches) with protocol-level recovery
  and chaos campaigns;
* :mod:`repro.obs` -- structured tracing (virtual-clock trace records,
  JSONL / Chrome-trace exporters), a metrics registry, and per-link /
  per-switch utilization heatmaps.

Quickstart::

    from repro import (
        Mode, StenstromProtocol, System, SystemConfig, run_trace,
    )
    from repro.workloads import markov_block_trace

    system = System(SystemConfig(n_nodes=8))
    protocol = StenstromProtocol(system)
    trace = markov_block_trace(  # a CompiledTrace, like every generator's
        8, tasks=range(4), write_fraction=0.1, n_references=500
    )
    report = run_trace(protocol, trace)
    print(report.summary())
"""

from repro.cache import Cache, CacheState, Mode, StateField
from repro.errors import (
    CoherenceError,
    ConfigurationError,
    ExecutionError,
    FaultInjectionError,
    MulticastError,
    NetworkError,
    ProtocolError,
    ReproError,
    TraceError,
    TransientNetworkError,
    UnreachableRouteError,
)
from repro.faults import FaultPlan
from repro.memory import BlockStore, MemoryModule
from repro.obs import MetricsRegistry, TraceRecorder
from repro.network import (
    Multicaster,
    MulticastScheme,
    OmegaNetwork,
)
from repro.protocol import (
    AdaptiveModePolicy,
    CoherenceProtocol,
    FullMapProtocol,
    LimitedPointerProtocol,
    MessageCosts,
    NoCacheProtocol,
    OracleModePolicy,
    StaticModePolicy,
    StenstromProtocol,
    WriteOnceProtocol,
    write_fraction_threshold,
)
from repro.sim import (
    CompiledTrace,
    SimulationReport,
    System,
    SystemConfig,
    Trace,
    load_trace,
    run_trace,
    save_trace,
)
from repro.types import Address, Op, Reference

__version__ = "1.0.0"

__all__ = [
    "AdaptiveModePolicy",
    "Address",
    "BlockStore",
    "Cache",
    "CacheState",
    "CoherenceError",
    "CoherenceProtocol",
    "CompiledTrace",
    "ConfigurationError",
    "ExecutionError",
    "FaultInjectionError",
    "FaultPlan",
    "FullMapProtocol",
    "LimitedPointerProtocol",
    "MemoryModule",
    "MessageCosts",
    "MetricsRegistry",
    "Mode",
    "MulticastError",
    "MulticastScheme",
    "Multicaster",
    "NetworkError",
    "NoCacheProtocol",
    "OmegaNetwork",
    "Op",
    "OracleModePolicy",
    "ProtocolError",
    "Reference",
    "ReproError",
    "SimulationReport",
    "StateField",
    "StaticModePolicy",
    "StenstromProtocol",
    "System",
    "SystemConfig",
    "Trace",
    "TraceError",
    "TraceRecorder",
    "TransientNetworkError",
    "UnreachableRouteError",
    "WriteOnceProtocol",
    "load_trace",
    "run_trace",
    "save_trace",
    "write_fraction_threshold",
]
