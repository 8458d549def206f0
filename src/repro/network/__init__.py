"""Omega multistage interconnection network substrate.

This subpackage provides everything §3 of the paper needs:

* :mod:`repro.network.topology` -- the ``N x N`` omega network of ``2 x 2``
  switches with per-link and per-switch traffic counters;
* :mod:`repro.network.routing` -- Lawrie destination-tag unicast routing
  (the basis of multicast *scheme 1*);
* :mod:`repro.network.multicast` -- the three multicast schemes of the paper
  plus the combined scheme of eq. 8, simulated switch by switch;
* :mod:`repro.network.cost` -- the closed-form communication-cost formulas
  (eqs. 1-8) and independent per-stage summations used to cross-check them;
* :mod:`repro.network.breakeven` -- break-even analysis between the schemes
  (Tables 2, 3 and 4 of the paper);
* :mod:`repro.network.routeplan` -- memoised route plans: the
  switch-by-switch walk of any scheme is computed once per
  ``(scheme, source, destination set)`` and replayed bit-identically
  (see docs/PERF.md).
"""

from repro.network.baseline import BaselineNetwork, tree_multicast_cost
from repro.network.cost import (
    cc1,
    cc2_prime,
    cc2_worst,
    cc3,
    cc_combined,
)
from repro.network.link import Link
from repro.network.message import Message
from repro.network.multicast import (
    MulticastResult,
    MulticastScheme,
    Multicaster,
    multicast,
)
from repro.network.routeplan import RoutePlan, RoutePlanCache
from repro.network.routing import route_path, unicast
from repro.network.selector import (
    BreakEvenRegisters,
    compile_registers,
)
from repro.network.switch import Switch
from repro.network.topology import OmegaNetwork

__all__ = [
    "BaselineNetwork",
    "BreakEvenRegisters",
    "Link",
    "Message",
    "MulticastResult",
    "MulticastScheme",
    "Multicaster",
    "OmegaNetwork",
    "RoutePlan",
    "RoutePlanCache",
    "Switch",
    "cc1",
    "cc2_prime",
    "cc2_worst",
    "cc3",
    "cc_combined",
    "compile_registers",
    "multicast",
    "route_path",
    "tree_multicast_cost",
    "unicast",
]
