"""Cache consistency protocols.

* :mod:`repro.protocol.stenstrom` -- **the paper's contribution**: the
  two-mode (distributed-write / global-read), ownership-based protocol with
  cache-resident state (§2);
* :mod:`repro.protocol.modes` -- per-block operating-mode selection policies,
  including the ``w1 = 2/(n+2)`` threshold of §4 and the counter-based
  adaptive selector sketched in §5;
* :mod:`repro.protocol.directory` -- the shared core of the three
  directory baselines below: read path, miss service, invalidation,
  replacement and the invariant walk, written once;
* :mod:`repro.protocol.write_once` -- Goodman's write-once protocol adapted
  to a directory setting (the paper's main comparison point);
* :mod:`repro.protocol.full_map` -- a Censier-Feautrier full-map
  write-invalidate directory (the ``O(N M)`` state baseline of §1);
* :mod:`repro.protocol.limited_pointer` -- a limited-pointer (Dir_i B)
  directory that overflows to broadcast;
* :mod:`repro.protocol.no_cache` -- the uncached baseline of eq. 9, with
  a closed-form replay of whole traces;
* :mod:`repro.protocol.costs` -- the analytic per-reference cost models of
  §4 (eqs. 9-12, Figure 8);
* :mod:`repro.protocol.invariants` -- structural coherence invariants,
  checked by the verifying simulator and the property-based tests.
"""

from repro.protocol.base import CoherenceProtocol
from repro.protocol.full_map import FullMapProtocol
from repro.protocol.limited_pointer import LimitedPointerProtocol
from repro.protocol.messages import MessageCosts, MsgKind
from repro.protocol.modes import (
    AdaptiveModePolicy,
    ModePolicy,
    PerBlockModePolicy,
    OracleModePolicy,
    StaticModePolicy,
    write_fraction_threshold,
)
from repro.protocol.no_cache import NoCacheProtocol
from repro.protocol.stenstrom import StenstromProtocol
from repro.protocol.write_once import WriteOnceProtocol

__all__ = [
    "AdaptiveModePolicy",
    "CoherenceProtocol",
    "FullMapProtocol",
    "LimitedPointerProtocol",
    "MessageCosts",
    "ModePolicy",
    "MsgKind",
    "NoCacheProtocol",
    "OracleModePolicy",
    "PerBlockModePolicy",
    "StaticModePolicy",
    "StenstromProtocol",
    "WriteOnceProtocol",
    "write_fraction_threshold",
]
