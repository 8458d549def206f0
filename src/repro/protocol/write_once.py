"""Goodman's write-once protocol, adapted to a multistage network (§4).

Goodman (1983) designed write-once for a snooping bus: the first write to a
shared block is written through to memory (and observed by every cache,
invalidating their copies); subsequent writes stay local.  On a multistage
network nothing can be observed for free, so -- as the paper's §1 notes for
all snoopy protocols -- the broadcast must be replaced by a *directory*:
the home memory module keeps, per block, the set of caches holding a copy
and whether one of them is dirty, and multicasts invalidations to exactly
the copies.  This is the adaptation simulated here; it is the protocol
eq. 10 models analytically with the two-state (exclusive/shared) Markov
chain of Figure 7.  Its mechanics are the shared directory core
(:mod:`repro.protocol.directory`); what is Goodman's is the write-through.

Per-cache block states (Goodman's, encoded in the generic state field):

* ``INVALID`` -- no copy (``V = 0``);
* ``VALID``   -- clean, possibly shared (``V = 1, O = 0``);
* ``RESERVED``-- written exactly once, memory consistent, only copy
  (``V = 1, O = 1, M = 0``);
* ``DIRTY``   -- written repeatedly, memory stale, only copy
  (``V = 1, O = 1, M = 1``).

The directory cannot observe the silent Reserved-to-Dirty promotion (a
local write), so any miss while an exclusive holder exists recalls the
block conservatively -- a Reserved holder's recall writes back data memory
already has, which costs bits but never correctness.
"""

from __future__ import annotations

import enum

from repro.cache.entry import CacheEntry
from repro.cache.state import StateField
from repro.errors import ProtocolError
from repro.protocol.directory import DirectoryProtocol
from repro.protocol.messages import MsgKind
from repro.types import BlockId, NodeId

# Bound once: on Python 3.11 every ``MsgKind.X`` read is an
# ``EnumType.__getattr__`` call (≈ 0.1 µs; a module global ≈ 0.01 µs).
DIR_WRITE_THROUGH = MsgKind.DIR_WRITE_THROUGH


class WriteOnceState(enum.Enum):
    """Goodman's four block states."""

    INVALID = "Invalid"
    VALID = "Valid"
    RESERVED = "Reserved"
    DIRTY = "Dirty"


def decode_state(entry: CacheEntry | None) -> WriteOnceState:
    """Read a Goodman state out of the generic state-field bits."""
    if entry is None or not entry.state_field.valid:
        return WriteOnceState.INVALID
    if not entry.state_field.owned:
        return WriteOnceState.VALID
    if entry.state_field.modified:
        return WriteOnceState.DIRTY
    return WriteOnceState.RESERVED


def encode_state(state: WriteOnceState) -> StateField:
    """A fresh state field encoding ``state``."""
    return StateField(
        valid=state is not WriteOnceState.INVALID,
        owned=state in (WriteOnceState.RESERVED, WriteOnceState.DIRTY),
        modified=state is WriteOnceState.DIRTY,
    )


class WriteOnceProtocol(DirectoryProtocol):
    """Directory-adapted write-once over a :class:`~repro.sim.system.System`."""

    name = "write-once"

    def directory_sharers(self, block: BlockId) -> frozenset[NodeId]:
        """Caches the home module believes hold ``block`` (for tests)."""
        return frozenset(self._dir(block).sharers)

    def _upgrade(self, node, block, offset, value, home) -> bool:
        """The "write once": write through to memory; the copy is Reserved."""
        self._send(DIR_WRITE_THROUGH, node, home, self._cost_word)
        self._memories[home].write_word(block, offset, value)
        return False

    def _check_block(self, block, directory, holders, owners) -> None:
        """Directory/cache agreement and single-dirty-copy invariants."""
        if holders != directory.sharers:
            raise ProtocolError(
                f"write-once directory for block {block} says "
                f"{sorted(directory.sharers)}, caches say "
                f"{sorted(holders)}"
            )
        if len(owners) > 1:
            raise ProtocolError(
                f"write-once block {block} reserved/dirty at {owners}"
            )
        if owners and holders != set(owners):
            raise ProtocolError(
                f"write-once block {block} dirty at {owners} "
                f"while shared at {sorted(holders)}"
            )
