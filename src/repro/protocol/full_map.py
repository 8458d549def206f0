"""A Censier-Feautrier full-map directory protocol (the §1 baseline).

The classical "global directory" solution the paper positions itself
against: the home memory module keeps, for every block, a presence bit per
cache plus a dirty bit (``O(N M)`` bits of state), and every coherence
action consults it.  Write-invalidate semantics:

* read miss -- home supplies the block (recalling it from a dirty holder
  first) and sets the presence bit;
* write to a non-exclusive copy -- home invalidates all other copies,
  then the writer holds the block dirty and writes locally;
* replacement -- write back if dirty, always clear the presence bit.

This gives the comparison points the paper's storage argument (§1) and the
performance discussion need: same network, same costing, memory-side state
instead of cache-side state.  The mechanics are the shared directory core
(:mod:`repro.protocol.directory`); a full map adds only its invariants.
"""

from __future__ import annotations

import enum

from repro.cache.entry import CacheEntry
from repro.errors import ProtocolError
from repro.protocol.directory import DirectoryProtocol
from repro.types import BlockId, NodeId


class FullMapState(enum.Enum):
    """Per-cache block states of the write-invalidate directory protocol."""

    INVALID = "Invalid"
    SHARED = "Shared"
    DIRTY = "Dirty"


def decode_state(entry: CacheEntry | None) -> FullMapState:
    """Read the directory-protocol state from the generic state field."""
    if entry is None or not entry.state_field.valid:
        return FullMapState.INVALID
    if entry.state_field.modified:
        return FullMapState.DIRTY
    return FullMapState.SHARED


class FullMapProtocol(DirectoryProtocol):
    """Full-map write-invalidate directory protocol."""

    name = "full-map-directory"
    _error_prefix = "full-map "

    def directory_present(self, block: BlockId) -> frozenset[NodeId]:
        """The presence vector the home module holds (for tests)."""
        return frozenset(self._dir(block).sharers)

    def _check_block(self, block, directory, holders, owners) -> None:
        """Presence-vector accuracy and single-dirty-copy invariants."""
        if holders != directory.sharers:
            raise ProtocolError(
                f"full-map directory for block {block} says "
                f"{sorted(directory.sharers)}, caches say "
                f"{sorted(holders)}"
            )
        if directory.holder is not None:
            if len(holders) != 1 or not owners:
                raise ProtocolError(
                    f"full-map block {block} marked dirty with "
                    f"holders {sorted(holders)}"
                )
        elif owners:
            raise ProtocolError(
                f"full-map block {block} dirty at {owners} but the "
                f"directory disagrees"
            )
