"""A limited-pointer directory (Dir_i-B), the era's other storage fix.

The paper attacks the full map's ``O(N M)`` state by moving it into the
caches; the contemporaneous alternative (Agarwal et al., ISCA 1988) keeps
the directory at memory but caps it at ``i`` *pointers* of ``log2 N`` bits
each plus a broadcast bit: when an ``i+1``-th sharer arrives the directory
overflows, sets the broadcast bit, and subsequent invalidations go to
*every* cache.  Implemented here as a comparison point: same
write-invalidate semantics as :class:`~repro.protocol.full_map.FullMapProtocol`
(both are the shared directory core, :mod:`repro.protocol.directory`),
different directory representation, and a broadcast penalty the full map
never pays.

State per block at the home module: up to ``i`` pointers, or broadcast
mode; per cached block the same Invalid / Shared / Dirty states, encoded
in the generic state field exactly as the full map does.
"""

from __future__ import annotations

from repro.errors import ConfigurationError, ProtocolError
from repro.protocol.directory import DirectoryProtocol
from repro.types import BlockId, NodeId


class LimitedPointerProtocol(DirectoryProtocol):
    """``Dir_i B``: a directory of ``n_pointers`` per block."""

    name = "limited-pointer-directory"

    def __init__(self, system, *, n_pointers: int = 2) -> None:
        super().__init__(system)
        if n_pointers < 1:
            raise ConfigurationError(
                f"need at least one pointer, got {n_pointers}"
            )
        self.n_pointers = n_pointers

    def directory_state(
        self, block: BlockId
    ) -> tuple[frozenset[NodeId], bool]:
        """``(pointers, broadcast)`` for tests."""
        entry = self._dir(block)
        return frozenset(entry.sharers), entry.broadcast

    def _add_sharer(self, directory, node: NodeId) -> None:
        """Record a new copy holder; overflow flips to broadcast mode."""
        if directory.broadcast:
            return
        directory.sharers.add(node)
        if len(directory.sharers) > self.n_pointers:
            directory.sharers.clear()
            directory.broadcast = True
            self.stats.count("directory_overflows")

    def _check_block(self, block, directory, holders, owners) -> None:
        """Pointer accuracy (when not overflowed) + single dirty copy."""
        if directory.broadcast:
            # Overflow: the directory may only under-approximate.
            if directory.sharers:
                raise ProtocolError(
                    f"block {block}: broadcast mode with pointers "
                    f"{sorted(directory.sharers)}"
                )
        elif holders != directory.sharers:
            raise ProtocolError(
                f"block {block}: pointers "
                f"{sorted(directory.sharers)}, holders "
                f"{sorted(holders)}"
            )
        if len(owners) > 1:
            raise ProtocolError(f"block {block} dirty at {owners}")
        if directory.holder is not None:
            if not owners:
                raise ProtocolError(
                    f"block {block}: directory dirty, no dirty copy"
                )
            if directory.sharers != {directory.holder}:
                raise ProtocolError(
                    f"limited-pointer block {block} dirty without a "
                    f"single pointer"
                )
