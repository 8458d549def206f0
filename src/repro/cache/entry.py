"""Cache entries: tag + state field + data words (§2.1).

"Each cache contains a table consisting of a number of cache entries, each
containing a data portion, a tag field, and a state field."  The data portion
here is a list of Python ints (one per word) so the simulator can verify
coherence of actual values, not just of states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.state import CacheState, StateField
from repro.errors import ProtocolError
from repro.types import BlockId, NodeId


@dataclass(slots=True)
class CacheEntry:
    """One line of a cache's tag/state/data table.

    ``tag`` is ``None`` while the entry has never been used.  Note that an
    entry can be *occupied but invalid*: in global-read mode a cache keeps an
    invalid placeholder (tag set, ``V = 0``) whose OWNER field bypasses the
    memory module on the next miss.
    """

    tag: BlockId | None = None
    state_field: StateField = field(default_factory=StateField)
    data: list[int] = field(default_factory=list)

    @property
    def occupied(self) -> bool:
        """Whether the entry holds (valid or invalid) protocol state."""
        return self.tag is not None

    def state(self, cache_id: NodeId) -> CacheState:
        """Table 1 state of this entry as seen by its cache."""
        if self.tag is None:
            return CacheState.INVALID
        return self.state_field.state(cache_id)

    def read_word(self, offset: int) -> int:
        """Word at ``offset``; the entry must hold data."""
        if not 0 <= offset < len(self.data):
            raise ProtocolError(
                f"offset {offset} outside block of {len(self.data)} words "
                f"(tag={self.tag})"
            )
        return self.data[offset]

    def write_word(self, offset: int, value: int) -> None:
        """Store ``value`` at ``offset``; the entry must hold data."""
        if not 0 <= offset < len(self.data):
            raise ProtocolError(
                f"offset {offset} outside block of {len(self.data)} words "
                f"(tag={self.tag})"
            )
        self.data[offset] = value

    def clear(self) -> None:
        """Return the entry to the never-used state."""
        self.tag = None
        self.state_field = StateField()
        self.data = []
