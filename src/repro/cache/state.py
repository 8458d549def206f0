"""Cached-block states and the per-entry state field (§2.1, Table 1).

The paper maintains consistency of each block in one of two *operating
modes*:

* ``Mode.DISTRIBUTED_WRITE`` -- copies are allowed; the owner multicasts
  every write to the caches holding a copy;
* ``Mode.GLOBAL_READ`` -- only the owner holds a copy; other caches keep an
  invalid placeholder entry whose OWNER field lets them read single words
  directly from the owner.

A cached block is in one of six states (Table 1), *derived* from the bits of
its :class:`StateField`:

======================================  =======================================
state                                   state-field encoding (cache ``i``)
======================================  =======================================
Invalid                                 ``V = 0``
UnOwned                                 ``V = 1, O = 0``
Owned Exclusively Distributed Write     ``V = 1, O = 1, DW = 1, P = {i}``
Owned Exclusively Global Read           ``V = 1, O = 1, DW = 0, P = {i}``
Owned NonExclusively Distributed Write  ``V = 1, O = 1, DW = 1, P ⊋ {i}``
Owned NonExclusively Global Read        ``V = 1, O = 1, DW = 0, P ⊋ {i}``
======================================  =======================================

Storing the raw bits and deriving the state keeps the implementation
honest: exclusivity is not a flag someone remembered to flip, it is the
present-flag vector containing exactly the owner.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ProtocolError
from repro.types import NodeId, ilog2


class Mode(enum.Enum):
    """Operating mode of a block (the DW bit of the state field)."""

    DISTRIBUTED_WRITE = "DW"
    GLOBAL_READ = "GR"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class CacheState(enum.Enum):
    """The six states of Table 1."""

    INVALID = "Invalid"
    UNOWNED = "UnOwned"
    OWNED_EXCLUSIVE_DW = "Owned Exclusively Distributed Write"
    OWNED_EXCLUSIVE_GR = "Owned Exclusively Global Read"
    OWNED_NONEXCLUSIVE_DW = "Owned NonExclusively Distributed Write"
    OWNED_NONEXCLUSIVE_GR = "Owned NonExclusively Global Read"

    @property
    def is_valid(self) -> bool:
        return self is not CacheState.INVALID

    @property
    def is_owned(self) -> bool:
        return self in _OWNED

    @property
    def is_exclusive(self) -> bool:
        return self in (
            CacheState.OWNED_EXCLUSIVE_DW,
            CacheState.OWNED_EXCLUSIVE_GR,
        )

    @property
    def mode(self) -> Mode | None:
        """Operating mode for owned states; ``None`` otherwise."""
        if self in (
            CacheState.OWNED_EXCLUSIVE_DW,
            CacheState.OWNED_NONEXCLUSIVE_DW,
        ):
            return Mode.DISTRIBUTED_WRITE
        if self in (
            CacheState.OWNED_EXCLUSIVE_GR,
            CacheState.OWNED_NONEXCLUSIVE_GR,
        ):
            return Mode.GLOBAL_READ
        return None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_OWNED = frozenset(
    (
        CacheState.OWNED_EXCLUSIVE_DW,
        CacheState.OWNED_EXCLUSIVE_GR,
        CacheState.OWNED_NONEXCLUSIVE_DW,
        CacheState.OWNED_NONEXCLUSIVE_GR,
    )
)


# Bound once: on Python 3.11 every ``Mode.X`` / ``CacheState.X`` read is
# an ``EnumType.__getattr__`` call (≈ 0.1 µs; a module global ≈ 0.01 µs).
DISTRIBUTED_WRITE = Mode.DISTRIBUTED_WRITE
GLOBAL_READ = Mode.GLOBAL_READ
INVALID = CacheState.INVALID
UNOWNED = CacheState.UNOWNED
OWNED_EXCLUSIVE_DW = CacheState.OWNED_EXCLUSIVE_DW
OWNED_EXCLUSIVE_GR = CacheState.OWNED_EXCLUSIVE_GR
OWNED_NONEXCLUSIVE_DW = CacheState.OWNED_NONEXCLUSIVE_DW
OWNED_NONEXCLUSIVE_GR = CacheState.OWNED_NONEXCLUSIVE_GR


@dataclass(slots=True)
class StateField:
    """The per-entry state field of §2.1.

    Fields mirror the paper's bit names:

    * ``valid`` -- the V bit;
    * ``owned`` -- the O bit;
    * ``modified`` -- the M bit (copy inconsistent with memory; meaningful
      only at the owner);
    * ``distributed_write`` -- the DW bit selecting the operating mode
      (meaningful only at the owner);
    * ``present`` -- the present-flag vector ``P_1 .. P_N``, held as the set
      of cache ids whose flag is 1 (meaningful only at the owner).  In DW
      mode it marks caches *with a copy*; in GR mode it marks caches with an
      *invalid placeholder* for the block.  The owner's own flag is always
      set while owned;
    * ``owner`` -- the OWNER field (``log2 N`` bits), the cache to contact
      when this copy is not owned locally.
    """

    valid: bool = False
    owned: bool = False
    modified: bool = False
    distributed_write: bool = False
    present: set[NodeId] = field(default_factory=set)
    owner: NodeId | None = None

    @property
    def mode(self) -> Mode:
        """Operating mode encoded by the DW bit."""
        return DISTRIBUTED_WRITE if self.distributed_write else GLOBAL_READ

    def state(self, cache_id: NodeId) -> CacheState:
        """Derive the Table 1 state of this entry as seen by ``cache_id``."""
        if not self.valid:
            return INVALID
        if not self.owned:
            return UNOWNED
        if cache_id not in self.present:
            raise ProtocolError(
                f"owner {cache_id} missing from its own present vector "
                f"{sorted(self.present)}"
            )
        exclusive = self.present == {cache_id}
        if self.distributed_write:
            return OWNED_EXCLUSIVE_DW if exclusive else OWNED_NONEXCLUSIVE_DW
        return OWNED_EXCLUSIVE_GR if exclusive else OWNED_NONEXCLUSIVE_GR

    def others(self, cache_id: NodeId) -> frozenset[NodeId]:
        """Present-flagged caches other than ``cache_id``."""
        return frozenset(self.present - {cache_id})

    def copy(self) -> "StateField":
        """Independent copy (present set not shared) for state transfer."""
        return StateField(
            valid=self.valid,
            owned=self.owned,
            modified=self.modified,
            distributed_write=self.distributed_write,
            present=set(self.present),
            owner=self.owner,
        )

    @staticmethod
    def size_bits(n_caches: int) -> int:
        """Bits a hardware state field occupies for an ``N``-cache machine.

        V + O + M + DW + the ``N`` present flags + the ``log2 N``-bit OWNER
        field; the quantity behind the paper's ``O(C (N + log N))`` term.
        """
        return 4 + n_caches + ilog2(n_caches)
