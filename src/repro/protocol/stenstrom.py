"""The paper's two-mode cache consistency protocol (§2).

Ownership-based, with the state information *distributed to the caches*:
the owner of a block holds the present-flag vector and the mode (DW) bit;
the memory module's block store only remembers who the owner is.  Every
behaviour of §2.2 is implemented:

1. read hit -- local;
2. read miss -- via the memory module (copy nonexistent) or directly via
   the OWNER field (invalid placeholder), served with a block copy in
   distributed-write mode or a single datum in global-read mode;
3. write hit -- local for exclusive/global-read owners, multicast update
   for non-exclusive distributed-write owners, ownership acquisition for
   UnOwned copies;
4. write miss -- load-with-ownership via the memory module;
5. block replacement -- write-back / block-store exclusion for exclusive
   owners, ownership hand-off for non-exclusive owners, present-flag
   clearing for UnOwned copies and placeholders;
6./7. mode switching (``set_mode``), including the invalidation multicast
   when leaving distributed-write mode.

Deviations from the paper's letter, all in corners the paper leaves
unspecified, are documented inline:

* modified exclusive owners fold the block-store exclusion into the
  write-back message (one message instead of two);
* a replacing non-exclusive owner whose every hand-off candidate NAKs
  falls back to the exclusive replacement path;
* switching a block from global-read to distributed-write mode resets the
  present vector to the owner alone, since the placeholders it tracked
  hold no copies.  Their stale OWNER fields are repaired lazily: a direct
  load arriving at a non-owner follows that cache's own OWNER field
  (transfer history forms a pointer chain that always leads to the current
  owner) and falls back to the memory module at a dead end.
"""

from __future__ import annotations

from repro.cache.entry import CacheEntry
from repro.cache.state import CacheState, Mode, StateField
from repro.errors import (
    FaultInjectionError,
    ProtocolError,
    TransientNetworkError,
    UnreachableRouteError,
)
from repro.protocol.base import CoherenceProtocol
from repro.protocol.invariants import check_stenstrom
from repro.protocol.messages import MsgKind
from repro.protocol.modes import ModePolicy
from repro.sim import stats as ev
from repro.sim.kernel import BatchedKernel
from repro.sim.system import System
from repro.types import BlockId, NodeId, Op

# Bound once: on Python 3.11 every ``Mode.X`` / ``MsgKind.X`` / ``Op.X``
# read is an ``EnumType.__getattr__`` call (≈ 0.1 µs; a module global
# ≈ 0.01 µs).
DISTRIBUTED_WRITE = Mode.DISTRIBUTED_WRITE
GLOBAL_READ = Mode.GLOBAL_READ
ACK = MsgKind.ACK
BLOCK_REPLY = MsgKind.BLOCK_REPLY
DATA_STATE_XFER = MsgKind.DATA_STATE_XFER
INVALIDATE = MsgKind.INVALIDATE
LOAD_DIRECT = MsgKind.LOAD_DIRECT
LOAD_FWD = MsgKind.LOAD_FWD
LOAD_REQ = MsgKind.LOAD_REQ
MEM_READ = MsgKind.MEM_READ
MEM_WRITE = MsgKind.MEM_WRITE
NAK = MsgKind.NAK
OWNER_UPDATE = MsgKind.OWNER_UPDATE
OWN_FWD = MsgKind.OWN_FWD
OWN_REQ = MsgKind.OWN_REQ
PRESENT_CLEAR = MsgKind.PRESENT_CLEAR
REPLACE_NOTIFY = MsgKind.REPLACE_NOTIFY
STATE_XFER = MsgKind.STATE_XFER
WORD_REPLY = MsgKind.WORD_REPLY
WRITEBACK = MsgKind.WRITEBACK
WRITE_UPDATE = MsgKind.WRITE_UPDATE
XFER_OFFER = MsgKind.XFER_OFFER
READ = Op.READ
WRITE = Op.WRITE


class StenstromProtocol(CoherenceProtocol):
    """The two-mode protocol over a :class:`~repro.sim.system.System`.

    Parameters
    ----------
    system:
        The machine to drive.
    default_mode:
        Mode a block enters on first load.  The paper loads blocks in
        global-read mode and lets software switch them; pinning the default
        to distributed-write turns the protocol into the pure
        distributed-write comparison point of §4.
    mode_policy:
        Optional :class:`~repro.protocol.modes.ModePolicy` consulted after
        every reference; when it asks for a switch the owner executes
        ``set_mode`` (§5's hardware selector).
    """

    name = "stenstrom-two-mode"

    def __init__(
        self,
        system: System,
        *,
        default_mode: Mode = GLOBAL_READ,
        mode_policy: ModePolicy | None = None,
    ) -> None:
        super().__init__(system)
        self.default_mode = default_mode
        self.mode_policy = mode_policy
        # The ownership transfer's message sizes, computed once as the
        # base class computes the others.
        costs = system.costs
        n_nodes = system.n_nodes
        self._cost_state = costs.state_field(n_nodes)
        self._cost_block_state = costs.block_and_state(
            system.config.block_size_words, n_nodes
        )
        self._cost_owner_id = costs.owner_id(n_nodes)
        #: Blocks degraded to memory-direct service after a dead route
        #: made their owner (or a sharer) unreachable.  Only ever grows;
        #: empty for the lifetime of a fault-free system.
        self._uncacheable: set[BlockId] = set()
        self._batched_kernel: BatchedKernel | None = None

    # ------------------------------------------------------------------
    # Small accessors
    # ------------------------------------------------------------------

    def _owner_of(self, block: BlockId) -> NodeId | None:
        return self._memories[block % self._n_nodes].block_store.owner_of(
            block
        )

    def _classify_miss(self, block: BlockId) -> None:
        """Cold (no cached copy anywhere) vs coherence miss accounting."""
        self.stats.events[
            ev.COLD_MISSES
            if self._owner_of(block) is None
            else ev.COHERENCE_MISSES
        ] += 1

    # ------------------------------------------------------------------
    # Stable-state fast path
    # ------------------------------------------------------------------

    def batched_kernel(self) -> BatchedKernel:
        """The batched kernel, which builds and executes the stable-state
        records; :func:`~repro.sim.engine.run_trace` decides when it runs.

        The kernel asks the mode policy how far each chunk may run
        (:meth:`~repro.protocol.modes.ModePolicy.fold`) and hands the
        references it cannot batch to the engine's slow loop.
        """
        if self._batched_kernel is None:
            self._batched_kernel = BatchedKernel(self)
        return self._batched_kernel

    # Read only by bench's sim.fastpath_hit_share; goes with that probe.
    fastpath = batched_kernel

    # ------------------------------------------------------------------
    # Processor interface
    # ------------------------------------------------------------------

    def _read(self, node: NodeId, block: BlockId, offset: int) -> int:
        """§2.2 items 1 and 2: a read hit, or a read miss served via the
        home module (2a/2b) or the invalid placeholder's OWNER field."""
        self.stats.events[ev.READS] += 1
        if self.system.fault_injector is None:
            return self._read_body(node, block, offset)
        return self._with_recovery(
            self._read_body, block, node, block, offset
        )

    def _read_body(self, node: NodeId, block: BlockId, offset: int) -> int:
        if block in self._uncacheable:
            return self._memory_direct_read(node, block, offset)
        self._active_block = block
        entry = self._caches[node]._lookup(block)
        if entry is not None and entry.state_field.valid:
            self.stats.events[ev.READ_HITS] += 1
            value = entry.read_word(offset)
        else:
            self.stats.events[ev.READ_MISSES] += 1
            self._classify_miss(block)
            if entry is not None:
                value = self._read_miss_direct(node, block, offset, entry)
            else:
                value = self._read_miss_via_memory(node, block, offset)
        self._consult_mode_policy(node, block, READ)
        return value

    def _write(
        self, node: NodeId, block: BlockId, offset: int, value: int
    ) -> None:
        """§2.2 items 3 and 4: a write hit at the owner (3a-c) or on an
        UnOwned copy (3d), or a write miss loading with ownership (4)."""
        self.stats.events[ev.WRITES] += 1
        if self.system.fault_injector is None:
            self._write_body(node, block, offset, value)
        else:
            self._with_recovery(
                self._write_body, block, node, block, offset, value
            )

    def _write_body(
        self, node: NodeId, block: BlockId, offset: int, value: int
    ) -> None:
        if block in self._uncacheable:
            self._memory_direct_write(node, block, offset, value)
            return
        self._active_block = block
        entry = self._caches[node]._lookup(block)
        if entry is not None and entry.state_field.valid:
            self.stats.events[ev.WRITE_HITS] += 1
            if not entry.state_field.owned:
                # Write hit on an UnOwned copy: acquire ownership (3d).
                self._acquire_ownership(node, block, entry)
        else:
            self.stats.events[ev.WRITE_MISSES] += 1
            self._classify_miss(block)
            # Load with ownership (4a/4b).
            entry = self._acquire_ownership(node, block)
        self._perform_owner_write(node, entry, offset, value)
        self._consult_mode_policy(node, block, WRITE)

    # ------------------------------------------------------------------
    # Graceful degradation under dead routes (fault injection only)
    # ------------------------------------------------------------------
    #
    # A dead link or switch makes some (source, dest) pairs permanently
    # unreachable -- the omega network has exactly one path per pair.  The
    # protocol cannot keep distributed state for a block whose sharers can
    # no longer all talk, so it retreats to the one agent every port can
    # still be served by deterministically: home memory.  Degrading a
    # block writes back the freshest copy, purges every cache entry and
    # the block-store record, and marks the block uncacheable; from then
    # on reads and writes are served memory-direct (the no-cache idiom).
    # All six structural invariants hold trivially for a degraded block
    # (no copies, no owner), and the shadow-memory value check holds
    # because the freshest data reached memory before the purge.

    @property
    def uncacheable_blocks(self) -> frozenset[BlockId]:
        """Blocks degraded to memory-direct service (empty without faults)."""
        return frozenset(self._uncacheable)

    def _with_recovery(self, body, block: BlockId, *args):
        """Run ``body(*args)`` until it completes, recovering on the way.

        The one fault-retry loop of :meth:`_read`, :meth:`_write`,
        :meth:`set_mode` and :meth:`evict`, reached only under fault
        injection (fault-free entries call their body directly).  Each
        recovery degrades the block the fault names (``block`` when it
        names none) and the body runs again from the top.
        """
        while True:
            try:
                return body(*args)
            except UnreachableRouteError as exc:
                self._recover_dead_route(exc, block)
            except TransientNetworkError as exc:
                self._recover_retry_exhaustion(exc, block)

    def _recover_dead_route(
        self, exc: UnreachableRouteError, fallback_block: BlockId
    ) -> None:
        """Reference-level recovery: degrade the block that hit the fault."""
        block = exc.block if exc.block is not None else fallback_block
        if block in self._uncacheable:
            # Degraded blocks never route through the recovering send
            # paths, so reaching this means recovery is not making
            # progress; refuse to loop forever.
            raise FaultInjectionError(
                f"recovery loop: block {block} hit a dead route after "
                f"it was already degraded"
            ) from exc
        self._degrade_block(
            block, cause="dead_route", source=exc.source, dest=exc.dest
        )

    def _recover_retry_exhaustion(
        self, exc: TransientNetworkError, fallback_block: BlockId
    ) -> None:
        """Reference-level recovery from an exhausted *multicast* budget.

        A unicast send that exhausts its retry budget leaves every
        protocol data structure exactly as it was, so the exception
        propagates to the caller unchanged (the historical contract).  A
        *multicast re-send* budget exhausting is different: the update
        was partially delivered and the owner's copy already mutated, so
        aborting would strand incoherent state.  The block is degraded to
        memory-direct service instead -- the same retreat used for dead
        routes -- and the reference retries against memory.  Both the
        exhaustion and the degradation land in the structured fault log
        as *distinct* events naming the destinations that starved.
        """
        if not exc.multicast:
            raise exc
        block = exc.block if exc.block is not None else fallback_block
        if block in self._uncacheable:
            raise FaultInjectionError(
                f"recovery loop: block {block} exhausted a multicast "
                f"retry budget after it was already degraded"
            ) from exc
        dests = list(exc.dests)
        self.stats.record_fault(
            ev.FAULT_RETRY_EXHAUSTED,
            block=block,
            kind=exc.kind,
            dests=dests,
        )
        if self.recorder is not None:
            self.recorder.fault(
                ev.FAULT_RETRY_EXHAUSTED,
                exc.source if exc.source is not None else self.home(block),
                block=block,
                dests=dests,
            )
        self._degrade_block(
            block, cause="retry_exhausted", dests=tuple(exc.dests)
        )

    def _degrade_block(
        self,
        block: BlockId,
        *,
        cause: str | None = None,
        source: NodeId | None = None,
        dest: NodeId | None = None,
        dests: tuple[NodeId, ...] = (),
    ) -> None:
        system = self.system
        memory = system.memory_for(block)
        home = self.home(block)
        # Write back the freshest data first.  At every point a dead
        # route can surface, at most one cache holds a valid modified
        # entry (the owner, possibly mid-transfer), and in DW mode all
        # valid copies are identical -- so the first modified entry in
        # node order is the freshest copy, deterministically.
        for cache in system.caches:
            entry = cache.find(block)
            if (
                entry is not None
                and entry.state_field.valid
                and entry.state_field.modified
            ):
                self._send_unguarded(
                    WRITEBACK,
                    cache.node_id,
                    home,
                    self._cost_block,
                )
                memory.write_block(block, list(entry.data))
                self.stats.events[ev.WRITEBACKS] += 1
                break
        for cache in system.caches:
            if cache.find(block) is not None:
                cache.drop(block)
        memory.block_store.clear(block)
        self._uncacheable.add(block)
        self.stats.record_fault(
            ev.FAULT_DEGRADED_BLOCKS,
            block=block,
            cause=cause,
            source=source,
            dest=dest,
            dests=list(dests) if dests else None,
        )
        self.fastpath_epoch += 1
        if self.recorder is not None:
            self.recorder.fault(ev.FAULT_DEGRADED_BLOCKS, home, block=block)

    def _memory_direct_read(
        self, node: NodeId, block: BlockId, offset: int
    ) -> int:
        """Serve a degraded block like the no-cache baseline would."""
        home = self.home(block)
        self.stats.events[ev.FAULT_DIRECT_READS] += 1
        if self.recorder is not None:
            self.recorder.fault(ev.FAULT_DIRECT_READS, node, block=block)
        self._send_unguarded(MEM_READ, node, home, self._cost_request)
        self._send_unguarded(
            WORD_REPLY, home, node, self._cost_word
        )
        return self.system.memory_for(block).read_word(block, offset)

    def _memory_direct_write(
        self, node: NodeId, block: BlockId, offset: int, value: int
    ) -> None:
        home = self.home(block)
        self.stats.events[ev.FAULT_DIRECT_WRITES] += 1
        if self.recorder is not None:
            self.recorder.fault(ev.FAULT_DIRECT_WRITES, node, block=block)
        self._send_unguarded(
            MEM_WRITE, node, home, self._cost_word
        )
        self.system.memory_for(block).write_word(block, offset, value)

    # ------------------------------------------------------------------
    # Mode switching (items 6 and 7)
    # ------------------------------------------------------------------

    def set_mode(self, node: NodeId, block: BlockId, mode: Mode) -> None:
        """§2.2 items 6 and 7: switch ``block`` to ``mode``, acquiring
        ownership first (through the 3(d)/4 transfer).

        Under fault injection the switch carries the same reference-level
        recovery as :meth:`read` / :meth:`write`: a dead route or an
        exhausted multicast re-send budget degrades the affected block
        and the request retries -- becoming the degraded no-op below.
        """
        if self.system.fault_injector is None:
            self._set_mode_body(node, block, mode)
        else:
            self._with_recovery(self._set_mode_body, block, node, block, mode)

    def _set_mode_body(
        self, node: NodeId, block: BlockId, mode: Mode
    ) -> None:
        if block in self._uncacheable:
            # A degraded block has no owner and no modes; the request is
            # meaningless and must not re-cache the block.
            return
        self._active_block = block
        entry = self._ensure_owner(node, block)
        field = entry.state_field
        if mode is DISTRIBUTED_WRITE and not field.distributed_write:
            self.stats.events[ev.MODE_SWITCHES] += 1
            self.fastpath_epoch += 1
            if self.recorder is not None:
                self.recorder.mode_switch(block, node, "distributed-write")
            # The present vector tracked invalid placeholders; they hold no
            # copies, so in DW mode they must leave the vector (see module
            # docstring).  They re-register on their next read miss.
            field.present = {node}
            field.distributed_write = True
        elif mode is GLOBAL_READ and field.distributed_write:
            self.stats.events[ev.MODE_SWITCHES] += 1
            self.fastpath_epoch += 1
            if self.recorder is not None:
                self.recorder.mode_switch(block, node, "global-read")
            copies = field.others(node)
            if copies:
                self._multicast(
                    INVALIDATE,
                    node,
                    copies,
                    self._cost_request,
                )
                self.stats.events[ev.INVALIDATIONS] += len(copies)
                for other in copies:
                    other_entry = self._caches[other].find(block)
                    if other_entry is None:
                        raise ProtocolError(
                            f"present vector of block {block} names cache "
                            f"{other}, which has no entry"
                        )
                    other_entry.state_field.valid = False
                    other_entry.state_field.owner = node
            # The vector now records exactly the invalid copies: the
            # global-read meaning of the present flags.
            field.distributed_write = False

    def mode_of(self, block: BlockId) -> Mode | None:
        """Current operating mode of ``block`` (``None`` if uncached)."""
        owner = self._owner_of(block)
        if owner is None:
            return None
        entry = self._caches[owner].find(block)
        if entry is None:
            return None
        return entry.state_field.mode

    # ------------------------------------------------------------------
    # Read misses
    # ------------------------------------------------------------------

    def _read_miss_via_memory(
        self, node: NodeId, block: BlockId, offset: int
    ) -> int:
        """Read miss, copy nonexistent: request the home module (2a/2b)."""
        home = block % self._n_nodes
        self._send(LOAD_REQ, node, home, self._cost_request)
        owner = self._memories[home].block_store.owner_of(block)
        if owner is None:
            # 2(a): no cached copy anywhere.
            return self._exclusive_load(node, block).read_word(offset)
        # 2(b): forward to the owner, which serves per its mode.
        self._send(LOAD_FWD, home, owner, self._cost_request)
        return self._serve_read_at_owner(node, block, offset, owner)

    def _read_miss_direct(
        self, node: NodeId, block: BlockId, offset: int,
        placeholder: CacheEntry,
    ) -> int:
        """Read miss on an invalid placeholder: bypass via the OWNER field.

        The pointed-at cache may have lost ownership since the placeholder
        was written (possible only across mode switches); OWNER fields of
        past owners form a chain toward the current owner, so the request
        is forwarded along it, falling back to the home module at a dead
        end or after touring ``N`` caches.
        """
        target = placeholder.state_field.owner
        if target is None:
            raise ProtocolError(
                f"invalid placeholder for block {block} at cache {node} "
                f"has no OWNER field"
            )
        self._send(LOAD_DIRECT, node, target, self._cost_request)
        # Steady state: the placeholder's OWNER field points straight at
        # the current owner, so no chain bookkeeping is needed.
        entry = self._caches[target].find(block)
        if (
            entry is not None
            and entry.state_field.valid
            and entry.state_field.owned
        ):
            return self._serve_read_at_owner(
                node, block, offset, target, entry
            )
        visited: set[NodeId] = {target}
        while True:
            next_hop = (
                entry.state_field.owner if entry is not None else None
            )
            if next_hop is None or next_hop in visited:
                # Dead end: answer with a NAK and retry through memory.
                self._send(NAK, target, node, self._cost_ack)
                return self._read_miss_via_memory(node, block, offset)
            self._send(
                LOAD_FWD, target, next_hop, self._cost_request
            )
            target = next_hop
            visited.add(target)
            entry = self._caches[target].find(block)
            if (
                entry is not None
                and entry.state_field.valid
                and entry.state_field.owned
            ):
                return self._serve_read_at_owner(
                    node, block, offset, target, entry
                )

    def _serve_read_at_owner(
        self,
        node: NodeId,
        block: BlockId,
        offset: int,
        owner: NodeId,
        owner_entry: CacheEntry | None = None,
    ) -> int:
        """Owner-side service of a remote read miss (2b i/ii).

        ``owner_entry`` may be passed by a caller that already located the
        owner's entry (the direct-load path); ``None`` looks it up here.
        """
        if owner_entry is None:
            owner_entry = self._caches[owner].find(block)
        if owner_entry is None or not owner_entry.state_field.owned:
            raise ProtocolError(
                f"cache {owner} asked to serve block {block} it does not own"
            )
        owner_field = owner_entry.state_field
        if node not in owner_field.present:
            owner_field.present.add(node)
            self.present_epoch += 1
        if owner_field.distributed_write:
            # 2(b)i: ship a whole copy; requester becomes UnOwned.
            self._send(BLOCK_REPLY, owner, node, self._cost_block)
            entry = self._reuse_or_allocate(node, block)
            entry.data = list(owner_entry.data)
            entry.state_field = StateField(
                valid=True, owned=False, owner=owner
            )
            return entry.read_word(offset)
        # 2(b)ii: global read -- only the datum and the owner id travel;
        # the requester keeps (or creates) an invalid placeholder.
        self.stats.events[ev.GLOBAL_READS] += 1
        self._send(WORD_REPLY, owner, node, self._cost_word_owner)
        entry = self._reuse_or_allocate(node, block)
        entry.state_field = StateField(valid=False, owner=owner)
        return owner_entry.read_word(offset)

    def _exclusive_load(self, node: NodeId, block: BlockId) -> CacheEntry:
        """2(a)/4(a): no cached copy anywhere; load the block from memory
        and own it exclusively in the default mode."""
        home = block % self._n_nodes
        memory = self._memories[home]
        self._send(BLOCK_REPLY, home, node, self._cost_block)
        entry = self._reuse_or_allocate(node, block)
        entry.data = memory._read_block(block)
        entry.state_field = StateField(
            valid=True,
            owned=True,
            modified=False,
            distributed_write=self.default_mode is DISTRIBUTED_WRITE,
            present={node},
            owner=node,
        )
        memory.block_store.set_owner(block, node)
        return entry

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def _perform_owner_write(
        self, node: NodeId, entry: CacheEntry, offset: int, value: int
    ) -> None:
        """Write at an owning cache (3a/3b/3c), distributing if needed."""
        field = entry.state_field
        if not (field.valid and field.owned):
            raise ProtocolError(
                f"cache {node} performing an owner write without ownership"
            )
        entry.write_word(offset, value)
        field.modified = True
        if not field.distributed_write:
            return
        copies = field.others(node)
        if copies:
            # 3(b): distribute the write to every cache with a copy.
            self._multicast(WRITE_UPDATE, node, copies, self._cost_word)
            self.stats.events[ev.WRITE_UPDATES] += 1
            block = entry.tag
            assert block is not None
            caches = self._caches
            for other in copies:
                other_entry = caches[other].find(block)
                if other_entry is None or not other_entry.state_field.valid:
                    raise ProtocolError(
                        f"present vector of block {block} names cache "
                        f"{other}, which holds no valid copy"
                    )
                # A valid copy holds the whole block, like the owner's
                # entry, which has just checked the offset.
                other_entry.data[offset] = value

    def _acquire_ownership(
        self, node: NodeId, block: BlockId, entry: CacheEntry | None = None
    ) -> CacheEntry:
        """Move ownership of ``block`` to ``node`` via the home module.

        The one transfer of 3(d) (a write hit on an UnOwned copy), 4(a)/(b)
        (a write miss: load with ownership), the 5(b) hand-off and the
        ``set_mode`` prologue.  ``entry`` is the requester's entry when it
        keeps it (3(d), 5(b)); it is neither touched nor reallocated.  A
        miss passes ``None`` and claims its entry only after the old owner
        has retired, so the messages of any victim the allocation
        replaces come last.

        One rule decides what moves.  In DW mode a requester holding a
        valid copy has received every distributed write, so only the state
        field moves (3(d)i).  In every other case the data moves with it,
        and in GR mode the old owner repoints the placeholders at the new
        owner and keeps a placeholder itself (3(d)ii, 4(b), 5(b) in GR).
        """
        home = block % self._n_nodes
        block_store = self._memories[home].block_store
        self._send(OWN_REQ, node, home, self._cost_request)
        old_owner = block_store.owner_of(block)
        if old_owner is None:
            if entry is None:
                # 4(a): no cached copy anywhere.
                return self._exclusive_load(node, block)
            raise ProtocolError(f"block {block} has no recorded owner")
        old_entry = self._caches[old_owner].find(block)
        if old_entry is None or not old_entry.state_field.owned:
            raise ProtocolError(
                f"block store says cache {old_owner} owns block {block}, "
                f"but it does not"
            )
        if old_owner == node:
            raise ProtocolError(
                f"cache {node} requested ownership of block {block} "
                f"it already owns"
            )
        self._send(OWN_FWD, home, old_owner, self._cost_request)
        block_store.set_owner(block, node)
        self.stats.events[ev.OWNERSHIP_TRANSFERS] += 1
        self.fastpath_epoch += 1
        if self.recorder is not None:
            self.recorder.ownership_transfer(block, old_owner, node)

        # The old owner's field is replaced below, never mutated again:
        # what it holds after this add is the state field that moves.
        old_field = old_entry.state_field
        present = old_field.present
        present.add(node)
        distributed_write = old_field.distributed_write
        if distributed_write and entry is not None and entry.state_field.valid:
            data = None
            kind, bits = STATE_XFER, self._cost_state
        else:
            data = list(old_entry.data)
            kind, bits = DATA_STATE_XFER, self._cost_block_state
        self._send(kind, old_owner, node, bits)
        if distributed_write:
            old_entry.state_field = StateField(
                valid=True, owned=False, owner=node
            )
        else:
            placeholders = frozenset(present - {old_owner, node})
            if placeholders:
                self._multicast(
                    OWNER_UPDATE, old_owner, placeholders, self._cost_owner_id
                )
                for other in placeholders:
                    other_entry = self._caches[other].find(block)
                    if other_entry is not None:
                        other_entry.state_field.owner = node
            old_entry.state_field = StateField(valid=False, owner=node)
        if entry is None:
            entry = self._reuse_or_allocate(node, block)
        if data is not None:
            entry.data = data
        entry.state_field = StateField(
            valid=True,
            owned=True,
            modified=old_field.modified,
            distributed_write=distributed_write,
            present=set(present),
            owner=node,
        )
        return entry

    def _ensure_owner(self, node: NodeId, block: BlockId) -> CacheEntry:
        """Make ``node`` the owner of ``block`` (for ``set_mode``)."""
        entry = self._caches[node].find(block)
        if entry is None or not entry.state_field.valid:
            return self._acquire_ownership(node, block)
        if entry.state_field.owned:
            return entry
        return self._acquire_ownership(node, block, entry)

    # ------------------------------------------------------------------
    # Replacement (item 5)
    # ------------------------------------------------------------------

    def _allocate(self, node: NodeId, block: BlockId) -> CacheEntry:
        """Two-phase allocation: replace the victim, then claim the slot."""
        cache = self._caches[node]
        slot = cache.slot_for(block)
        if slot.needs_eviction(block):
            self._replace_entry(node, slot.entry)
        return cache.install(slot, block)

    def _reuse_or_allocate(self, node: NodeId, block: BlockId) -> CacheEntry:
        """``block``'s existing entry at ``node``, or a fresh allocation.

        Reinstalling over the block's own entry (typically an invalid
        placeholder being refreshed) would clear and re-zero data the
        caller immediately overwrites or never exposes -- an invalid
        entry's data is unreadable by construction.  Reusing the entry
        skips that work; the replacement-policy effect is identical
        (``install`` touches the slot, and so does this), and every
        caller overwrites ``state_field`` before the entry is next seen.
        """
        cache = self._caches[node]
        entry = cache.find(block)
        if entry is not None:
            cache.touch(block)
            return entry
        return self._allocate(node, block)

    def evict(self, node: NodeId, block: BlockId) -> None:
        """§2.2 item 5: explicitly replace ``block`` at ``node`` (protocol
        actions + drop).

        Not triggered by the reference stream (that happens through
        :meth:`_allocate`); exposed for experiments that force evictions.

        Under fault injection the eviction carries reference-level
        recovery: a dead route or an exhausted multicast budget hit while
        retiring the entry degrades the block -- which purges the entry
        everywhere, completing the eviction by a harder road.
        """
        if self._caches[node].find(block) is None:
            raise ProtocolError(
                f"cache {node} has no entry for block {block} to evict"
            )
        if self.system.fault_injector is None:
            self._evict_body(node, block)
        else:
            self._with_recovery(self._evict_body, block, node, block)

    def _evict_body(self, node: NodeId, block: BlockId) -> None:
        # Found afresh on each attempt: a recovery that degraded this
        # block purged the entry, and that completes the eviction.
        entry = self._caches[node].find(block)
        if entry is not None:
            self._replace_entry(node, entry)
            self._caches[node].drop(block)

    def _replace_entry(self, node: NodeId, entry: CacheEntry) -> None:
        """§2.2 item 5, dispatched on the victim's state."""
        block = entry.tag
        assert block is not None
        self.stats.events[ev.REPLACEMENTS] += 1
        self.fastpath_epoch += 1
        # A dead route hit while retiring the victim must degrade the
        # *victim's* block, not the block being allocated for.
        outer_block = self._active_block
        self._active_block = block
        try:
            state = entry.state(node)
            if state in (CacheState.INVALID, CacheState.UNOWNED):
                self._replace_unowned(node, block)
            elif state.is_exclusive:
                self._replace_exclusive_owner(node, entry)
            else:
                self._replace_nonexclusive_owner(node, entry)
        finally:
            self._active_block = outer_block
        # The protocol actions are complete; whatever remains in the slot
        # is dead state awaiting overwrite (or drop).
        entry.state_field = StateField()

    def _replace_unowned(self, node: NodeId, block: BlockId) -> None:
        """5(c): tell the owner, via the home module, to clear our P flag."""
        home = self.home(block)
        self._send(REPLACE_NOTIFY, node, home, self._cost_request)
        owner = self._owner_of(block)
        if owner is None:
            # The placeholder outlived every copy (possible after mode
            # switches); nothing to clear.
            return
        self._send(PRESENT_CLEAR, home, owner, self._cost_request)
        owner_entry = self._caches[owner].find(block)
        if owner_entry is not None and node in owner_entry.state_field.present:
            owner_entry.state_field.present.discard(node)
            self.present_epoch += 1

    def _replace_exclusive_owner(
        self, node: NodeId, entry: CacheEntry
    ) -> None:
        """5(a): exclude from the block store; write back if modified.

        A modified block's write-back message carries the exclusion, so
        only one message is sent (the paper charges a message plus the
        write-back; folding them is noted in the module docstring).
        """
        block = entry.tag
        assert block is not None
        home = self.home(block)
        memory = self.system.memory_for(block)
        if entry.state_field.modified:
            self._send(
                WRITEBACK,
                node,
                home,
                self._cost_block,
            )
            memory.write_block(block, entry.data)
            self.stats.events[ev.WRITEBACKS] += 1
        else:
            self._send(REPLACE_NOTIFY, node, home, self._cost_request)
        memory.block_store.clear(block)

    def _replace_nonexclusive_owner(
        self, node: NodeId, entry: CacheEntry
    ) -> None:
        """5(b): hand ownership to a cache named in the present vector."""
        block = entry.tag
        assert block is not None
        for candidate in sorted(entry.state_field.others(node)):
            self._send(XFER_OFFER, node, candidate, self._cost_request)
            candidate_entry = self._caches[candidate].find(block)
            if candidate_entry is None:
                # Candidate replaced its copy in the meantime: NAK.
                self._send(NAK, candidate, node, self._cost_ack)
                continue
            self._send(ACK, candidate, node, self._cost_ack)
            # "It requests the ownership according to the protocol": the
            # candidate acquires ownership through the home module, after
            # which our entry is UnOwned (DW) or an invalid placeholder
            # (GR) and retires through the 5(c) path.
            self._acquire_ownership(candidate, block, candidate_entry)
            self._replace_unowned(node, block)
            return
        # Every candidate NAKed: no other copy actually exists, so retire
        # as an exclusive owner (fallback documented in module docstring).
        self._replace_exclusive_owner(node, entry)

    # ------------------------------------------------------------------
    # Mode policy hook
    # ------------------------------------------------------------------

    def _consult_mode_policy(
        self, node: NodeId, block: BlockId, op: Op
    ) -> None:
        """§5: show the policy one reference; switch if it asks to.

        The slow path's consult, after every reference; the batched
        kernel shows the policy a chunk's hits at once instead
        (:meth:`~repro.protocol.modes.ModePolicy.fold` / ``commit``).  A
        switch bumps ``fastpath_epoch``.
        """
        if self.mode_policy is None:
            return
        owner = self._owner_of(block)
        if owner is None:
            return
        owner_entry = self._caches[owner].find(block)
        if owner_entry is None:
            return
        owner_field = owner_entry.state_field
        mode = owner_field.mode
        n_sharers = len(owner_field.present)
        owner_visible = (
            node == owner or op is WRITE or mode is GLOBAL_READ
        )
        self.mode_policy.observe(
            block,
            op,
            owner_visible=owner_visible,
            mode=mode,
            n_sharers=n_sharers,
        )
        desired = self.mode_policy.decide(block, mode, n_sharers)
        if desired is not None and desired is not mode:
            self.set_mode(owner, block, desired)

    # ------------------------------------------------------------------
    # Invariants and abstraction
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Structural coherence invariants (see :mod:`..invariants`)."""
        check_stenstrom(self)

    def abstract_state(self, blocks):
        """Canonical observable-state snapshot for ``blocks``.

        Returns a tuple of
        :class:`~repro.protocol.abstract.BlockAbstract` (sorted by block
        id), the projection the model-checking differential fuzzer
        compares against the abstract transition system of
        :mod:`repro.mc` after every operation.  Read-only; safe to call
        at any quiescent point.
        """
        from repro.protocol.abstract import snapshot_stenstrom

        return snapshot_stenstrom(self, blocks)
