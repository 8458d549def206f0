"""Stable-state fast paths for the compiled-trace replay loop.

Most references in a steady-state workload are *message-free*: a read hit
on a valid local copy, or a write by an exclusive owner (in either mode).
The full :meth:`~repro.protocol.stenstrom.StenstromProtocol.read` /
``write`` dispatch still pays for address checking, a cache probe, state
decoding and the mode-policy owner lookup on every one of them.

A :class:`FastPathTable` memoises the answer per ``(node, block)``: after a
slow-path reference it records the live cache entry, its replacement-policy
slot and (for reads) the owner's entry, stamped with the protocol's
``fastpath_epoch``.  Any event that could change a "no messages needed"
answer -- ownership transfer, mode switch, replacement, fault degradation
-- bumps the epoch, so a stale record fails its stamp comparison and the
reference falls back to the slow path (which re-registers it).  Conditions
the epoch deliberately does *not* cover -- the present vector gaining or
losing sharers -- are re-checked live on every hit, because a record's
entry object is the protocol's own entry, not a copy.

Two further record kinds cover the dominant *message-bearing* stable
states, and each carries its messages as values.  The global-read remote
read (§2.2 item 2(b)ii via the OWNER field): its two unicasts -- request
out, word-and-owner back -- are a pure function of the ``(node, owner)``
pair the record already holds.  And the distributed-write owner write
with sharers (item 3(b)): its WRITE_UPDATE multicast is a pure function
of the ``(owner, copy holders)`` pair, so the record holds the copy set
and stamps the protocol's ``present_epoch``; any present-vector
membership change anywhere retires it.  Hits are counted per record and
posted, scaled, into the protocol's message ledger
(:meth:`~repro.protocol.base.CoherenceProtocol._post`), which prices
them exactly as the slow path's sends.

A fast-path hit replicates the slow path's observable effects exactly:
the same ``stats`` events and traffic ledgers, the same per-link network
counters, the same replacement-policy touch, the same data-word access
and the same mode-policy consultation -- the slow path's own
``_apply_mode_policy``, handed the owner the record holds (it may
itself trigger a ``set_mode`` and bump the epoch).  Replaying a
compiled trace through the table is therefore bit-identical to the
slow loop (tests/protocol/test_fastpath.py, tests/sim/test_ctrace.py;
docs/PERF.md, "Where each proof lives").

The table is only handed out in configurations where the shortcut is
sound: ``StenstromProtocol.fastpath`` returns ``None`` under fault
injection, with a trace recorder attached, or with the message log
enabled (``CoherenceProtocol._sends_watched``: a hit does not append
``LoggedMessage`` entries), and the
engine engages it -- as the fallback of the batched kernel
(:mod:`repro.sim.kernel`), which drives it in short runs -- only when
value verification and invariant re-checks are off.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

from repro.errors import TraceError
from repro.protocol.messages import MsgKind
from repro.sim import stats as ev
from repro.types import Address, Op

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a cycle)
    from repro.protocol.stenstrom import StenstromProtocol
    from repro.sim.ctrace import CompiledTrace


class FastPathTable:
    """Per-``(node, block)`` memo of message-free reference answers.

    Records are keyed by the integer ``block * n_nodes + node`` (never
    negative for a registered block, so malformed trace rows simply miss).
    A local read hit is a 7-tuple ``(epoch, entry, policy, set_index,
    way, owner, owner_entry)``; a global-read remote read is the 8-tuple
    extending it with ``node`` -- with ``owner``, its request/reply
    unicasts; a message-free write is the 5-tuple ``(epoch, entry,
    policy, set_index, way)`` -- the writer *is* the owner, so no
    separate owner fields are needed; a distributed-write owner write
    with sharers is the 9-tuple extending the write record with
    ``(present_epoch, copy_entries, owner, copies)`` -- the WRITE_UPDATE
    multicast.  Record kinds are discriminated by length.
    ``hits`` and ``misses`` count fast-path engagement across all
    :meth:`replay` calls (pinned by tests/protocol/test_fastpath.py and
    tests/sim/test_kernel.py).

    The protocol owns its table; the table reaches the protocol through
    a weak reference, so a finished cell is freed by reference counting
    and leaves the cyclic collector nothing to trace.
    """

    __slots__ = ("_protocol", "_reads", "_writes", "hits", "misses")

    def __init__(self, protocol: "StenstromProtocol") -> None:
        self._protocol = weakref.ref(protocol)
        self._reads: dict[int, tuple] = {}
        self._writes: dict[int, tuple] = {}
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Registration (off the hot path: runs once per slow-path reference)
    # ------------------------------------------------------------------

    def _register_read(self, node: int, block: int) -> None:
        protocol = self._protocol()
        system = protocol.system
        cache = system.caches[node]
        location = cache.locate(block)
        if location is None:
            return
        entry = cache.find(block)
        owner = protocol._owner_of(block)
        if owner is None:
            return
        owner_entry = system.caches[owner].find(block)
        if owner_entry is None or not owner_entry.state_field.owned:
            return
        key = block * system.n_nodes + node
        if entry.state_field.valid:
            self._reads[key] = (
                protocol.fastpath_epoch,
                entry,
                cache.policy,
                location[0],
                location[1],
                owner,
                owner_entry,
            )
            return
        # Invalid placeholder in global-read mode: the steady-state remote
        # read (2b ii via the OWNER field) is two deterministic unicasts
        # between node and owner.
        if owner_entry.state_field.distributed_write:
            return
        if entry.state_field.owner != owner:
            return
        self._reads[key] = (
            protocol.fastpath_epoch,
            entry,
            cache.policy,
            location[0],
            location[1],
            owner,
            owner_entry,
            node,
        )

    def _register_write(self, node: int, block: int) -> None:
        protocol = self._protocol()
        system = protocol.system
        cache = system.caches[node]
        location = cache.locate(block)
        if location is None:
            return
        entry = cache.find(block)
        field = entry.state_field
        if not (field.valid and field.owned):
            return
        key = block * system.n_nodes + node
        if not field.distributed_write or len(field.present) == 1:
            self._writes[key] = (
                protocol.fastpath_epoch,
                entry,
                cache.policy,
                location[0],
                location[1],
            )
            return
        # Non-exclusive distributed-write owner (3b): the steady-state
        # write is one WRITE_UPDATE multicast to the copy holders plus a
        # data-word store at every copy; recorded only where its posted
        # price is what a send would have cost.
        if not protocol._plain_multicaster():
            return
        copy_entries = []
        caches = system.caches
        for copy in field.others(node):
            copy_entry = caches[copy].find(block)
            if copy_entry is None or not copy_entry.state_field.valid:
                return
            copy_entries.append(copy_entry)
        self._writes[key] = (
            protocol.fastpath_epoch,
            entry,
            cache.policy,
            location[0],
            location[1],
            protocol.present_epoch,
            tuple(copy_entries),
            node,
            field.others(node),
        )

    # ------------------------------------------------------------------
    # The hot loop
    # ------------------------------------------------------------------

    def replay(
        self, trace: "CompiledTrace", base_index: int = 0
    ) -> tuple[int, int]:
        """Replay every column row; returns ``(n_reads, n_writes)``.

        Owns the whole loop so the per-reference cost on a hit is a dict
        probe, an epoch compare and a handful of attribute checks -- no
        ``Reference`` or ``Address`` is constructed, no message sent.
        Misses take the ordinary ``protocol.read``/``write`` path and then
        register the reference for next time.  ``base_index`` offsets the
        reference index reported in errors, so a caller replaying a slice
        of a larger trace (the batched kernel's fallback) reports the
        position in the original trace.
        """
        protocol = self._protocol()
        system = protocol.system
        n_nodes = system.n_nodes
        block_size = system.config.block_size_words
        policy = protocol.mode_policy
        consult = protocol._apply_mode_policy
        reads_get = self._reads.get
        writes_get = self._writes.get
        read_slow = protocol.read
        write_slow = protocol.write
        register_read = self._register_read
        register_write = self._register_write
        op_read = Op.READ
        op_write = Op.WRITE
        hits = misses = 0
        n_reads = n_writes = 0
        # Per-hit accounting that is identical for every hit of a kind is
        # deferred: plain int accumulators (and a per-record count for the
        # global-read records) here, flushed into the Counter ledgers and
        # link arrays once at the end.  Counter and array addition commute
        # with the interleaved slow-path updates and nothing reads the
        # ledgers mid-replay, so batched flushing is bit-identical; the
        # ``finally`` keeps the flush exact even when a slow-path call
        # raises mid-trace.
        local_read_hits = 0
        fast_write_hits = 0
        # Keyed by id(record): the tuples hold unhashable entries, and
        # the value keeps the record alive so ids cannot be recycled.
        pending: dict[int, list] = {}
        pending_get = pending.get
        dw_pending: dict[int, list] = {}
        dw_pending_get = dw_pending.get
        epoch = protocol.fastpath_epoch
        pepoch = protocol.present_epoch
        try:
            for index, (node, op, block, offset, value) in enumerate(
                zip(
                    trace.nodes,
                    trace.ops,
                    trace.blocks,
                    trace.offsets,
                    trace.values,
                )
            ):
                if node < 0 or node >= n_nodes:
                    raise TraceError(
                        f"reference {base_index + index}: node {node} "
                        f"outside this {n_nodes}-node system"
                    )
                key = block * n_nodes + node
                hit = False
                if op:
                    n_writes += 1
                    record = writes_get(key)
                    if (
                        record is not None
                        and record[0] == epoch
                        and 0 <= offset < block_size
                    ):
                        entry = record[1]
                        field = entry.state_field
                        if len(record) == 5:
                            # Exclusivity is re-checked live: the present
                            # vector changes without bumping the epoch.
                            hit = (
                                field.valid
                                and field.owned
                                and (
                                    not field.distributed_write
                                    or len(field.present) == 1
                                )
                            )
                            fast_write_hits += hit
                        elif (
                            field.valid
                            and field.owned
                            and field.distributed_write
                            and record[5] == pepoch
                        ):
                            # Distributed-write multicast hit: the word
                            # lands at every copy now; the per-hit
                            # WRITE_UPDATE traffic is identical for every
                            # hit of the record, so it is counted here
                            # and flushed scaled.
                            hit = True
                            for copy_entry in record[6]:
                                copy_entry.data[offset] = value
                            counted = dw_pending_get(id(record))
                            if counted is None:
                                dw_pending[id(record)] = [record, 1]
                            else:
                                counted[1] += 1
                    if not hit:
                        misses += 1
                        write_slow(node, Address(block, offset), value)
                        register_write(node, block)
                        epoch = protocol.fastpath_epoch
                        pepoch = protocol.present_epoch
                        continue
                    entry.data[offset] = value
                    field.modified = True
                    owner, owner_field, ref_op = node, field, op_write
                else:
                    n_reads += 1
                    record = reads_get(key)
                    if (
                        record is not None
                        and record[0] == epoch
                        and 0 <= offset < block_size
                    ):
                        owner_field = record[6].state_field
                        if len(record) == 7:
                            hit = record[1].state_field.valid
                            local_read_hits += hit
                        elif (
                            not record[1].state_field.valid
                            and owner_field.owned
                            and not owner_field.distributed_write
                        ):
                            # Global-read remote read: count the hit per
                            # record; the flush posts its request/reply
                            # unicasts.  The owner's mode is epoch-stable
                            # but re-checked live for free.
                            hit = True
                            counted = pending_get(id(record))
                            if counted is None:
                                pending[id(record)] = [record, 1]
                            else:
                                counted[1] += 1
                    if not hit:
                        misses += 1
                        read_slow(node, Address(block, offset))
                        register_read(node, block)
                        epoch = protocol.fastpath_epoch
                        pepoch = protocol.present_epoch
                        continue
                    owner, ref_op = record[5], op_read
                hits += 1
                record[2].touch(record[3], record[4])
                if policy is not None:
                    consult(node, block, ref_op, owner, owner_field)
                    epoch = protocol.fastpath_epoch
                    pepoch = protocol.present_epoch
        finally:
            self._flush(local_read_hits, fast_write_hits, pending, dw_pending)
            self.hits += hits
            self.misses += misses
        return n_reads, n_writes

    def _flush(
        self,
        local_read_hits: int,
        fast_write_hits: int,
        gr_pending: dict[int, list],
        dw_pending: dict[int, list],
    ) -> None:
        """Apply a replay's deferred hit accounting (also the kernel's).

        The pending dicts map ``id(record)`` to ``[record, hit count]``;
        each record's messages are posted scaled by its count.
        """
        protocol = self._protocol()
        events = protocol.stats.events
        post = protocol._post
        # Driven by hand, outside run_trace's window: one of its own.
        own_window = protocol._ledger is None and protocol.open_window()
        gr_hits = 0
        if gr_pending:
            request_bits = protocol._cost_request
            word_owner_bits = protocol._cost_word_owner
            for record, count in gr_pending.values():
                gr_hits += count
                owner, node = record[5], record[7]
                post(MsgKind.LOAD_DIRECT, node, owner, request_bits, count)
                post(MsgKind.WORD_REPLY, owner, node, word_owner_bits, count)
            events[ev.READ_MISSES] += gr_hits
            events[ev.COHERENCE_MISSES] += gr_hits
            events[ev.GLOBAL_READS] += gr_hits
        dw_hits = 0
        if dw_pending:
            word_bits = protocol._cost_word
            for record, count in dw_pending.values():
                dw_hits += count
                owner, copies = record[7:]
                post(MsgKind.WRITE_UPDATE, owner, copies, word_bits, count)
            events[ev.WRITE_UPDATES] += dw_hits
        if own_window:
            protocol.close_window()
        if local_read_hits or gr_hits:
            events[ev.READS] += local_read_hits + gr_hits
        if local_read_hits:
            events[ev.READ_HITS] += local_read_hits
        if fast_write_hits or dw_hits:
            events[ev.WRITES] += fast_write_hits + dw_hits
            events[ev.WRITE_HITS] += fast_write_hits + dw_hits

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FastPathTable(reads={len(self._reads)}, "
            f"writes={len(self._writes)}, hits={self.hits}, "
            f"misses={self.misses})"
        )
