"""Stable-state fast-path records for the batched kernel.

Most references in a steady-state workload are *message-free*: a read hit
on a valid local copy, or a write by an exclusive owner (in either mode).
The full :meth:`~repro.protocol.stenstrom.StenstromProtocol.read` /
``write`` dispatch still pays for address checking, a cache probe, state
decoding and the mode-policy owner lookup on every one of them.

A :class:`FastPathTable` memoises the answer per ``(node, block)``: built
from the current state, a record holds the live cache entry, its
replacement-policy slot and (for reads) the owner's entry, stamped with
the protocol's ``fastpath_epoch``.  Any event that could change a "no
messages needed" answer -- ownership transfer, mode switch, replacement,
fault degradation -- bumps the epoch, so a stale record fails its stamp
comparison and the batched kernel (:mod:`repro.sim.kernel`, the one code
that executes records) rebuilds it.  Conditions the epoch deliberately
does *not* cover -- the present vector gaining or losing sharers -- are
re-checked live there, because a record's entry object is the protocol's
own entry, not a copy.

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

A hit replicates the slow path's observable effects exactly: the same
``stats`` events and traffic ledgers, the same per-link network
counters, the same replacement-policy touch, the same data-word access
and the same mode-policy observation.  Replaying a compiled trace
through the kernel is therefore bit-identical to the slow loop
(tests/protocol/test_fastpath.py, tests/sim/test_kernel.py; docs/PERF.md,
"Where each proof lives").

The table is only handed out in configurations where the shortcut is
sound: ``StenstromProtocol.fastpath`` returns ``None`` under fault
injection, with a trace recorder attached, or with the message log
enabled (``CoherenceProtocol._sends_watched``: a hit does not append
``LoggedMessage`` entries), and the engine engages the kernel only when
value verification and invariant re-checks are off.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

from repro.protocol.messages import MsgKind
from repro.sim import stats as ev

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a cycle)
    from repro.protocol.stenstrom import StenstromProtocol


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
    multicast.  Record kinds are discriminated by length; their live
    checks are the kernel's.  ``hits`` and ``misses`` count the
    references the kernel batched and handed to the slow loop, across
    all its replays (pinned by tests/protocol/test_fastpath.py and
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
    # Registration (off the hot path: the kernel rebuilds a record when
    # its key is missing, stale or dead at the start of a chunk)
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

    def _flush(
        self,
        local_read_hits: int,
        fast_write_hits: int,
        gr_pending: dict[int, list],
        dw_pending: dict[int, list],
    ) -> None:
        """Apply a kernel replay's deferred hit accounting.

        The pending dicts map ``id(record)`` to ``[record, hit count]``
        (keyed by id: the tuples hold unhashable entries, and the value
        keeps the record alive so ids cannot be recycled); each record's
        messages are posted scaled by its count.
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
