"""Batched columnar replay: the stable-state records, built and executed.

Most references in a steady-state workload are *message-free*: a read hit
on a valid local copy, or a write by an exclusive owner.  A
:class:`BatchedKernel` memoises, per ``(node, block, op)``, the answer to
"this reference is a hit" as a *record* built from the current state and
stamped with the protocol's ``fastpath_epoch``.  Four kinds, told apart
by length:

* local read hit (§2.2 item 1): ``(epoch, entry, policy, set_index, way,
  owner, owner_entry)`` -- the live cache entry, its replacement-policy
  slot and the owner's entry;
* global-read remote read (item 2(b)ii, via the OWNER field): the same
  plus ``node``; its request and word-and-owner unicasts are a pure
  function of ``(node, owner)``;
* message-free write (item 3): ``(epoch, entry, policy, set_index,
  way)`` -- the writer *is* the owner;
* distributed-write owner write with sharers (item 3(b)): the write
  record plus ``(present_epoch, copy_entries, owner, copies)``; its
  WRITE_UPDATE multicast is a pure function of ``(owner, copies)``, so
  any present-vector membership change retires it.

Any event that could change a "no messages needed" answer -- ownership
transfer, mode switch, replacement, fault degradation -- bumps the epoch.
What the epoch deliberately does not cover (the present vector gaining
or losing sharers) is re-checked live, because a record's entry is the
protocol's own object, not a copy.  Message-bearing hits are counted per
record and posted, scaled, into the protocol's message ledger
(:meth:`~repro.protocol.base.CoherenceProtocol._post`), which prices
them exactly as the slow path's sends.

The kernel executes records a chunk at a time, so steady-state replay
pays no Python-level dispatch per reference.  What depends on the
*trace* alone the trace computes once, for every slice and every cell
that replays it: one folded column, ``((block * N + node) * 2 + op) * B
+ offset`` per reference (``CompiledTrace.folded``; every row is in
range, because ``run_trace`` hands over only a trace valid for the
system), and two statistics of each window
of that column a replay meets (``CompiledTrace._window``): the
references per ``(node, block, op)`` key, counted by distinct value in
one C-speed pass and regrouped, and where each distinct value occurs
last.  The record behind each key is
validated *once per chunk*.  A validated chunk then executes without
touching Python per reference again:

* reference counts per record come from the first statistic, and
  identical per-hit ledger/Stats deltas are accumulated as plain
  integers and flushed once at the end of the replay;
* replacement-policy touches collapse to one per distinct value, in
  last-occurrence order (the second statistic) -- for a recency policy
  the final per-set order depends only on each way's *last* touch, and
  that one is among them, so this is exact;
* data-word stores collapse to the value at a write's last position
  (``divmod`` by ``B`` gives key and word back) -- earlier values are
  never observed, because hits do not read data words and value
  verification is gated off;
* message-bearing records (global-read remote reads, distributed-write
  multicast writes) post their messages, scaled, into the protocol's
  message ledger, bit-identical to per-send accounting.

**Validation rebuilds.**  Keys are walked in first-occurrence order.  A
key whose record is missing, stamped with an old ``fastpath_epoch`` /
``present_epoch`` or failing its live check is rebuilt once from the
current state (``_register_read`` / ``_register_write``) -- the record a
slow reference would leave, since a clean prefix changes nothing
registration reads -- and checked again.  The chunk is **cut at the
first row of the first key that is still not a hit**.

A mode policy is consulted per chunk too.  Once the prefix validates, the
policy is asked, block by block, how many of the block's references it
lets pass before ``decide`` would switch a mode
(:meth:`~repro.protocol.modes.ModePolicy.fold`); the cut moves to the
earliest such reference, the clean prefix executes batched, and the
policy observes exactly that prefix
(:meth:`~repro.protocol.modes.ModePolicy.commit`).

The reference at the cut goes to the engine's one slow loop
(:func:`~repro.sim.engine._replay_columns`, numbering rows by their
index in the whole trace).  After progress that is one reference.  A cut
at row 0 -- a churning phase, a policy that folds nothing -- hands over
``MIN_CHUNK`` references and halves the chunk size, which doubles on
clean chunks up to ``MAX_CHUNK`` so a steady-state phase amortises
validation over thousands of references.

**Aligned windows.**  The chunk schedule depends on position alone: a
chunk of size C covers the window of the root's rows from a multiple of
C to the next, C doubles only at a multiple of 2C, and a replay that
starts or resumes in mid-window runs to the window's end first.  So two
protocols, or a warm-up split and the whole trace, meet the same windows
and read their statistics off the trace; only a cut's prefix and the
rest of its window are counted by the replay that cut them.

Nothing inside a clean run can invalidate its own validation: every
executed reference is a hit, hits send no un-memoised messages, never
bump ``fastpath_epoch``/``present_epoch`` and leave each block's mode and
present vector -- all a policy's verdict may depend on -- as they were.
:func:`~repro.sim.engine.run_trace` alone decides that the kernel runs:
only inside an open ledger window, which nothing that watches individual
sends (faults, a recorder, the message log) lets open,
on an input that was a compiled trace, with every per-reference check
off, after it validated every row against the system.  So
batched replay is bit-identical to the slow loop (tests/sim/test_kernel.py
and test_kernel_policies.py; docs/PERF.md, "Where each proof lives").
"""

from __future__ import annotations

import sys
import weakref
from array import array
from bisect import bisect_left
from collections import Counter, defaultdict
from operator import or_
from typing import TYPE_CHECKING

from repro.cache.state import Mode
from repro.protocol.messages import MsgKind
from repro.sim import stats as ev
from repro.sim.ctrace import _key_counts, _last_rows
from repro.sim.engine import _replay_columns

# Bound once: on Python 3.11 every ``Mode.X`` / ``MsgKind.X`` read is an
# ``EnumType.__getattr__`` call (≈ 0.1 µs; a module global ≈ 0.01 µs).
DISTRIBUTED_WRITE = Mode.DISTRIBUTED_WRITE
GLOBAL_READ = Mode.GLOBAL_READ
LOAD_DIRECT = MsgKind.LOAD_DIRECT
WORD_REPLY = MsgKind.WORD_REPLY
WRITE_UPDATE = MsgKind.WRITE_UPDATE

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a cycle)
    from repro.protocol.stenstrom import StenstromProtocol
    from repro.sim.ctrace import CompiledTrace

#: Chunk-size bounds.  The kernel starts small (cheap warmup misses),
#: doubles after a clean chunk that ends at a multiple of twice its size
#: (never past ``MAX_CHUNK``) and halves back on every cut at row 0,
#: which hands the slow loop ``MIN_CHUNK`` references.
MIN_CHUNK = 64
MAX_CHUNK = 8192


#: ``_BITS[bit][byte]`` is bit ``bit`` of ``byte``: a ``bytes.translate``
#: table (runs of ``2**bit`` zeros and ones).
_BITS = tuple(
    (bytes(1 << bit) + b"\1" * (1 << bit)) * (128 >> bit) for bit in range(8)
)


def _ops(fold, block_size):
    """Each folded row's op, ``folded // block_size & 1``, as ``bytes``.

    For a power-of-two ``block_size`` the op is one bit of each int64,
    picked out of the column's bytes at C speed; otherwise row by row.
    """
    bit = block_size.bit_length() - 1
    if block_size != 1 << bit or type(fold) is not array:
        return bytes([folded // block_size & 1 for folded in fold])
    byte = bit // 8 if sys.byteorder == "little" else 7 - bit // 8
    picked = memoryview(fold).cast("B")[byte::8]
    return bytes(picked).translate(_BITS[bit % 8])


def _block_rows(fold, ops, rows):
    """One block's ``(folded, ops)`` in a chunk.

    ``rows`` are the block's positions in the chunk -- ``range(len(fold))``
    when the chunk holds no other block.
    """
    if type(rows) is range:
        return fold, ops
    return [fold[at] for at in rows], bytes([ops[at] for at in rows])


def _visible(folded, ops, owner_key, block_size, mode):
    """The owner-visibility flags :meth:`ModePolicy.fold` takes with
    ``ops``: ``None`` in global-read mode, else a lazy ``map`` (a policy
    that ignores it costs nothing).  ``owner_key`` is ``block * n_nodes +
    owner``."""
    if mode is GLOBAL_READ:
        return None
    # Distributed write: the owner sees writes and its own reads only,
    # the folded values from ``2 * block_size * owner_key`` on.
    first = 2 * block_size * owner_key
    owned = range(first, first + 2 * block_size)
    return map(or_, ops, map(owned.__contains__, folded))


def _first_row(fold, start, stop, key, block_size):
    """The row of ``key``'s first reference in ``fold[start:stop]``."""
    row = stop
    for folded in range(key * block_size, (key + 1) * block_size):
        try:
            row = fold.index(folded, start, row)
        except ValueError:
            pass
    return row


class BatchedKernel:
    """Chunked replay over per-``(node, block)`` stable-state records.

    Records are keyed by the integer ``block * n_nodes + node``, reads
    in ``_reads`` and writes in ``_writes``; their kinds are in the
    module docstring.  ``batched_refs`` counts references
    executed by clean chunks and ``fallback_refs`` those handed to the
    slow loop, across all :meth:`replay` calls -- the observability hook
    for benchmarks and the eligibility tests.  ``fallback_reasons``
    counts the slow-loop runs by what cut the chunk: ``miss`` or
    ``policy_switch``.  ``counted_refs`` counts the
    references whose window statistics the kernel counted itself (a
    window's first replay, a cut's prefix, the rest of a window after a
    cut) and ``shared_refs`` those whose statistics it read from the
    trace, counted by an earlier replay.

    The protocol owns its kernel, whose records last from warm-up into
    the measured replay; the kernel reaches the protocol through a weak
    reference, so a finished cell is freed by reference counting and
    leaves the cyclic collector nothing to trace.
    """

    __slots__ = (
        "_protocol",
        "_reads",
        "_writes",
        "batched_refs",
        "fallback_refs",
        "fallback_reasons",
        "counted_refs",
        "shared_refs",
    )

    def __init__(self, protocol: "StenstromProtocol") -> None:
        self._protocol = weakref.ref(protocol)
        self._reads: dict[int, tuple] = {}
        self._writes: dict[int, tuple] = {}
        self.batched_refs = 0
        self.fallback_refs = 0
        self.fallback_reasons: Counter[str] = Counter()
        self.counted_refs = 0
        self.shared_refs = 0

    @property
    def hits(self) -> int:
        # Read only by bench's sim.fastpath_hit_share; goes with that probe.
        return self.batched_refs

    # Registration: off the hot path, run when a key's record is
    # missing, stale or dead at the start of a chunk.

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
        record = (
            protocol.fastpath_epoch, entry, cache.policy, *location,
            owner, owner_entry,
        )
        if entry.state_field.valid:
            self._reads[key] = record
            return
        # Invalid placeholder in global-read mode: the steady-state remote
        # read (2b ii via the OWNER field) is two deterministic unicasts
        # between node and owner.
        if owner_entry.state_field.distributed_write:
            return
        if entry.state_field.owner != owner:
            return
        self._reads[key] = (*record, node)

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
        record = (protocol.fastpath_epoch, entry, cache.policy, *location)
        if not field.distributed_write or len(field.present) == 1:
            self._writes[key] = record
            return
        # Non-exclusive distributed-write owner (3b): the steady-state
        # write is one WRITE_UPDATE multicast to the copy holders plus a
        # data-word store at every copy.
        copy_entries = []
        caches = system.caches
        for copy in field.others(node):
            copy_entry = caches[copy].find(block)
            if copy_entry is None or not copy_entry.state_field.valid:
                return
            copy_entries.append(copy_entry)
        self._writes[key] = (
            *record,
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
        """Apply a replay's deferred hit accounting.

        The pending dicts map ``id(record)`` to ``[record, hit count]``
        (keyed by id: the tuples hold unhashable entries, and the value
        keeps the record alive so ids cannot be recycled); each record's
        messages are posted scaled by its count.
        """
        protocol = self._protocol()
        events = protocol.stats.events
        post = protocol._post
        gr_hits = 0
        if gr_pending:
            request_bits = protocol._cost_request
            word_owner_bits = protocol._cost_word_owner
            for record, count in gr_pending.values():
                gr_hits += count
                owner, node = record[5], record[7]
                post(LOAD_DIRECT, node, owner, request_bits, count)
                post(WORD_REPLY, owner, node, word_owner_bits, count)
            events[ev.READ_MISSES] += gr_hits
            events[ev.COHERENCE_MISSES] += gr_hits
            events[ev.GLOBAL_READS] += gr_hits
        dw_hits = 0
        if dw_pending:
            word_bits = protocol._cost_word
            for record, count in dw_pending.values():
                dw_hits += count
                owner, copies = record[7:]
                post(WRITE_UPDATE, owner, copies, word_bits, count)
            events[ev.WRITE_UPDATES] += dw_hits
        if local_read_hits or gr_hits:
            events[ev.READS] += local_read_hits + gr_hits
        if local_read_hits:
            events[ev.READ_HITS] += local_read_hits
        if fast_write_hits or dw_hits:
            events[ev.WRITES] += fast_write_hits + dw_hits
            events[ev.WRITE_HITS] += fast_write_hits + dw_hits

    def replay(self, trace: "CompiledTrace") -> tuple[int, int]:
        """Replay every column row; returns ``(n_reads, n_writes)``."""
        protocol = self._protocol()
        system = protocol.system
        n_nodes = system.n_nodes
        block_size = system.config.block_size_words
        policy = protocol.mode_policy
        reads = self._reads
        writes = self._writes
        register_read = self._register_read
        register_write = self._register_write
        dw = DISTRIBUTED_WRITE
        gr = GLOBAL_READ
        values_col = trace.values
        n = len(trace)
        # The trace's own facts: ``fold_col`` is its root's folded column,
        # in which this trace's rows start at ``base``.
        fold_col, base = trace.folded(n_nodes, block_size)
        n_reads = n_writes = 0
        batched = fallback = 0
        # Deferred per-record counts and scalar accumulators, flushed once
        # (nothing reads the ledgers mid-replay, and Counter/array
        # addition commutes with the slow loop's interleaved updates).
        local_read_hits = 0
        fast_write_hits = 0
        gr_pending: dict[int, list] = {}
        dw_pending: dict[int, list] = {}
        n_counted = n_shared = 0
        chunk = MIN_CHUNK
        i = 0
        try:
            while i < n:
                # The window runs to the next multiple of ``chunk`` in the
                # root's rows (or to this trace's end), so every replay of
                # the root meets the same windows and reads their
                # statistics from the trace.  The rest of a window after a
                # cut is this replay's own, counted here.
                start = base + i
                j = min(start - start % chunk + chunk - base, n)
                run = j - i
                stop = base + j
                shareable = not (i and start % chunk)
                reason = None
                epoch = protocol.fastpath_epoch
                pepoch = protocol.present_epoch
                # What the policy needs per block: (owner, mode, sharers).
                owners: dict[int, tuple] = {}
                if shareable:
                    counts, fresh = trace._window(start, stop)
                else:
                    counts = _key_counts(fold_col[start:stop], block_size)
                    fresh = True
                if fresh:
                    n_counted += run
                else:
                    n_shared += run
                for key in counts[0]:
                    records = writes if key & 1 else reads
                    record = records.get(key >> 1)
                    for rebuilt in (False, True):
                        live = False
                        if record is not None and record[0] == epoch:
                            field = record[1].state_field
                            if key & 1:
                                # The writer is the owner.
                                owner = (key >> 1) % n_nodes
                                owner_field = field
                                live = (
                                    field.valid
                                    and field.owned
                                    and (
                                        not field.distributed_write
                                        or len(field.present) == 1
                                    )
                                    if len(record) == 5
                                    else field.valid
                                    and field.owned
                                    and field.distributed_write
                                    and record[5] == pepoch
                                )
                            elif len(record) == 7:
                                owner = record[5]
                                owner_field = record[6].state_field
                                live = field.valid
                            else:
                                # A placeholder outside the present
                                # vector is a real miss: the slow path
                                # adds it there.
                                owner = record[5]
                                owner_field = record[6].state_field
                                live = (
                                    not field.valid
                                    and owner_field.owned
                                    and not owner_field.distributed_write
                                    and record[7] in owner_field.present
                                )
                        if live or rebuilt:
                            break
                        block, node = divmod(key >> 1, n_nodes)
                        if key & 1:
                            register_write(node, block)
                        else:
                            register_read(node, block)
                        record = records.get(key >> 1)
                    if not live:
                        run = _first_row(
                            fold_col, start, stop, key, block_size
                        ) - start
                        reason = "miss"
                        break
                    if policy is not None:
                        owners[(key >> 1) // n_nodes] = (
                            owner,
                            dw if owner_field.distributed_write else gr,
                            len(owner_field.present),
                        )
                if run and policy is not None:
                    # Ask the policy block by block how far the hits run
                    # before it would switch a mode, cut the chunk at the
                    # earliest such reference, and let it observe the rest.
                    # Op, block and the owner's references are read off
                    # the folded rows, as the owner table reads its keys.
                    fold = fold_col[start : start + run]
                    ops = _ops(fold, block_size)
                    if len(owners) == 1:
                        rows = dict.fromkeys(owners, range(run))
                    else:
                        rows = defaultdict(list)
                        per_block = 2 * block_size * n_nodes
                        for at, folded in enumerate(fold):
                            rows[folded // per_block].append(at)
                    views = {}
                    cut = run
                    for block, at in rows.items():
                        owner, mode, n_sharers = owners[block]
                        folded, block_ops = views[block] = _block_rows(
                            fold, ops, at
                        )
                        owner_key = block * n_nodes + owner
                        kept = policy.fold(
                            block,
                            block_ops,
                            _visible(
                                folded, block_ops, owner_key, block_size, mode
                            ),
                            mode,
                            n_sharers,
                        )
                        if kept < len(at) and at[kept] < run:
                            run = at[kept]
                    if run < cut:
                        reason = "policy_switch"
                    for block, at in rows.items():
                        passed = bisect_left(at, run)
                        if passed:
                            owner, mode, n_sharers = owners[block]
                            folded, block_ops = views[block]
                            folded = folded[:passed]
                            block_ops = block_ops[:passed]
                            owner_key = block * n_nodes + owner
                            policy.commit(
                                block,
                                block_ops,
                                _visible(
                                    folded, block_ops, owner_key,
                                    block_size, mode,
                                ),
                                mode,
                                n_sharers,
                            )
                if run:
                    if run < j - i:
                        # A cut's prefix: this replay's own statistics.
                        fold = fold_col[start : start + run]
                        counts = _key_counts(fold, block_size)
                        last = _last_rows(fold)
                        n_counted += run
                    elif shareable:
                        last = trace._window(start, stop, last=True)[0]
                    else:
                        last = _last_rows(fold_col[start:stop])
                    # Clean run: every reference is a hit of a validated
                    # record and nothing below can invalidate one.
                    chunk_writes = 0
                    for key, count in zip(*counts):
                        if key & 1:
                            chunk_writes += count
                            record = writes[key >> 1]
                            record[1].state_field.modified = True
                            if len(record) == 5:
                                fast_write_hits += count
                                continue
                            pending = dw_pending
                        else:
                            record = reads[key >> 1]
                            if len(record) == 7:
                                local_read_hits += count
                                continue
                            pending = gr_pending
                        counted = pending.get(id(record))
                        if counted is None:
                            pending[id(record)] = [record, count]
                        else:
                            counted[1] += count
                    # Per distinct (key, offset), in last-occurrence
                    # order: one touch and, for a write, the last value
                    # stored (exactness: the module docstring).
                    for folded, at in zip(*last):
                        key, offset = divmod(folded, block_size)
                        if key & 1:
                            record = writes[key >> 1]
                            value = values_col[i + at]
                            record[1].data[offset] = value
                            if len(record) != 5:
                                for copy_entry in record[6]:
                                    copy_entry.data[offset] = value
                        else:
                            record = reads[key >> 1]
                        record[2].touch(record[3], record[4])
                    n_writes += chunk_writes
                    n_reads += run - chunk_writes
                    batched += run
                    i += run
                if reason is None:
                    # Doubled only at a multiple of the doubled size, so
                    # the next window is aligned too; never past the cap.
                    if chunk < MAX_CHUNK and (base + i) % (chunk << 1) == 0:
                        chunk = min(chunk << 1, MAX_CHUNK)
                    continue
                # The slow loop takes the reference at the cut.
                self.fallback_reasons[reason] += 1
                if run:
                    j = i + 1
                else:
                    j = min(i + MIN_CHUNK, n)
                    if chunk > MIN_CHUNK:
                        chunk >>= 1
                nr, nw = _replay_columns(
                    protocol,
                    trace[i:j],
                    verify=False,
                    check_invariants_every=0,
                    recorder=None,
                    start=i,
                )
                n_reads += nr
                n_writes += nw
                fallback += j - i
                i = j
        finally:
            self._flush(
                local_read_hits, fast_write_hits, gr_pending, dw_pending
            )
            self.batched_refs += batched
            self.fallback_refs += fallback
            self.counted_refs += n_counted
            self.shared_refs += n_shared
        return n_reads, n_writes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchedKernel(reads={len(self._reads)}, "
            f"writes={len(self._writes)}, batched={self.batched_refs}, "
            f"fallback={self.fallback_refs})"
        )
