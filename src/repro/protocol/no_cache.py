"""The uncached baseline of eq. 9: every reference crosses the network.

"In case the block is stored at memory, the mean communication cost for
each reference to this block is ``CC_NC = (1 - w) 2 CC1 + w CC1``" -- a
read is a request plus a word reply (two traversals), a write is a single
word message (one traversal, the §4 simplification that a read costs twice
a write).

A reference is therefore a pure function of ``(node, home, op)`` plus, for
a write, one memory word: :class:`NoCacheKernel` replays a whole trace in
closed form (docs/PERF.md, "The no-cache closed form").
"""

from __future__ import annotations

import weakref
from collections import Counter

from repro.protocol.base import CoherenceProtocol
from repro.protocol.messages import MsgKind
from repro.sim import stats as ev
from repro.types import BlockId, NodeId

# Bound once: on Python 3.11 every ``MsgKind.X`` read is an
# ``EnumType.__getattr__`` call (≈ 0.1 µs; a module global ≈ 0.01 µs).
MEM_READ = MsgKind.MEM_READ
MEM_WRITE = MsgKind.MEM_WRITE
WORD_REPLY = MsgKind.WORD_REPLY


class NoCacheProtocol(CoherenceProtocol):
    """Shared memory without caches: all data lives at the home modules."""

    name = "no-cache"

    def __init__(self, system) -> None:
        super().__init__(system)
        self._kernel: NoCacheKernel | None = None

    def _read(self, node: NodeId, block: BlockId, offset: int) -> int:
        self.stats.count(ev.READS)
        home = self.home(block)
        self._send(MEM_READ, node, home, self._cost_request)
        self._send(WORD_REPLY, home, node, self._cost_word)
        return self.system.memory_for(block).read_word(block, offset)

    def _write(
        self, node: NodeId, block: BlockId, offset: int, value: int
    ) -> None:
        self.stats.count(ev.WRITES)
        self.stats.count(ev.REMOTE_WORD_WRITES)
        home = self.home(block)
        self._send(MEM_WRITE, node, home, self._cost_word)
        self.system.memory_for(block).write_word(block, offset, value)

    def batched_kernel(self) -> NoCacheKernel:
        """The closed-form replay; :func:`~repro.sim.engine.run_trace`
        decides when it runs."""
        if self._kernel is None:
            self._kernel = NoCacheKernel(self)
        return self._kernel


class NoCacheKernel:
    """A whole ``no-cache`` replay from two passes over the folded column.

    One :class:`~collections.Counter` gives the references per ``(node,
    home, op)``, posted as scaled messages and counted into ``Stats``;
    one last-position dict gives each written word its last value.  Both
    are walked in first-occurrence order, which is the order per-reference
    replay first counts each event, posts each message and stores each
    block, so ``Stats``, the ledger and every module's ``_data`` end
    exactly as it leaves them.  ``batched_refs`` counts what ran here.
    Owned by its protocol, held through a weak reference.
    """

    __slots__ = ("_protocol", "batched_refs")

    def __init__(self, protocol: NoCacheProtocol) -> None:
        self._protocol = weakref.ref(protocol)
        self.batched_refs = 0

    def replay(self, trace) -> tuple[int, int]:
        """Replay every row of a compiled trace valid for the system
        (``run_trace`` validated it); returns ``(n_reads, n_writes)``."""
        protocol = self._protocol()
        system = protocol.system
        n_nodes = system.n_nodes
        block_size = system.config.block_size_words
        n = len(trace)
        fold_col, base = trace.folded(n_nodes, block_size)
        fold = fold_col[base : base + n]
        per_block = 2 * n_nodes * block_size
        groups: dict[int, int] = {}  # (home * N + node) * 2 + op -> refs
        stores: dict[int, int] = {}  # block * B + offset -> last position
        last = dict(zip(fold, range(n)))
        for (folded, count), at in zip(Counter(fold).items(), last.values()):
            block, row = divmod(folded, per_block)
            group = (block % n_nodes) * 2 * n_nodes + row // block_size
            groups[group] = groups.get(group, 0) + count
            if group & 1:
                word = block * block_size + folded % block_size
                if stores.get(word, -1) < at:
                    stores[word] = at
        events = protocol.stats.events
        post = protocol._post
        request, word_bits = protocol._cost_request, protocol._cost_word
        n_writes = 0
        for group, count in groups.items():
            home, node = divmod(group >> 1, n_nodes)
            if group & 1:
                n_writes += count
                events[ev.WRITES] += count
                events[ev.REMOTE_WORD_WRITES] += count
                post(MEM_WRITE, node, home, word_bits, count)
            else:
                events[ev.READS] += count
                post(MEM_READ, node, home, request, count)
                post(WORD_REPLY, home, node, word_bits, count)
        values = trace.values
        for word, at in stores.items():
            block, offset = divmod(word, block_size)
            system.memory_for(block).write_word(block, offset, values[at])
        self.batched_refs += n
        return n - n_writes, n_writes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NoCacheKernel(batched={self.batched_refs})"
