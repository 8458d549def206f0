"""Columnar compiled traces: the one form of a reference stream.

Every workload generator returns a :class:`CompiledTrace`, the text
format of :mod:`repro.sim.trace` reads into one, and
:func:`repro.sim.engine.run_trace` replays one.  It stores the stream as
five parallel ``array('q')`` columns::

    nodes[i] ops[i] blocks[i] offsets[i] values[i]

with ``ops[i]`` equal to 1 for a write and 0 for a read, so the replay
loops iterate the columns directly (C-speed ``zip`` over arrays, no
NamedTuple construction).  Iterating or indexing a trace still yields
:class:`~repro.types.Reference` items, for code that wants to look at
one reference at a time.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import chain, zip_longest
from typing import Iterable, Iterator, Sequence

from repro.errors import TraceError
from repro.types import Address, Op, Reference

_WRITE = 1
_READ = 0


def _frozen(ints) -> "memoryview | tuple":
    """``ints`` (a re-iterable) as an immutable sequence: a read-only view
    of an ``array('q')``, or a tuple where a value does not fit int64."""
    try:
        return memoryview(array("q", ints)).toreadonly()
    except OverflowError:  # block numbers near 2**63
        return tuple(ints)


def _key_counts(fold, block_size):
    """``(keys, counts)``: references per ``(node, block, op)`` key of a
    folded window, keys in first-occurrence order.

    One C-speed count of the folded values, regrouped over the distinct
    ones (at most ``block_size`` per key) by dropping the offset.
    """
    counts: dict[int, int] = {}
    for folded, count in Counter(fold).items():
        key = folded // block_size
        counts[key] = counts.get(key, 0) + count
    return _frozen(counts), _frozen(counts.values())


def _last_rows(fold):
    """``(values, rows)``: the distinct folded values of a window in
    last-occurrence order, each with the row it occurs at last."""
    last = dict(zip(fold, range(len(fold))))
    values = sorted(last, key=last.__getitem__)
    return _frozen(values), _frozen([last[value] for value in values])


class CompiledTrace:
    """A reference stream as five parallel ``array('q')`` columns.

    The columns are **immutable once the trace is constructed** (build a
    new trace instead).  Three facts rely on it, each established at most
    once on the root and shared with every contiguous slice: the bounds
    proof (:meth:`fits` -- the constructor validated, or the generator's
    own checks bound every row, so a replay need not look at a row's
    bounds again), the folded column (:meth:`folded`, handed over by the
    generators for their declared geometry) and the statistics of the
    column's windows that a replay asked for (:meth:`_window` -- counted
    once per window, read by every cell that replays the trace).
    """

    __slots__ = (
        "nodes",
        "ops",
        "blocks",
        "offsets",
        "values",
        "n_nodes",
        "block_size_words",
        "_proven",
        "_root",
        "_start",
        "_fold",
        "_windows",
    )

    def __init__(
        self,
        nodes: array,
        ops: array,
        blocks: array,
        offsets: array,
        values: array,
        n_nodes: int,
        block_size_words: int,
        *,
        validate: bool = True,
    ) -> None:
        self.nodes = nodes
        self.ops = ops
        self.blocks = blocks
        self.offsets = offsets
        self.values = values
        self.n_nodes = n_nodes
        self.block_size_words = block_size_words
        #: The trace this one is a contiguous slice of, and where in it
        #: this one starts; ``None`` on a trace that is nobody's slice.
        self._root: CompiledTrace | None = None
        self._start = 0
        #: ``((n_nodes, block_size_words), column)``, on a root only.
        self._fold: tuple | None = None
        #: ``(start, stop, last)`` -> that window's statistics of the
        #: column in ``_fold``; emptied whenever ``_fold`` is rebuilt.
        self._windows: dict[tuple, tuple] = {}
        if validate:
            self.validate()
        #: Whether these rows (or a superset) are known to be in bounds.
        self._proven = validate

    # ------------------------------------------------------------------
    # Validation (the one contract: Trace.validate delegates here)
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check the columns against the declared geometry.

        A failure names the earliest failing row, and within it the
        first failing field: node, block, offset, op.
        """
        if self.n_nodes <= 0:
            raise TraceError(f"n_nodes must be positive, got {self.n_nodes}")
        if self.block_size_words <= 0:
            raise TraceError(
                f"block_size_words must be positive, "
                f"got {self.block_size_words}"
            )
        lengths = {
            len(self.nodes),
            len(self.ops),
            len(self.blocks),
            len(self.offsets),
            len(self.values),
        }
        if len(lengths) != 1:
            raise TraceError(
                f"ragged columns: lengths {sorted(lengths)} must agree"
            )
        nodes, ops, blocks, offsets = (
            self.nodes, self.ops, self.blocks, self.offsets
        )
        n_nodes, block_size = self.n_nodes, self.block_size_words
        # min/max run at C speed; the row hunt only happens on failure,
        # and reports the earliest failing row, its fields in this order.
        if nodes and (
            min(nodes) < 0
            or max(nodes) >= n_nodes
            or min(blocks) < 0
            or min(offsets) < 0
            or max(offsets) >= block_size
            or min(ops) < _READ
            or max(ops) > _WRITE
        ):
            for index, (node, op, block, offset) in enumerate(
                zip(nodes, ops, blocks, offsets)
            ):
                if not 0 <= node < n_nodes:
                    raise TraceError(
                        f"reference {index}: node {node} outside "
                        f"0..{n_nodes - 1}"
                    )
                if block < 0:
                    raise TraceError(
                        f"reference {index}: negative block {block}"
                    )
                if not 0 <= offset < block_size:
                    raise TraceError(
                        f"reference {index}: offset {offset} "
                        f"outside block of {block_size} words"
                    )
                if op not in (_READ, _WRITE):
                    raise TraceError(
                        f"reference {index}: op column holds {op}, "
                        f"expected 0 (read) or 1 (write)"
                    )

    def fits(self, n_nodes: int, block_size_words: int) -> bool:
        """Whether every row is already proven to fit such a system.

        True when the constructor validated and the system is at least
        as large as the declared geometry; a ``validate=False`` trace, or
        a smaller system, has to be checked row by row by whoever
        replays it.
        """
        return (
            self._proven
            and self.n_nodes <= n_nodes
            and self.block_size_words <= block_size_words
        )

    def folded(self, n_nodes: int, block_size_words: int):
        """``(column, start)``: the folded column and this trace's row 0.

        The column holds ``((block * n_nodes + node) * 2 + op) *
        block_size_words + offset`` per reference of the *root* trace --
        one integer that tells two references apart exactly when node,
        block, operation or word differ, given rows within the bounds of
        such a system.  It is built on first use (unless the trace's maker
        handed it over, see :meth:`_with_fold`), kept on the root and
        shared by every contiguous slice (whose rows start at ``start``);
        asking for another geometry rebuilds it and drops the statistics
        of the old one's windows.
        """
        root = self._root or self
        geometry = (n_nodes, block_size_words)
        if root._fold is None or root._fold[0] != geometry:
            root._fold = (geometry, root._build_fold(*geometry))
            root._windows = {}
        return root._fold[1], self._start

    def _window(self, start: int, stop: int, last: bool = False):
        """One window's statistics of the folded column :meth:`folded`
        last returned, and whether this call counted them.

        ``start`` and ``stop`` are rows of the root.  The statistics are
        :func:`_key_counts` of the window, or :func:`_last_rows` with
        ``last``; both are immutable, counted on the first request and
        kept on the root, so every slice and every cell that replays the
        trace reads the one copy.  Kept, they hold at most four int64s
        per row of the window (four times its fold), plus a few hundred
        bytes of headers, however many distinct values the window has.
        """
        root = self._root or self
        window = (start, stop, last)
        kept = root._windows.get(window)
        if kept is not None:
            return kept, False
        (_, block_size), column = root._fold
        fold = column[start:stop]
        kept = _last_rows(fold) if last else _key_counts(fold, block_size)
        root._windows[window] = kept
        return kept, True

    @classmethod
    def _with_fold(cls, *columns, fold, proven: bool) -> "CompiledTrace":
        """A trace handed over with its fold for its declared geometry.

        ``proven``: its maker's checks bound every row, so :meth:`validate`
        does not run (otherwise the constructor validates as usual).
        """
        trace = cls(*columns, validate=not proven)
        trace._proven = True
        trace._fold = ((trace.n_nodes, trace.block_size_words), fold)
        return trace

    def _build_fold(self, n_nodes: int, block_size_words: int):
        stride = 2 * block_size_words
        column = [
            (block * n_nodes + node) * stride + op * block_size_words + offset
            for node, op, block, offset in zip(
                self.nodes, self.ops, self.blocks, self.offsets
            )
        ]
        try:
            return array("q", column)
        except OverflowError:  # block numbers near 2**63: stay a list
            return column

    # ------------------------------------------------------------------
    # Sequence behaviour
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Reference]:
        for node, op, block, offset, value in zip(
            self.nodes, self.ops, self.blocks, self.offsets, self.values
        ):
            yield Reference(
                node,
                Op.WRITE if op else Op.READ,
                Address(block, offset),
                value,
            )

    def __getitem__(self, item):
        if isinstance(item, slice):
            start, stop, step = item.indices(len(self))
            if (start, stop, step) == (0, len(self), 1):
                return self  # immutable, so the whole trace is its own slice
            piece = CompiledTrace(
                self.nodes[item],
                self.ops[item],
                self.blocks[item],
                self.offsets[item],
                self.values[item],
                self.n_nodes,
                self.block_size_words,
                validate=False,
            )
            piece._proven = self._proven
            if step == 1:
                piece._root = self._root or self
                piece._start = self._start + start
            return piece
        return Reference(
            self.nodes[item],
            Op.WRITE if self.ops[item] else Op.READ,
            Address(self.blocks[item], self.offsets[item]),
            self.values[item],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompiledTrace):
            return NotImplemented
        return (
            self.n_nodes == other.n_nodes
            and self.block_size_words == other.block_size_words
            and self.nodes == other.nodes
            and self.ops == other.ops
            and self.blocks == other.blocks
            and self.offsets == other.offsets
            and self.values == other.values
        )

    @property
    def write_fraction(self) -> float:
        """Observed fraction of writes (the paper's ``w``)."""
        if not self.ops:
            return 0.0
        return sum(self.ops) / len(self.ops)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledTrace(n_references={len(self)}, "
            f"n_nodes={self.n_nodes}, "
            f"block_size_words={self.block_size_words})"
        )

    # ------------------------------------------------------------------
    # Combining generated traces
    # ------------------------------------------------------------------

    @classmethod
    def concatenate(cls, traces: Sequence[CompiledTrace]) -> CompiledTrace:
        """One trace after another (phased workloads).

        Geometries must agree on block size; the node count is the
        maximum of the parts.
        """
        return cls._combine("concatenate", traces, chain(*traces))

    @classmethod
    def interleave(cls, traces: Sequence[CompiledTrace]) -> CompiledTrace:
        """Round-robin merge (concurrently active workloads).

        References are taken one at a time from each trace in turn;
        when a trace runs out the remaining ones continue.
        """
        rounds = zip_longest(*traces)  # None once a trace has run out
        return cls._combine(
            "interleave",
            traces,
            (ref for round_ in rounds for ref in round_ if ref is not None),
        )

    @classmethod
    def _combine(cls, verb, traces, references) -> CompiledTrace:
        if not traces:
            raise TraceError(f"cannot {verb} zero traces")
        block_sizes = {trace.block_size_words for trace in traces}
        if len(block_sizes) != 1:
            raise TraceError(
                f"mismatched block sizes {sorted(block_sizes)}"
            )
        return cls(
            *_pack_columns(references),
            max(trace.n_nodes for trace in traces),
            block_sizes.pop(),
        )


def _pack_columns(references: Iterable[Reference]) -> tuple[array, ...]:
    """The five columns of any iterable of references, in one pass."""
    columns = nodes, ops, blocks, offsets, values = tuple(
        array("q") for _ in range(5)
    )
    write = Op.WRITE
    for node, op, (block, offset), value in references:
        nodes.append(node)
        ops.append(op is write)
        blocks.append(block)
        offsets.append(offset)
        values.append(value)
    return columns


# ----------------------------------------------------------------------
# Builder: how the RNG-free workload generators emit
# ----------------------------------------------------------------------


class CompiledTraceBuilder:
    """Accumulates references straight into columns (no ``Reference``),
    and their folded column for the declared geometry; ``build`` validates.
    """

    __slots__ = (
        "n_nodes",
        "block_size_words",
        "_nodes",
        "_ops",
        "_blocks",
        "_offsets",
        "_values",
        "_fold",
    )

    def __init__(self, n_nodes: int, block_size_words: int) -> None:
        self.n_nodes = n_nodes
        self.block_size_words = block_size_words
        self._nodes = array("q")
        self._ops = array("q")
        self._blocks = array("q")
        self._offsets = array("q")
        self._values = array("q")
        self._fold = array("q")

    def read(self, node: int, block: int, offset: int) -> None:
        self._append(node, _READ, block, offset, 0)

    def write(self, node: int, block: int, offset: int, value: int) -> None:
        self._append(node, _WRITE, block, offset, value)

    def _append(self, node, op, block, offset, value) -> None:
        self._nodes.append(node)
        self._ops.append(op)
        self._blocks.append(block)
        self._offsets.append(offset)
        self._values.append(value)
        key = ((block * self.n_nodes + node) * 2 + op) * self.block_size_words
        try:
            self._fold.append(key + offset)
        except OverflowError:  # block numbers near 2**63: stay a list
            self._fold = [*self._fold, key + offset]

    def build(self) -> CompiledTrace:
        """Hand the columns over to a trace; the builder starts afresh.

        A trace's columns are immutable, so a ``read``/``write`` after
        ``build`` must not reach the arrays the trace now owns.
        """
        columns = (
            self._nodes, self._ops, self._blocks, self._offsets, self._values
        )
        fold = self._fold
        self.__init__(self.n_nodes, self.block_size_words)
        return CompiledTrace._with_fold(
            *columns, self.n_nodes, self.block_size_words,
            fold=fold, proven=False,
        )
