"""Columnar compiled traces: the one form of a reference stream.

Every workload generator returns a :class:`CompiledTrace`, the text
format of :mod:`repro.sim.trace` reads into one, and
:func:`repro.sim.engine.run_trace` replays one.  A generated trace holds
two ``array('q')`` columns, the folded key and the value written::

    fold[i] = ((blocks[i] * n_nodes + nodes[i]) * 2 + ops[i])
              * block_size_words + offsets[i]
    values[i]

with ``ops[i]`` equal to 1 for a write and 0 for a read.  The kernel
replays from those two alone.  ``nodes``, ``ops``, ``blocks`` and
``offsets`` are views decoded from the fold on first use, once per root
and shared by its slices; the slow loop decodes only the rows it
replays.  A trace built from raw columns (the text codec,
:class:`CompiledTraceBuilder`, the constructor) keeps the four as given
and folds on first use instead.  Iterating or indexing a trace still
yields :class:`~repro.types.Reference` items, for code that wants to look
at one reference at a time.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import chain, zip_longest
from operator import itemgetter
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


class _Rows(dict):
    """Folded value -> ``(node, op, block, offset)`` for one geometry,
    each distinct value decoded on its first lookup and kept."""

    __slots__ = ("_n_nodes", "_block_size")

    def __init__(self, n_nodes: int, block_size: int) -> None:
        self._n_nodes = n_nodes
        self._block_size = block_size

    def __missing__(self, folded: int) -> tuple:
        key, offset = divmod(folded, self._block_size)
        block, node = divmod(key >> 1, self._n_nodes)
        row = self[folded] = (node, key & 1, block, offset)
        return row


def _column(rows: list[tuple], field: int):
    """Field ``field`` of ``rows`` as an ``array('q')``, or a list where
    one does not fit int64 (block numbers near 2**63)."""
    try:
        return array("q", map(itemgetter(field), rows))
    except OverflowError:
        return list(map(itemgetter(field), rows))


class CompiledTrace:
    """A reference stream as columns: the folded key and ``values``, or
    the four raw columns and ``values``.

    ``nodes``, ``ops``, ``blocks`` and ``offsets`` read the same either
    way.  A trace handed over folded (:meth:`_from_fold`, every seeded
    generator) decodes them from its fold on first use, once per root;
    a trace built from raw columns keeps them as given and folds on first
    use instead.  The replay tiers read neither more than they need: the
    kernel reads the fold and ``values``, the slow loop a trace's own
    rows (:meth:`_rows`).

    Every trace is **valid for its declared geometry**: the constructor
    validates (:meth:`validate`), and so does :meth:`_from_fold` unless
    its maker's own checks bound every row.  A slice holds rows of a
    valid trace, so it is valid too and is not checked again.  So a
    system at least as large as the declared geometry (:meth:`fits`) can
    replay every row without looking at its bounds.

    The columns are **immutable once the trace is constructed** (build a
    new trace instead).  Two facts rely on it, each established at most
    once on the root and shared with every contiguous slice (a slice is a
    window of its root's rows and copies none of them): the folded column
    (:meth:`folded`) and the statistics of the column's windows that a
    replay asked for (:meth:`_window` -- counted once per window, read by
    every cell that replays the trace).
    """

    __slots__ = (
        "n_nodes",
        "block_size_words",
        "_columns",
        "_values",
        "_length",
        "_root",
        "_start",
        "_fold",
        "_decoder",
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
    ) -> None:
        self._init(
            (nodes, ops, blocks, offsets), values, len(nodes),
            n_nodes, block_size_words,
        )
        self.validate()

    def _init(self, columns, values, length, n_nodes, block_size_words):
        self.n_nodes = n_nodes
        self.block_size_words = block_size_words
        #: ``(nodes, ops, blocks, offsets)`` as given, decoded or sliced
        #: from the root's; ``None`` until first use on a folded trace.
        self._columns = columns
        #: ``None`` on a slice until first use.
        self._values = values
        self._length = length
        #: The trace this one is a contiguous slice of, and where in it
        #: this one starts; ``None`` on a trace that is nobody's slice.
        self._root: CompiledTrace | None = None
        self._start = 0
        #: ``((n_nodes, block_size_words), column)``, on a root only.
        self._fold: tuple | None = None
        #: The rows of ``_fold`` decoded so far, on a root without
        #: columns only (:meth:`_rows`).
        self._decoder: _Rows | None = None
        #: ``(start, stop, last)`` -> that window's statistics of the
        #: column in ``_fold``; emptied whenever ``_fold`` is rebuilt.
        self._windows: dict[tuple, tuple] = {}

    @classmethod
    def _from_fold(
        cls, fold, values, n_nodes: int, block_size_words: int, *,
        proven: bool,
    ) -> "CompiledTrace":
        """A trace of its folded column for its declared geometry and its
        ``values``: how every seeded generator hands its rows over.

        ``proven``: its maker's checks bound every row, so :meth:`validate`
        does not run (otherwise it runs, on the decoded columns).
        """
        trace = cls.__new__(cls)
        trace._init(None, values, len(values), n_nodes, block_size_words)
        trace._fold = ((n_nodes, block_size_words), fold)
        if not proven:
            trace.validate()
        return trace

    # ------------------------------------------------------------------
    # The columns
    # ------------------------------------------------------------------

    @property
    def nodes(self):
        return self._decoded()[0]

    @property
    def ops(self):
        return self._decoded()[1]

    @property
    def blocks(self):
        return self._decoded()[2]

    @property
    def offsets(self):
        return self._decoded()[3]

    @property
    def values(self):
        values = self._values
        if values is None:
            start = self._start
            values = self._root._values[start : start + self._length]
            self._values = values
        return values

    def _decoded(self) -> tuple:
        """``(nodes, ops, blocks, offsets)``: a folded root decodes all
        its rows once; a slice slices its root's columns."""
        columns = self._columns
        if columns is None:
            root = self._root
            if root is None:
                # One pass through the decoder, then a C-level map per
                # view: cheaper than transposing the rows with zip().
                rows = list(self._rows())
                columns = tuple(_column(rows, field) for field in range(4))
                self._decoder = None  # the columns answer from now on
            else:
                rows = slice(self._start, self._start + self._length)
                columns = tuple(column[rows] for column in root._decoded())
            self._columns = columns
        return columns

    def _rows(self) -> Iterator[tuple]:
        """This trace's ``(node, op, block, offset)`` rows, in order.

        Read from the columns where the root has them; otherwise looked
        up row by row from this trace's own rows of the fold -- what the
        slow loop reads, so a replay of a few rows decodes those rows
        only.  Each distinct folded value is decoded once per root, into
        a dict kept there for every slice and cell: one entry (≈ 150
        bytes) per distinct value the slow loop met.
        """
        root = self._root or self
        if root._columns is not None:
            return zip(*self._decoded())
        fold = root._fold[1]
        if root is not self:
            fold = fold[self._start : self._start + self._length]
        return map(root._row_decoder().__getitem__, fold)

    def _row_decoder(self) -> _Rows:
        """The root's :class:`_Rows` for the geometry of its fold."""
        decoder = self._decoder
        if decoder is None:
            decoder = self._decoder = _Rows(*self._fold[0])
        return decoder

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
        nodes, ops, blocks, offsets = self._decoded()
        lengths = {
            len(nodes), len(ops), len(blocks), len(offsets), len(self.values)
        }
        if len(lengths) != 1:
            raise TraceError(
                f"ragged columns: lengths {sorted(lengths)} must agree"
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
        """Whether such a system is at least as large as the declared
        geometry, so every row (valid for that geometry) fits it."""
        return (
            self.n_nodes <= n_nodes
            and self.block_size_words <= block_size_words
        )

    def folded(self, n_nodes: int, block_size_words: int):
        """``(column, start)``: the folded column and this trace's row 0.

        The column holds ``((block * n_nodes + node) * 2 + op) *
        block_size_words + offset`` per reference of the *root* trace --
        one integer that tells two references apart exactly when node,
        block, operation or word differ, given rows within the bounds of
        such a system.  A folded trace holds it for its declared geometry;
        a trace of raw columns builds it on first use.  It is kept on the
        root and shared by every contiguous slice (whose rows start at
        ``start``); asking for another geometry rebuilds it from the
        decoded columns and drops the statistics of the old one's windows.
        """
        root = self._root or self
        geometry = (n_nodes, block_size_words)
        if root._fold is None or root._fold[0] != geometry:
            root._fold = (geometry, root._build_fold(*geometry))
            root._decoder = None
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

    def _build_fold(self, n_nodes: int, block_size_words: int):
        stride = 2 * block_size_words
        column = [
            (block * n_nodes + node) * stride + op * block_size_words + offset
            for node, op, block, offset in zip(*self._decoded())
        ]
        try:
            return array("q", column)
        except OverflowError:  # block numbers near 2**63: stay a list
            return column

    # ------------------------------------------------------------------
    # Sequence behaviour
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Reference]:
        for (node, op, block, offset), value in zip(
            self._rows(), self.values
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
            # A slice holds rows of this valid trace: no new validation.
            piece = CompiledTrace.__new__(CompiledTrace)
            if step != 1:
                values = self.values[item]
                piece._init(
                    tuple(column[item] for column in self._decoded()),
                    values, len(values),
                    self.n_nodes, self.block_size_words,
                )
            else:
                piece._init(
                    None, None, max(stop - start, 0),
                    self.n_nodes, self.block_size_words,
                )
                piece._root = self._root or self
                piece._start = self._start + start
            return piece
        index = range(len(self))[item]
        root = self._root or self
        at = self._start + index
        if root._columns is None:
            row = root._row_decoder()[root._fold[1][at]]
        else:
            row = [column[at] for column in root._columns]
        node, op, block, offset = row
        return Reference(
            node,
            Op.WRITE if op else Op.READ,
            Address(block, offset),
            root._values[at],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompiledTrace):
            return NotImplemented
        return (
            self.n_nodes == other.n_nodes
            and self.block_size_words == other.block_size_words
            and self.values == other.values
            and self._decoded() == other._decoded()
        )

    @property
    def write_fraction(self) -> float:
        """Observed fraction of writes (the paper's ``w``)."""
        if not len(self):
            return 0.0
        return sum(self.ops) / len(self)

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
        geometry = (self.n_nodes, self.block_size_words)
        self.__init__(*geometry)
        trace = CompiledTrace(*columns, *geometry)
        trace._fold = (geometry, fold)
        return trace
