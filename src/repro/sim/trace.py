"""Reference traces and their on-disk format.

A trace is an ordered list of :class:`~repro.types.Reference` items -- the
interleaved memory references of all processors, exactly what a trace-driven
coherence simulator of the period consumed.  The text format is one
reference per line::

    # repro-trace v1 n_nodes=8 block_size=4
    0 R 3:1 0
    2 W 3:1 17

i.e. ``node op block:offset value``.  Comments and blank lines are ignored
after the header.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.errors import TraceError
from repro.types import Address, NodeId, Op, Reference

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a cycle)
    from repro.sim.ctrace import CompiledTrace

_HEADER_PREFIX = "# repro-trace v1"


@dataclass
class Trace:
    """An ordered reference stream plus the geometry it was built for."""

    references: list[Reference] = field(default_factory=list)
    n_nodes: int = 0
    block_size_words: int = 1

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check every reference against the declared geometry.

        The contract is :meth:`CompiledTrace.validate
        <repro.sim.ctrace.CompiledTrace.validate>`'s, run on this
        trace's columns, so both forms name the same failing row.
        """
        self.compile()

    def __len__(self) -> int:
        return len(self.references)

    def __iter__(self) -> Iterator[Reference]:
        return iter(self.references)

    def append(self, reference: Reference) -> None:
        self.references.append(reference)

    def compile(self) -> "CompiledTrace":
        """The columnar :class:`~repro.sim.ctrace.CompiledTrace` form.

        Lossless: ``trace.compile().to_trace()`` reproduces the exact
        reference list, and replaying either form is bit-identical.
        """
        # Imported lazily: ctrace sits above this module.
        from repro.sim.ctrace import CompiledTrace

        return CompiledTrace.from_trace(self)

    @property
    def write_fraction(self) -> float:
        """Observed fraction of writes (the paper's ``w``)."""
        if not self.references:
            return 0.0
        writes = sum(1 for ref in self.references if ref.is_write)
        return writes / len(self.references)

    def nodes_touching(self, block: int) -> frozenset[NodeId]:
        """Processors that reference ``block`` anywhere in the trace."""
        return frozenset(
            ref.node for ref in self.references if ref.address.block == block
        )

    @staticmethod
    def concatenate(traces: "Sequence[Trace]") -> "Trace":
        """One trace after another (phased workloads).

        Geometries must agree on block size; the node count is the
        maximum of the parts.
        """
        if not traces:
            raise TraceError("cannot concatenate zero traces")
        block_sizes = {trace.block_size_words for trace in traces}
        if len(block_sizes) != 1:
            raise TraceError(
                f"mismatched block sizes {sorted(block_sizes)}"
            )
        references = []
        for trace in traces:
            references.extend(trace.references)
        return Trace(
            references,
            max(trace.n_nodes for trace in traces),
            block_sizes.pop(),
        )

    @staticmethod
    def interleave(traces: "Sequence[Trace]") -> "Trace":
        """Round-robin merge (concurrently active workloads).

        References are taken one at a time from each trace in turn;
        when a trace runs out the remaining ones continue.
        """
        if not traces:
            raise TraceError("cannot interleave zero traces")
        block_sizes = {trace.block_size_words for trace in traces}
        if len(block_sizes) != 1:
            raise TraceError(
                f"mismatched block sizes {sorted(block_sizes)}"
            )
        references = []
        iterators = [iter(trace.references) for trace in traces]
        while iterators:
            remaining = []
            for iterator in iterators:
                item = next(iterator, None)
                if item is not None:
                    references.append(item)
                    remaining.append(iterator)
            iterators = remaining
        return Trace(
            references,
            max(trace.n_nodes for trace in traces),
            block_sizes.pop(),
        )


# ----------------------------------------------------------------------
# Serialisation
# ----------------------------------------------------------------------


def _format_reference(ref: Reference) -> str:
    return (
        f"{ref.node} {ref.op.value} "
        f"{ref.address.block}:{ref.address.offset} {ref.value}"
    )


def _parse_reference(line: str, line_no: int) -> Reference:
    parts = line.split()
    if len(parts) != 4:
        raise TraceError(
            f"line {line_no}: expected 'node op block:offset value', "
            f"got {line!r}"
        )
    node_text, op_text, addr_text, value_text = parts
    try:
        op = Op(op_text)
    except ValueError:
        raise TraceError(
            f"line {line_no}: unknown operation {op_text!r}"
        ) from None
    try:
        block_text, offset_text = addr_text.split(":")
        address = Address(int(block_text), int(offset_text))
        return Reference(int(node_text), op, address, int(value_text))
    except ValueError:
        raise TraceError(f"line {line_no}: malformed fields in {line!r}") from None


def _parse_header(header: str) -> tuple[int, int]:
    """``(n_nodes, block_size)`` from a v1 header line."""
    if not header.startswith(_HEADER_PREFIX):
        raise TraceError(
            f"bad trace header {header.strip()!r}; "
            f"expected {_HEADER_PREFIX!r}"
        )
    fields = dict(
        item.split("=", 1)
        for item in header[len(_HEADER_PREFIX) :].split()
        if "=" in item
    )
    try:
        return int(fields["n_nodes"]), int(fields["block_size"])
    except (KeyError, ValueError):
        raise TraceError(
            f"trace header missing n_nodes/block_size: {header.strip()!r}"
        ) from None


def dump_trace(trace: "Trace | CompiledTrace", stream: io.TextIOBase) -> None:
    """Write either trace form to an open text stream (same format)."""
    if not isinstance(trace, Trace):
        # Imported lazily: ctrace sits above this module.
        from repro.sim.ctrace import dump_compiled_trace

        dump_compiled_trace(trace, stream)
        return
    stream.write(
        f"{_HEADER_PREFIX} n_nodes={trace.n_nodes} "
        f"block_size={trace.block_size_words}\n"
    )
    for ref in trace.references:
        stream.write(_format_reference(ref) + "\n")


def parse_trace(stream: Iterable[str]) -> Trace:
    """Read a trace from an iterable of text lines."""
    lines = iter(stream)
    try:
        header = next(lines)
    except StopIteration:
        raise TraceError("empty trace file") from None
    n_nodes, block_size = _parse_header(header)
    references = []
    for line_no, line in enumerate(lines, start=2):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        references.append(_parse_reference(text, line_no))
    return Trace(references, n_nodes, block_size)


def save_trace(trace: "Trace | CompiledTrace", path: str | Path) -> None:
    """Write either trace form to ``path``."""
    with open(path, "w", encoding="ascii") as stream:
        dump_trace(trace, stream)


def load_trace(path: str | Path) -> Trace:
    """Read a trace from ``path``."""
    with open(path, "r", encoding="ascii") as stream:
        return parse_trace(stream)
