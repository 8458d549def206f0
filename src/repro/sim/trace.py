"""The text format of a reference stream, and the hand-written trace.

A reference stream is a :class:`~repro.sim.ctrace.CompiledTrace` -- the
interleaved memory references of all processors, exactly what a
trace-driven coherence simulator of the period consumed.  The text
format is one reference per line::

    # repro-trace v1 n_nodes=8 block_size=4
    0 R 3:1 0
    2 W 3:1 17

i.e. ``node op block:offset value``.  Comments and blank lines are ignored
after the header.

:class:`Trace` is a list of :class:`~repro.types.Reference` items plus
its geometry: the form a test or an example writes by hand.  Its
:meth:`Trace.compile` is the stream the simulator replays.
"""

from __future__ import annotations

import io
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import TraceError
from repro.sim.ctrace import CompiledTrace, _pack_columns
from repro.types import NodeId, Reference

_HEADER_PREFIX = "# repro-trace v1"


@dataclass
class Trace:
    """A hand-written reference list plus the geometry it was built for."""

    references: list[Reference] = field(default_factory=list)
    n_nodes: int = 0
    block_size_words: int = 1

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check every reference against the declared geometry.

        The contract is :meth:`CompiledTrace.validate
        <repro.sim.ctrace.CompiledTrace.validate>`'s, run on this
        trace's columns, so both name the same failing row.
        """
        self.compile()

    def __len__(self) -> int:
        return len(self.references)

    def __iter__(self) -> Iterator[Reference]:
        return iter(self.references)

    def append(self, reference: Reference) -> None:
        self.references.append(reference)

    def compile(self) -> CompiledTrace:
        """The same stream as a :class:`~repro.sim.ctrace.CompiledTrace`."""
        return CompiledTrace(
            *_pack_columns(self.references),
            self.n_nodes,
            self.block_size_words,
        )

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


# ----------------------------------------------------------------------
# Serialisation
# ----------------------------------------------------------------------


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


def parse_trace(stream: Iterable[str]) -> CompiledTrace:
    """Read the text format from an iterable of lines, into columns."""
    lines = iter(stream)
    try:
        header = next(lines)
    except StopIteration:
        raise TraceError("empty trace file") from None
    n_nodes, block_size = _parse_header(header)
    nodes = array("q")
    ops = array("q")
    blocks = array("q")
    offsets = array("q")
    values = array("q")
    for line_no, line in enumerate(lines, start=2):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 4:
            raise TraceError(
                f"line {line_no}: expected 'node op block:offset value', "
                f"got {text!r}"
            )
        node_text, op_text, addr_text, value_text = parts
        if op_text not in ("R", "W"):
            raise TraceError(
                f"line {line_no}: unknown operation {op_text!r}"
            )
        try:
            block_text, offset_text = addr_text.split(":")
            nodes.append(int(node_text))
            blocks.append(int(block_text))
            offsets.append(int(offset_text))
            values.append(int(value_text))
        except ValueError:
            raise TraceError(
                f"line {line_no}: malformed fields in {text!r}"
            ) from None
        except OverflowError:
            raise TraceError(
                f"line {line_no}: a field of {text!r} is outside int64"
            ) from None
        ops.append(op_text == "W")
    return CompiledTrace(
        nodes, ops, blocks, offsets, values, n_nodes, block_size
    )


def dump_trace(trace: CompiledTrace, stream: io.TextIOBase) -> None:
    """Write ``trace`` to an open text stream."""
    stream.write(
        f"{_HEADER_PREFIX} n_nodes={trace.n_nodes} "
        f"block_size={trace.block_size_words}\n"
    )
    for node, op, block, offset, value in zip(
        trace.nodes, trace.ops, trace.blocks, trace.offsets, trace.values
    ):
        stream.write(
            f"{node} {'W' if op else 'R'} {block}:{offset} {value}\n"
        )


def save_trace(trace: CompiledTrace, path: str | Path) -> None:
    """Write ``trace`` to ``path``."""
    with open(path, "w", encoding="ascii") as stream:
        dump_trace(trace, stream)


def load_trace(path: str | Path) -> CompiledTrace:
    """Read a trace from ``path``."""
    with open(path, "r", encoding="ascii") as stream:
        return parse_trace(stream)
