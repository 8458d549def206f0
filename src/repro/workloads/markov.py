"""The §4 reference model as a trace generator.

"Consider a parallel application where ``n`` tasks access a shared
read-write data structure.  For each block in the data structure we assume
that exactly one task modifies it and all other tasks access it.  The
fraction of writes to the block is ``w``."

:func:`markov_block_trace` realises that model for one block;
:func:`shared_structure_trace` for a whole structure of blocks, each with
its own writer.  Values written are sequence numbers so the verifying
simulator can detect any stale read.
"""

from __future__ import annotations

import random
from array import array
from typing import Sequence

from repro.errors import ConfigurationError
from repro.sim.ctrace import CompiledTrace
from repro.types import NodeId


def _check_tasks(tasks: Sequence[NodeId], n_nodes: int) -> None:
    if not tasks:
        raise ConfigurationError("need at least one task")
    for task in tasks:
        if not 0 <= task < n_nodes:
            raise ConfigurationError(f"task {task} outside 0..{n_nodes - 1}")
    if len(set(tasks)) != len(tasks):
        raise ConfigurationError(f"duplicate tasks in {list(tasks)}")


def _check_at_least(minimum: int, **arguments: int) -> None:
    """Reject generator arguments below ``minimum`` (0 or 1).

    Every range a seeded generator draws from passes with ``minimum=1``:
    the inlined bounded draw would never terminate on an empty one.
    """
    kind = "positive" if minimum else "non-negative"
    for name, value in arguments.items():
        if value < minimum:
            raise ConfigurationError(f"{name} must be {kind}, got {value}")


def _check_fraction(value: float, name: str = "write_fraction") -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value}")


def _fold_column(low: int, high: int):
    """An empty folded column for keys in ``[low, high)``: ``array('q')``
    if they fit int64, else a list of exact ints (as ``_build_fold``)."""
    return array("q") if -(1 << 63) <= low and high <= 1 << 63 else []


def _emit(
    nodes, ops, blocks, offsets, values, fold, proven,
    n_nodes, block_size_words,
) -> CompiledTrace:
    """A seeded generator's columns as its trace.

    The draw loop made ``values`` (1, 2, ... on the writes, 0 on the
    reads) and ``fold`` (for the declared geometry); ``proven`` says its
    argument checks bound every row, else (a negative block) they are
    validated.
    """
    return CompiledTrace._with_fold(
        *(
            column if isinstance(column, array) else array("q", column)
            for column in (nodes, ops, blocks, offsets)
        ),
        values, n_nodes, block_size_words, fold=fold, proven=proven,
    )


def markov_block_trace(
    n_nodes: int,
    tasks: Sequence[NodeId],
    write_fraction: float,
    n_references: int,
    *,
    block: int = 0,
    block_size_words: int = 4,
    writer: NodeId | None = None,
    seed: int = 0,
) -> CompiledTrace:
    """References of ``tasks`` to one shared block, one writing task.

    Each reference is a write with probability ``write_fraction`` (issued
    by ``writer``, default the first task) and otherwise a read by a
    uniformly random task.  Offsets are uniform over the block.

    Draw order, per reference: ``randrange(block_size_words)`` (offset),
    ``random()`` (a write when below ``write_fraction``) and, for a read
    only, ``randrange(len(tasks))`` (reader).  The bounded draws are
    CPython's ``_randbelow`` inlined on ``getrandbits`` (docs/WORKLOADS.md).
    """
    _check_tasks(tasks, n_nodes)
    _check_fraction(write_fraction)
    _check_at_least(0, n_references=n_references)
    chosen_writer = tasks[0] if writer is None else writer
    if chosen_writer not in tasks:
        raise ConfigurationError(
            f"writer {chosen_writer} is not one of the tasks {list(tasks)}"
        )
    _check_at_least(1, block_size_words=block_size_words)
    rng = random.Random(seed)
    getrandbits, uniform = rng.getrandbits, rng.random
    offset_bits = block_size_words.bit_length()
    n_tasks = len(tasks)
    task_bits = n_tasks.bit_length()
    stride, row = 2 * block_size_words, 2 * block_size_words * n_nodes
    read_keys = [block * row + task * stride for task in tasks]
    write_key = block * row + chosen_writer * stride + block_size_words
    fold = _fold_column(block * row, (block + 1) * row)
    nodes, ops, offsets, values, written = [], [], [], array("q"), 0
    for _ in range(n_references):
        offset = getrandbits(offset_bits)
        while offset >= block_size_words:
            offset = getrandbits(offset_bits)
        offsets.append(offset)
        if uniform() < write_fraction:
            nodes.append(chosen_writer)
            ops.append(1)
            fold.append(write_key + offset)
            written += 1
            values.append(written)
        else:
            reader = getrandbits(task_bits)
            while reader >= n_tasks:
                reader = getrandbits(task_bits)
            nodes.append(tasks[reader])
            ops.append(0)
            fold.append(read_keys[reader] + offset)
            values.append(0)
    blocks = array("q", [block]) * n_references
    return _emit(
        nodes, ops, blocks, offsets, values, fold, block >= 0,
        n_nodes, block_size_words,
    )


def shared_structure_trace(
    n_nodes: int,
    tasks: Sequence[NodeId],
    write_fraction: float,
    n_references: int,
    *,
    n_blocks: int = 8,
    first_block: int = 0,
    block_size_words: int = 4,
    seed: int = 0,
) -> CompiledTrace:
    """References to a structure of ``n_blocks`` blocks, writers rotating.

    Block ``first_block + i`` is written (only) by ``tasks[i % len(tasks)]``
    and read by everyone -- the paper's whole-structure model, where
    ownership never needs to change once established.

    Draw order, per reference: ``randrange(n_blocks)`` (block index),
    ``randrange(block_size_words)`` (offset), ``random()`` (a write when
    below ``write_fraction``) and, for a read only,
    ``randrange(len(tasks))`` (reader) -- bounded draws inlined as in
    :func:`markov_block_trace`.
    """
    _check_tasks(tasks, n_nodes)
    _check_fraction(write_fraction)
    _check_at_least(0, n_references=n_references)
    _check_at_least(1, n_blocks=n_blocks, block_size_words=block_size_words)
    rng = random.Random(seed)
    getrandbits, uniform = rng.getrandbits, rng.random
    block_bits = n_blocks.bit_length()
    offset_bits = block_size_words.bit_length()
    n_tasks = len(tasks)
    task_bits = n_tasks.bit_length()
    stride, row = 2 * block_size_words, 2 * block_size_words * n_nodes
    read_keys = [task * stride for task in tasks]
    write_keys = [key + block_size_words for key in read_keys]
    fold = _fold_column(first_block * row, (first_block + n_blocks) * row)
    nodes, ops, blocks, offsets, values = [], [], [], [], array("q")
    written = 0
    for _ in range(n_references):
        index = getrandbits(block_bits)
        while index >= n_blocks:
            index = getrandbits(block_bits)
        block = first_block + index
        blocks.append(block)
        offset = getrandbits(offset_bits)
        while offset >= block_size_words:
            offset = getrandbits(offset_bits)
        offsets.append(offset)
        if uniform() < write_fraction:
            writer = index % n_tasks
            nodes.append(tasks[writer])
            ops.append(1)
            fold.append(block * row + write_keys[writer] + offset)
            written += 1
            values.append(written)
        else:
            reader = getrandbits(task_bits)
            while reader >= n_tasks:
                reader = getrandbits(task_bits)
            nodes.append(tasks[reader])
            ops.append(0)
            fold.append(block * row + read_keys[reader] + offset)
            values.append(0)
    return _emit(
        nodes, ops, blocks, offsets, values, fold, first_block >= 0,
        n_nodes, block_size_words,
    )
