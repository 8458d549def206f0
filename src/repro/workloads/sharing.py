"""Classic sharing patterns that stress specific protocol paths.

* :func:`producer_consumer_trace` -- one writer, many readers, phase by
  phase: the distributed-write mode's best case;
* :func:`migratory_trace` -- a block read-modify-written by each task in
  turn: maximal ownership transfer (the §5 caveat: "for applications where
  several tasks can modify a block ... ownership will change which
  increases the network traffic");
* :func:`ping_pong_trace` -- two tasks alternately writing one block, the
  degenerate migratory case.

Every generator accepts ``compiled=True`` to emit a columnar
:class:`~repro.sim.ctrace.CompiledTrace` (identical stream, no
``Reference`` objects).
"""

from __future__ import annotations

from typing import Sequence

from repro.sim.ctrace import CompiledTrace, CompiledTraceBuilder
from repro.sim.trace import Trace
from repro.types import NodeId
from repro.workloads.markov import _check_at_least, _check_tasks


def producer_consumer_trace(
    n_nodes: int,
    producer: NodeId,
    consumers: Sequence[NodeId],
    n_rounds: int,
    *,
    block: int = 0,
    block_size_words: int = 4,
    compiled: bool = False,
) -> Trace | CompiledTrace:
    """``n_rounds`` of: producer writes every word, consumers read them."""
    _check_tasks([producer, *consumers], n_nodes)
    _check_at_least(0, n_rounds=n_rounds)
    builder = CompiledTraceBuilder(n_nodes, block_size_words)
    next_value = 1
    for _ in range(n_rounds):
        for offset in range(block_size_words):
            builder.write(producer, block, offset, next_value)
            next_value += 1
        for consumer in consumers:
            for offset in range(block_size_words):
                builder.read(consumer, block, offset)
    columns = builder.build()
    return columns if compiled else columns.to_trace()


def migratory_trace(
    n_nodes: int,
    tasks: Sequence[NodeId],
    n_rounds: int,
    *,
    block: int = 0,
    block_size_words: int = 4,
    compiled: bool = False,
) -> Trace | CompiledTrace:
    """Each task in turn reads then updates the block (lock-like sharing)."""
    _check_tasks(tasks, n_nodes)
    _check_at_least(0, n_rounds=n_rounds)
    builder = CompiledTraceBuilder(n_nodes, block_size_words)
    next_value = 1
    for _ in range(n_rounds):
        for task in tasks:
            builder.read(task, block, 0)
            builder.write(task, block, 0, next_value)
            next_value += 1
    columns = builder.build()
    return columns if compiled else columns.to_trace()


def ping_pong_trace(
    n_nodes: int,
    first: NodeId,
    second: NodeId,
    n_rounds: int,
    *,
    block: int = 0,
    block_size_words: int = 4,
    compiled: bool = False,
) -> Trace | CompiledTrace:
    """Two tasks alternately writing (and reading back) one word."""
    _check_tasks([first, second], n_nodes)
    _check_at_least(0, n_rounds=n_rounds)
    builder = CompiledTraceBuilder(n_nodes, block_size_words)
    next_value = 1
    for _ in range(n_rounds):
        for task in (first, second):
            builder.write(task, block, 0, next_value)
            builder.read(task, block, 0)
            next_value += 1
    columns = builder.build()
    return columns if compiled else columns.to_trace()
