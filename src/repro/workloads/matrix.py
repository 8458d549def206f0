"""Matrix-computation workloads (the applications §5 calls out).

"For any application where each block of its shared data structure is
modified by at most one task, ownership will not change.  This is true for
many supercomputing applications such as algorithms based on matrix
operations."

Two such kernels are generated as reference traces:

* :func:`jacobi_trace` -- iterative relaxation on a 1-D-partitioned grid:
  each task owns a band of rows, writes only its own band, and reads the
  boundary rows of its neighbours each sweep;
* :func:`matrix_multiply_trace` -- ``C = A x B`` with rows of ``C`` and
  ``A`` partitioned across tasks and ``B`` read by everyone (pure
  read-sharing of ``B``, single-writer ``C``).

The traces use a simple row-major word layout: matrix rows are padded to a
whole number of blocks so a row never straddles two tasks' write sets.
Values written are sequence numbers (the verifying simulator checks reads
against the latest write, not numerical convergence).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigurationError
from repro.sim.ctrace import CompiledTrace, CompiledTraceBuilder
from repro.types import NodeId
from repro.workloads.markov import _check_at_least


def _blocks_per_row(row_words: int, block_size_words: int) -> int:
    return (row_words + block_size_words - 1) // block_size_words


def _row_addresses(
    first_block: int, row: int, row_words: int, block_size_words: int
) -> list[tuple[int, int]]:
    """``(block, offset)`` of every word of ``row``, padded row-major."""
    base = first_block + row * _blocks_per_row(row_words, block_size_words)
    return [
        (base + word // block_size_words, word % block_size_words)
        for word in range(row_words)
    ]


def _check_banding(tasks: Sequence[NodeId], n_nodes: int, rows: int) -> None:
    """Tasks are real nodes and each gets at least one of ``rows`` rows."""
    if not tasks:
        raise ConfigurationError("need at least one task")
    if rows < len(tasks):
        raise ConfigurationError(
            f"need at least one row per task ({rows} rows, "
            f"{len(tasks)} tasks)"
        )
    for task in tasks:
        if not 0 <= task < n_nodes:
            raise ConfigurationError(f"task {task} outside 0..{n_nodes - 1}")


def jacobi_trace(
    n_nodes: int,
    tasks: Sequence[NodeId],
    *,
    rows: int = 16,
    row_words: int = 8,
    sweeps: int = 2,
    block_size_words: int = 4,
    first_block: int = 0,
) -> CompiledTrace:
    """Jacobi relaxation, rows banded across ``tasks``.

    Each sweep, every task reads its own rows plus the rows adjacent to its
    band (owned by its neighbours), then writes its own rows.  Each row has
    exactly one writing task for the whole run -- the paper's stable
    ownership case.
    """
    _check_banding(tasks, n_nodes, rows)
    _check_at_least(0, sweeps=sweeps)

    n_tasks = len(tasks)
    band = rows // n_tasks
    owner_of_row = [
        tasks[min(row // band, n_tasks - 1)] for row in range(rows)
    ]
    builder = CompiledTraceBuilder(n_nodes, block_size_words)
    next_value = 1
    for _ in range(sweeps):
        for task_index, task in enumerate(tasks):
            low = task_index * band
            high = rows if task_index == n_tasks - 1 else low + band
            read_rows = range(max(0, low - 1), min(rows, high + 1))
            for row in read_rows:
                for block, offset in _row_addresses(
                    first_block, row, row_words, block_size_words
                ):
                    builder.read(task, block, offset)
            for row in range(low, high):
                assert owner_of_row[row] == task
                for block, offset in _row_addresses(
                    first_block, row, row_words, block_size_words
                ):
                    builder.write(task, block, offset, next_value)
                    next_value += 1
    return builder.build()


def matrix_multiply_trace(
    n_nodes: int,
    tasks: Sequence[NodeId],
    *,
    size: int = 8,
    block_size_words: int = 4,
    first_block: int = 0,
) -> CompiledTrace:
    """Blocked ``C = A x B`` with ``C``/``A`` rows partitioned by task.

    ``B`` occupies the blocks after ``A`` and is only ever read -- the
    read-only sharing the software schemes of §1 would simply mark
    cacheable, and a case the protocol must also handle cheaply.
    """
    _check_banding(tasks, n_nodes, size)

    per_row = _blocks_per_row(size, block_size_words)
    a_first = first_block
    b_first = a_first + size * per_row
    c_first = b_first + size * per_row
    n_tasks = len(tasks)
    band = size // n_tasks
    b_rows = [
        _row_addresses(b_first, k, size, block_size_words)
        for k in range(size)
    ]
    builder = CompiledTraceBuilder(n_nodes, block_size_words)
    next_value = 1
    for task_index, task in enumerate(tasks):
        low = task_index * band
        high = size if task_index == n_tasks - 1 else low + band
        for i in range(low, high):
            a_row = _row_addresses(a_first, i, size, block_size_words)
            c_row = _row_addresses(c_first, i, size, block_size_words)
            for j in range(size):
                for a_word, b_row in zip(a_row, b_rows):
                    builder.read(task, *a_word)
                    builder.read(task, *b_row[j])
                builder.write(task, *c_row[j], next_value)
                next_value += 1
    return builder.build()
