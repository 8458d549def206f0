"""Lock-based critical-section workloads.

The §5 caveat -- "for applications where several tasks can modify a block,
or when tasks can migrate, ownership will change which increases the
network traffic" -- is most acute for synchronisation variables.  This
module generates the classic pattern: tasks contend for a spinlock word,
then read-modify-write shared data inside the critical section.

The simulator has no atomic read-modify-write; a lock acquisition is
modelled as the canonical test-and-test-and-set *reference pattern*
(spin-reads of the lock word followed by the winning write), which is what
a trace-driven coherence study sees of it.  Fairness is round-robin so the
trace is deterministic.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigurationError
from repro.sim.ctrace import CompiledTrace, CompiledTraceBuilder
from repro.sim.trace import Trace
from repro.types import NodeId
from repro.workloads.markov import _check_at_least, _check_tasks


def spinlock_trace(
    n_nodes: int,
    tasks: Sequence[NodeId],
    n_acquisitions: int,
    *,
    lock_block: int = 0,
    data_block: int = 1,
    spin_reads: int = 2,
    data_words: int = 2,
    block_size_words: int = 4,
    compiled: bool = False,
) -> Trace | CompiledTrace:
    """``n_acquisitions`` critical sections, round-robin over ``tasks``.

    Per acquisition by task ``t``:

    1. ``spin_reads`` reads of the lock word by *every* contending task
       (the test-and-test-and-set spin -- everyone watches the lock);
    2. ``t`` writes the lock word (acquires);
    3. ``t`` reads then writes ``data_words`` words of the shared data
       block (the critical section);
    4. ``t`` writes the lock word again (releases).
    """
    _check_tasks(tasks, n_nodes)
    _check_at_least(0, n_acquisitions=n_acquisitions, spin_reads=spin_reads)
    if not 0 < data_words <= block_size_words:
        raise ConfigurationError(
            f"data_words must be in 1..{block_size_words}, "
            f"got {data_words}"
        )
    if lock_block == data_block:
        raise ConfigurationError(
            "lock and data must live in different blocks"
        )
    builder = CompiledTraceBuilder(n_nodes, block_size_words)
    next_value = 1
    for acquisition in range(n_acquisitions):
        holder = tasks[acquisition % len(tasks)]
        for _ in range(spin_reads):
            for task in tasks:
                builder.read(task, lock_block, 0)
        builder.write(holder, lock_block, 0, next_value)
        next_value += 1
        for word in range(data_words):
            builder.read(holder, data_block, word)
            builder.write(holder, data_block, word, next_value)
            next_value += 1
        builder.write(holder, lock_block, 0, next_value)
        next_value += 1
    columns = builder.build()
    return columns if compiled else columns.to_trace()
