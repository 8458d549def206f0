"""Every generator's pinned cases, edge sizes included.

Plain data (no test framework imports), so a module that only needs the
cases -- ``test_emission.py`` runs in CI's pytest-only job -- does not
pull in hypothesis with ``test_draw_exact.py``.
"""

from repro.workloads import (
    jacobi_trace,
    markov_block_trace,
    matrix_multiply_trace,
    migratory_trace,
    ping_pong_trace,
    producer_consumer_trace,
    random_trace,
    shared_structure_trace,
    spinlock_trace,
)

_MARKOV = dict(tasks=[0, 3, 5, 9, 12], write_fraction=0.3, n_references=500)
_RANDOM = dict(n_blocks=6, write_fraction=0.3, locality=0.5)

#: case id -> (generator, positional args, keyword args)
CASES = {
    "markov-seed7": (markov_block_trace, (16,), dict(_MARKOV, seed=7)),
    "markov-seed1989": (markov_block_trace, (16,), dict(_MARKOV, seed=1989)),
    "markov-odd-geometry": (
        markov_block_trace, (16,),
        dict(_MARKOV, block=5, block_size_words=3, writer=5, seed=7),
    ),
    "markov-n0": (markov_block_trace, (16,), dict(_MARKOV, n_references=0)),
    "markov-n1": (
        markov_block_trace, (16,), dict(_MARKOV, n_references=1, seed=7),
    ),
    "markov-one-task": (
        markov_block_trace, (16,), dict(_MARKOV, tasks=[9], seed=7),
    ),
    "markov-w0": (
        markov_block_trace, (16,), dict(_MARKOV, write_fraction=0.0, seed=7),
    ),
    "markov-w1": (
        markov_block_trace, (16,), dict(_MARKOV, write_fraction=1.0, seed=7),
    ),
    "markov-one-word": (
        markov_block_trace, (16,), dict(_MARKOV, block_size_words=1, seed=7),
    ),
    "shared-seed7": (
        shared_structure_trace, (16,), dict(_MARKOV, n_blocks=6, seed=7),
    ),
    "shared-seed1989": (
        shared_structure_trace, (16,),
        dict(_MARKOV, n_blocks=7, first_block=10, seed=1989),
    ),
    "shared-n0": (
        shared_structure_trace, (16,), dict(_MARKOV, n_references=0),
    ),
    "shared-n1": (
        shared_structure_trace, (16,), dict(_MARKOV, n_references=1, seed=7),
    ),
    "shared-one-task-one-block": (
        shared_structure_trace, (16,),
        dict(_MARKOV, tasks=[4], n_blocks=1, seed=7),
    ),
    "shared-w0": (
        shared_structure_trace, (16,),
        dict(_MARKOV, write_fraction=0.0, seed=7),
    ),
    "shared-w1": (
        shared_structure_trace, (16,),
        dict(_MARKOV, write_fraction=1.0, seed=7),
    ),
    "random-seed7": (random_trace, (16, 500), dict(_RANDOM, seed=7)),
    "random-seed1989": (
        random_trace, (16, 500),
        dict(_RANDOM, nodes=[1, 2, 11], block_size_words=3, seed=1989),
    ),
    "random-n0": (random_trace, (16, 0), dict(_RANDOM)),
    "random-n1": (random_trace, (16, 1), dict(_RANDOM, seed=7)),
    "random-one-node-one-block": (
        random_trace, (16, 500), dict(_RANDOM, nodes=[3], n_blocks=1, seed=7),
    ),
    "random-w0": (
        random_trace, (16, 500), dict(_RANDOM, write_fraction=0.0, seed=7),
    ),
    "random-w1": (
        random_trace, (16, 500), dict(_RANDOM, write_fraction=1.0, seed=7),
    ),
    "random-no-locality": (
        random_trace, (16, 500), dict(_RANDOM, locality=0.0, seed=7),
    ),
    "random-full-locality": (
        random_trace, (16, 500), dict(_RANDOM, locality=1.0, seed=7),
    ),
    "producer-consumer": (
        producer_consumer_trace, (8, 1, [2, 3, 6], 5), dict(block=2),
    ),
    "producer-consumer-n0": (producer_consumer_trace, (8, 1, [2], 0), {}),
    "producer-consumer-no-consumers": (
        producer_consumer_trace, (8, 1, [], 1), dict(block_size_words=1),
    ),
    "migratory": (migratory_trace, (8, [0, 4, 7], 6), dict(block=3)),
    "migratory-n0": (migratory_trace, (8, [0, 4], 0), {}),
    "migratory-one-task": (migratory_trace, (8, [5], 1), {}),
    "ping-pong": (ping_pong_trace, (8, 2, 6, 7), dict(block=1)),
    "ping-pong-n0": (ping_pong_trace, (8, 2, 6, 0), {}),
    "spinlock": (
        spinlock_trace, (8, [0, 3, 5], 7),
        dict(lock_block=2, data_block=4, spin_reads=3, data_words=3),
    ),
    "spinlock-n0": (spinlock_trace, (8, [0, 3], 0), {}),
    "spinlock-one-task-no-spin": (
        spinlock_trace, (8, [6], 1), dict(spin_reads=0, data_words=1),
    ),
    "jacobi": (
        jacobi_trace, (8, [0, 2, 5]),
        dict(rows=7, row_words=6, sweeps=2, first_block=3),
    ),
    "jacobi-no-sweeps": (jacobi_trace, (8, [0, 2]), dict(sweeps=0)),
    "jacobi-one-task": (
        jacobi_trace, (8, [4]), dict(rows=1, row_words=1, sweeps=1),
    ),
    "matrix-multiply": (
        matrix_multiply_trace, (8, [1, 4, 6]),
        dict(size=5, block_size_words=2, first_block=1),
    ),
    "matrix-multiply-one-task": (
        matrix_multiply_trace, (8, [7]), dict(size=1),
    ),
}
