"""Fully parameterised random traces for stress and property testing.

:func:`random_trace` draws every dimension -- which node references, which
block, read or write, with what temporal locality -- from a seeded RNG, so
the property-based tests can explore protocol state space far beyond the
structured workloads while staying reproducible.
"""

from __future__ import annotations

import random
from array import array
from typing import Sequence

from repro.errors import ConfigurationError
from repro.sim.ctrace import CompiledTrace
from repro.types import NodeId
from repro.workloads.markov import (
    _check_at_least,
    _check_fraction,
    _emit,
    _fold_column,
)


def random_trace(
    n_nodes: int,
    n_references: int,
    *,
    n_blocks: int = 8,
    block_size_words: int = 4,
    write_fraction: float = 0.3,
    locality: float = 0.5,
    nodes: Sequence[NodeId] | None = None,
    seed: int = 0,
) -> CompiledTrace:
    """A seeded random reference stream.

    ``locality`` is the probability that a reference repeats the issuing
    node's previous block (temporal locality knob); otherwise a block is
    drawn uniformly.  Any node may write any block -- deliberately harsher
    than the paper's single-writer model, to exercise ownership transfer.

    Draw order, per reference: ``randrange(len(nodes))`` (issuing node);
    ``random()`` (repeat the node's previous block when below
    ``locality``) only if the node has one, and ``randrange(n_blocks)``
    when it does not repeat; ``randrange(block_size_words)`` (offset);
    ``random()`` (a write when below ``write_fraction``).  Bounded draws
    are inlined as in :func:`~repro.workloads.markov.markov_block_trace`.
    """
    _check_at_least(0, n_references=n_references)
    _check_at_least(1, n_blocks=n_blocks, block_size_words=block_size_words)
    _check_fraction(write_fraction)
    _check_fraction(locality, "locality")
    chosen_nodes = list(range(n_nodes)) if nodes is None else list(nodes)
    for node in chosen_nodes:
        if not 0 <= node < n_nodes:
            raise ConfigurationError(f"node {node} outside 0..{n_nodes - 1}")
    if not chosen_nodes:
        raise ConfigurationError("need at least one referencing node")

    rng = random.Random(seed)
    getrandbits, uniform = rng.getrandbits, rng.random
    n_chosen = len(chosen_nodes)
    node_bits = n_chosen.bit_length()
    block_bits = n_blocks.bit_length()
    offset_bits = block_size_words.bit_length()
    stride = 2 * block_size_words
    fold = _fold_column(0, n_blocks * n_nodes * stride)
    last_block: dict[NodeId, int] = {}
    nodes, ops, blocks, offsets, values = [], [], [], [], array("q")
    written = 0
    for _ in range(n_references):
        pick = getrandbits(node_bits)
        while pick >= n_chosen:
            pick = getrandbits(node_bits)
        node = chosen_nodes[pick]
        if node in last_block and uniform() < locality:
            block = last_block[node]
        else:
            block = getrandbits(block_bits)
            while block >= n_blocks:
                block = getrandbits(block_bits)
            last_block[node] = block
        offset = getrandbits(offset_bits)
        while offset >= block_size_words:
            offset = getrandbits(offset_bits)
        nodes.append(node)
        blocks.append(block)
        offsets.append(offset)
        key = (block * n_nodes + node) * stride + offset
        if uniform() < write_fraction:
            ops.append(1)
            fold.append(key + block_size_words)
            written += 1
            values.append(written)
        else:
            ops.append(0)
            fold.append(key)
            values.append(0)
    return _emit(
        nodes, ops, blocks, offsets, values, fold, True,
        n_nodes, block_size_words,
    )
