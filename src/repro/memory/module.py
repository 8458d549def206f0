"""Interleaved memory modules.

The multiprocessor of Figure 1 attaches one memory module per network port;
blocks are interleaved across modules (block ``b`` is *homed* at module
``b mod N``).  A module stores the data words of its blocks and the
:class:`~repro.memory.block_store.BlockStore` used by the coherence
protocols.

The directory-style baseline protocols need more memory-side state than the
block store (a full presence vector per block); they keep it themselves --
the module only offers generic per-block metadata storage so the substrate
stays protocol-neutral.
"""

from __future__ import annotations

from repro.errors import ConfigurationError, ProtocolError
from repro.memory.block_store import BlockStore
from repro.types import BlockId, NodeId


class MemoryModule:
    """One memory module: data words plus the block store.

    Data blocks are materialised lazily and initialised to zero, matching
    the simulator-wide convention that uninitialised memory reads as 0.
    """

    def __init__(
        self, module_id: NodeId, n_modules: int, block_size_words: int
    ) -> None:
        if block_size_words <= 0:
            raise ConfigurationError(
                f"block size must be positive, got {block_size_words}"
            )
        if not 0 <= module_id < n_modules:
            raise ConfigurationError(
                f"module id {module_id} outside 0..{n_modules - 1}"
            )
        self.module_id = module_id
        self.n_modules = n_modules
        self.block_size_words = block_size_words
        self.block_store = BlockStore()
        self._data: dict[BlockId, list[int]] = {}

    def homes(self, block: BlockId) -> bool:
        """Whether ``block`` is interleaved onto this module."""
        return block % self.n_modules == self.module_id

    def _check_home(self, block: BlockId) -> None:
        if not self.homes(block):
            raise ProtocolError(
                f"block {block} is homed at module "
                f"{block % self.n_modules}, not {self.module_id}"
            )

    def read_block(self, block: BlockId) -> list[int]:
        """A copy of the data words of ``block`` (zeros if never written)."""
        self._check_home(block)
        return self._read_block(block)

    def _read_block(self, block: BlockId) -> list[int]:
        """:meth:`read_block` for a caller that found the home itself."""
        data = self._data.get(block)
        if data is None:
            return [0] * self.block_size_words
        return list(data)

    def write_block(self, block: BlockId, words: list[int]) -> None:
        """Store a full block of data (a write-back)."""
        self._check_home(block)
        if len(words) != self.block_size_words:
            raise ProtocolError(
                f"write-back of {len(words)} words to block {block}; "
                f"expected {self.block_size_words}"
            )
        self._data[block] = list(words)

    def read_word(self, block: BlockId, offset: int) -> int:
        """One data word (used by the uncached baseline)."""
        self._check_home(block)
        if not 0 <= offset < self.block_size_words:
            raise ProtocolError(
                f"offset {offset} outside block of "
                f"{self.block_size_words} words"
            )
        data = self._data.get(block)
        return 0 if data is None else data[offset]

    def write_word(self, block: BlockId, offset: int, value: int) -> None:
        """Update one data word (used by write-through baselines)."""
        self._check_home(block)
        if not 0 <= offset < self.block_size_words:
            raise ProtocolError(
                f"offset {offset} outside block of "
                f"{self.block_size_words} words"
            )
        data = self._data.setdefault(block, [0] * self.block_size_words)
        data[offset] = value
