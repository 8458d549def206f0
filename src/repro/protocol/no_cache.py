"""The uncached baseline of eq. 9: every reference crosses the network.

"In case the block is stored at memory, the mean communication cost for
each reference to this block is ``CC_NC = (1 - w) 2 CC1 + w CC1``" -- a
read is a request plus a word reply (two traversals), a write is a single
word message (one traversal, the §4 simplification that a read costs twice
a write).
"""

from __future__ import annotations

from repro.protocol.base import CoherenceProtocol
from repro.protocol.messages import MsgKind
from repro.sim import stats as ev
from repro.types import Address, NodeId


class NoCacheProtocol(CoherenceProtocol):
    """Shared memory without caches: all data lives at the home modules."""

    name = "no-cache"

    def read(self, node: NodeId, address: Address) -> int:
        self.system.check_address(address)
        self.stats.count(ev.READS)
        block, offset = address
        home = self.home(block)
        self._send(MsgKind.MEM_READ, node, home, self._cost_request)
        self._send(MsgKind.WORD_REPLY, home, node, self._cost_word)
        return self.system.memory_for(block).read_word(block, offset)

    def write(self, node: NodeId, address: Address, value: int) -> None:
        self.system.check_address(address)
        self.stats.count(ev.WRITES)
        self.stats.count(ev.REMOTE_WORD_WRITES)
        block, offset = address
        home = self.home(block)
        self._send(MsgKind.MEM_WRITE, node, home, self._cost_word)
        self.system.memory_for(block).write_word(block, offset, value)
