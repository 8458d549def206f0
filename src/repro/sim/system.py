"""The simulated multiprocessor: processors, caches, memories, network.

One :class:`System` is the Figure 1 machine: ``N`` processors with private
caches and ``N`` interleaved memory modules on the two sides of an
``N x N`` omega network.  The system owns all components and their traffic
counters; a coherence protocol (see :mod:`repro.protocol`) drives them.

Construction is deliberately all-in-one-config so experiments are
reproducible from a single frozen value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.cache.cache import Cache
from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.memory.module import MemoryModule
from repro.network.multicast import Multicaster, MulticastScheme
from repro.network.topology import OmegaNetwork
from repro.protocol.messages import MessageCosts
from repro.types import Address, BlockId, NodeId, is_power_of_two

if TYPE_CHECKING:
    from repro.network.selector import BreakEvenRegisters


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build a :class:`System`.

    Parameters mirror the paper's: ``n_nodes`` is the cache count ``N``
    (a power of two, >= 2); ``block_size_words`` the block size; the cache
    geometry and replacement policy shape the replacement traffic of §2.2
    item 5; ``costs`` sets message payload sizes; ``multicast_scheme``
    selects among the §3 schemes for every one-to-many protocol action --
    a fixed :class:`~repro.network.multicast.MulticastScheme`, or §5's
    :class:`~repro.network.selector.BreakEvenRegisters`, which choose one
    per destination count.
    """

    n_nodes: int
    block_size_words: int = 4
    cache_entries: int = 16
    associativity: int | None = None
    replacement: str = "lru"
    costs: MessageCosts = field(default_factory=MessageCosts)
    multicast_scheme: MulticastScheme | BreakEvenRegisters = (
        MulticastScheme.COMBINED
    )
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_nodes < 2 or not is_power_of_two(self.n_nodes):
            raise ConfigurationError(
                f"n_nodes must be a power of two >= 2, got {self.n_nodes}"
            )
        if self.block_size_words <= 0:
            raise ConfigurationError(
                f"block_size_words must be positive, "
                f"got {self.block_size_words}"
            )
        if self.cache_entries <= 0:
            raise ConfigurationError(
                f"cache_entries must be positive, got {self.cache_entries}"
            )

    def with_scheme(
        self, scheme: MulticastScheme | BreakEvenRegisters
    ) -> SystemConfig:
        """This config with a different multicast scheme (for ablations)."""
        return replace(self, multicast_scheme=scheme)


class System:
    """A fully built multiprocessor ready for a protocol to drive.

    ``fault_plan`` optionally subjects the network to a
    :class:`~repro.faults.plan.FaultPlan`: a non-empty plan builds a
    :class:`~repro.faults.injector.FaultInjector` and attaches it to both
    the system and the network before the multicaster is created.  An
    empty (or absent) plan builds nothing -- ``fault_injector`` stays
    ``None`` and the system is bit-identical to one constructed without
    the parameter.
    """

    def __init__(
        self,
        config: SystemConfig,
        *,
        fault_plan=None,
    ) -> None:
        self.config = config
        self.network = OmegaNetwork(config.n_nodes)
        self.fault_injector = None
        if fault_plan is not None and not fault_plan.is_empty:
            self.fault_injector = FaultInjector(self.network, fault_plan)
            self.network.fault_injector = self.fault_injector
        self.multicaster = Multicaster(self.network, config.multicast_scheme)
        self.caches: list[Cache] = [
            Cache(
                node,
                config.cache_entries,
                config.block_size_words,
                associativity=config.associativity,
                policy=config.replacement,
                seed=config.seed + node,
            )
            for node in range(config.n_nodes)
        ]
        self.memories: list[MemoryModule] = [
            MemoryModule(node, config.n_nodes, config.block_size_words)
            for node in range(config.n_nodes)
        ]

    # ------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.config.n_nodes

    @property
    def costs(self) -> MessageCosts:
        return self.config.costs

    def home(self, block: BlockId) -> NodeId:
        """The memory module (and its port) block ``block`` is homed at."""
        return block % self.config.n_nodes

    def memory_for(self, block: BlockId) -> MemoryModule:
        """The home module of ``block``."""
        return self.memories[self.home(block)]

    def check_address(self, address: Address) -> None:
        """Validate an address against the block geometry."""
        if address.block < 0:
            raise ConfigurationError(f"negative block id {address.block}")
        if not 0 <= address.offset < self.config.block_size_words:
            raise ConfigurationError(
                f"offset {address.offset} outside block of "
                f"{self.config.block_size_words} words"
            )

    def reset_traffic(self) -> None:
        """Zero the network counters (protocol stats are separate)."""
        self.network.reset_traffic()

    def route_plan_stats(self) -> dict[str, int | float] | None:
        """The network's route-plan cache statistics (hits, misses, size).

        Returns ``None`` when plan memoisation is disabled
        (``network.route_plans = None``, the cold reference path).
        """
        cache = self.network.route_plans
        if cache is None:
            return None
        return cache.stats()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"System({self.config!r})"
