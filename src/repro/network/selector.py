"""The §5 hardware scheme selector: break-even registers.

The combined scheme of eq. 8 needs to know which of schemes 1, 2 and 3 is
cheapest for the current destination count.  Probing all three per message
(what :func:`~repro.network.multicast.multicast_combined` does) is the
oracle; §5 sketches the hardware realisation:

    "It should be possible for the compiler to determine both the message
    size and the maximum number of tasks and consequently break-even.
    Break-even for a whole data structure could be stored in some
    registers.  Hardware mechanisms could then use the contents of these
    registers together with the number of present flag bits that are set
    to determine which of the schemes to use."

:class:`BreakEvenRegisters` is that mechanism: two thresholds computed
once per data structure (from ``N``, ``n1`` and ``M``), consulted at send
time with nothing but a popcount of the present-flag vector.  It is a
scheme choice like any :class:`~repro.network.multicast.MulticastScheme`:
both answer ``choose(n_destinations)``, so a system selects by registers
through ``SystemConfig(multicast_scheme=registers)`` and its one
:class:`~repro.network.multicast.Multicaster` and the network's ledger
resolve every destination set with that call.  The ablation benchmark
measures how close this O(1) decision gets to the probing oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.network import cost
from repro.network.multicast import MulticastScheme
from repro.types import is_power_of_two


@dataclass(frozen=True)
class BreakEvenRegisters:
    """The two per-data-structure registers of §5.

    ``scheme2_threshold`` -- smallest destination count at which scheme 2
    beats scheme 1; ``scheme3_threshold`` -- smallest count at which
    scheme 3 (addressing the whole ``n1`` partition) beats scheme 2.
    Either may exceed ``n_partition``, meaning the later scheme never
    wins for this structure.
    """

    network_size: int
    n_partition: int
    message_bits: int
    scheme2_threshold: int
    scheme3_threshold: int

    def choose(self, n_destinations: int) -> MulticastScheme:
        """O(1) scheme choice from a present-flag popcount."""
        if n_destinations < 1:
            raise ConfigurationError(
                f"need at least one destination, got {n_destinations}"
            )
        if n_destinations >= self.scheme3_threshold:
            return MulticastScheme.BROADCAST_TAG
        if n_destinations >= self.scheme2_threshold:
            return MulticastScheme.VECTOR
        return MulticastScheme.UNICAST


def compile_registers(
    network_size: int, n_partition: int, message_bits: int
) -> BreakEvenRegisters:
    """What the §5 compiler does: precompute the two break-even registers.

    Thresholds are computed from the closed forms at power-of-two
    destination counts (the costs are compared through eq. 2, eq. 6 and
    eq. 5 -- destinations are assumed to lie in the ``n1`` partition).
    """
    if not is_power_of_two(network_size) or network_size < 4:
        raise ConfigurationError(
            f"network size must be a power of two >= 4, got {network_size}"
        )
    if not is_power_of_two(n_partition) or n_partition > network_size:
        raise ConfigurationError(
            f"n_partition must be a power of two <= N, got {n_partition}"
        )
    if message_bits < 0:
        raise ConfigurationError(
            f"message size must be non-negative, got {message_bits}"
        )

    never = n_partition + 1  # sentinel: the scheme never takes over

    scheme2 = never
    n = 1
    while n <= n_partition:
        if cost.cc2_prime(
            n, n_partition, network_size, message_bits
        ) < cost.cc1(n, network_size, message_bits):
            scheme2 = n
            break
        n *= 2

    scheme3 = never
    n = 1
    while n <= n_partition:
        in_front = min(
            cost.cc1(n, network_size, message_bits),
            cost.cc2_prime(n, n_partition, network_size, message_bits),
        )
        if cost.cc3(n_partition, network_size, message_bits) < in_front:
            scheme3 = n
            break
        n *= 2

    return BreakEvenRegisters(
        network_size=network_size,
        n_partition=n_partition,
        message_bits=message_bits,
        scheme2_threshold=scheme2,
        scheme3_threshold=max(scheme3, scheme2),
    )


def register_table(
    network_size: int,
    partitions: tuple[int, ...] = (16, 64, 128),
    message_sizes: tuple[int, ...] = (0, 20, 60),
) -> list[tuple[int, int, int, int]]:
    """Rows ``(n1, M, scheme2_threshold, scheme3_threshold)``.

    The per-data-structure register file a §5 compiler would emit; the
    ``log2`` of each threshold is what the hardware actually stores
    (``2 log2 n1`` bits per structure).
    """
    rows = []
    for n_partition in partitions:
        for message_bits in message_sizes:
            registers = compile_registers(
                network_size, n_partition, message_bits
            )
            rows.append(
                (
                    n_partition,
                    message_bits,
                    registers.scheme2_threshold,
                    registers.scheme3_threshold,
                )
            )
    return rows
