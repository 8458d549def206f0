"""Break-even analysis between the multicast schemes.

The paper proves three qualitative facts from eq. 4 (and three more from
eq. 7) and tabulates break-even points.  This module computes those points
from the cost functions of :mod:`repro.network.cost`:

* :func:`breakeven_scheme2_vs_scheme1` -- the ``n`` above which the
  present-flag-vector scheme beats repeated unicast (Table 2);
* :func:`breakeven_scheme3_vs_scheme2` -- the ``n`` above which broadcast-bit
  subcube routing beats vector routing within a partition.

The tables themselves (Table 2's break-even grid, and Tables 3 and 4's
cheapest scheme per cell from :func:`~repro.network.cost.cheapest_scheme`)
are built by :mod:`repro.analysis.figures` (``table2_data``,
``table3_data``, ``table4_data``).

Two notions of break-even are reported because the paper restricts ``n`` to
powers of two while its proofs treat ``n`` as continuous:

* ``first_winning_n`` -- the smallest power-of-two ``n`` at which the second
  scheme is strictly cheaper (what a hardware mode selector would use);
* ``crossover`` -- the real-valued ``n`` where the two closed forms are
  equal, found by bisection on the formulas with ``log2 n`` real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError
from repro.network import cost
from repro.types import ilog2, is_power_of_two


@dataclass(frozen=True)
class BreakEven:
    """Break-even between two schemes for one parameter setting.

    ``first_winning_n`` is ``None`` when the challenger never wins at any
    power-of-two ``n`` in range; ``crossover`` is ``None`` when the cost
    difference never changes sign over the continuous range ``[1, limit]``.
    """

    network_size: int
    message_bits: int
    first_winning_n: int | None
    crossover: float | None


def _first_winning_power(
    challenger: Callable[[int], int],
    incumbent: Callable[[int], int],
    limit: int,
) -> int | None:
    """Smallest power-of-two ``n <= limit`` where challenger < incumbent."""
    n = 1
    while n <= limit:
        if challenger(n) < incumbent(n):
            return n
        n *= 2
    return None


def _crossover(
    difference: Callable[[float], float], limit: float
) -> float | None:
    """Real ``n`` in ``[1, limit]`` where ``difference`` changes sign."""
    lo, f_lo = 1.0, difference(1.0)
    if f_lo == 0.0:
        return lo
    # Bracket the sign change by scanning octaves, then bisect.
    hi = 2.0
    while hi <= limit:
        f_hi = difference(hi)
        if f_lo * f_hi <= 0.0:
            break
        lo, f_lo = hi, f_hi
        hi *= 2.0
    else:
        return None
    hi = min(hi, limit)
    for _ in range(80):
        mid = (lo + hi) / 2.0
        f_mid = difference(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return (lo + hi) / 2.0


# ----------------------------------------------------------------------
# Real-valued extensions of the closed forms (n continuous)
# ----------------------------------------------------------------------


def cc1_real(n: float, network_size: int, message_bits: int) -> float:
    """Eq. 2 with ``n`` real."""
    m = ilog2(network_size)
    return n * (m + 1) * (2 * message_bits + m) / 2.0


def cc2_worst_real(n: float, network_size: int, message_bits: int) -> float:
    """Eq. 3 with ``n`` (hence ``log n``) real."""
    m = ilog2(network_size)
    k = math.log2(n)
    big_m = message_bits
    return (
        n * (big_m * m - big_m * k + 2 * big_m - 1)
        + network_size * (k + 2)
        - big_m
    )


def cc2_prime_real(
    n: float, n1: int, network_size: int, message_bits: int
) -> float:
    """Eq. 6 with ``n`` real."""
    m = ilog2(network_size)
    l = ilog2(n1)
    k = math.log2(n)
    big_m = message_bits
    return (
        n * (big_m * l - big_m * k + 2 * big_m - 1)
        + n1 * k
        + big_m * (m - l - 1)
        + 2 * network_size
    )


# ----------------------------------------------------------------------
# Break-even points
# ----------------------------------------------------------------------


def breakeven_scheme2_vs_scheme1(
    network_size: int, message_bits: int
) -> BreakEven:
    """Where scheme 2 (worst case) starts beating scheme 1 (Table 2)."""
    if not is_power_of_two(network_size) or network_size < 4:
        raise ConfigurationError(
            f"Table 2 analysis needs N a power of two >= 4, "
            f"got {network_size}"
        )
    first = _first_winning_power(
        lambda n: cost.cc2_worst(n, network_size, message_bits),
        lambda n: cost.cc1(n, network_size, message_bits),
        network_size,
    )
    crossover = _crossover(
        lambda n: cc2_worst_real(n, network_size, message_bits)
        - cc1_real(n, network_size, message_bits),
        float(network_size),
    )
    return BreakEven(network_size, message_bits, first, crossover)


def breakeven_scheme3_vs_scheme2(
    n1: int, network_size: int, message_bits: int
) -> BreakEven:
    """Where scheme 3 starts beating scheme 2' within an ``n1`` block."""
    first = _first_winning_power(
        lambda n: cost.cc3(n1, network_size, message_bits),
        lambda n: cost.cc2_prime(n, n1, network_size, message_bits),
        n1,
    )
    crossover = _crossover(
        lambda n: cost.cc3(n1, network_size, message_bits)
        - cc2_prime_real(n, n1, network_size, message_bits),
        float(n1),
    )
    return BreakEven(network_size, message_bits, first, crossover)
