"""Per-block operating-mode selection (§4 threshold, §5 adaptive sketch).

The paper's two modes trade read traffic against write traffic:

* distributed-write costs ``w * CC4(n)`` per reference (eq. 11);
* global-read costs ``(1 - w) * 2 * CC1`` per reference (eq. 12).

With scheme-1 multicast the curves cross at ``w1 = 2 / (n + 2)`` (§4):
below the threshold, writes are rare enough that updating ``n`` copies is
cheaper than making every remote read cross the network twice.

§5 sketches a hardware selector: "one counter counts all memory references
to a block, and the other all reads to this block in global read mode."
Two selectors are provided:

* :class:`OracleModePolicy` observes *every* reference (an idealised
  selector that knows the true write fraction) -- an upper bound on what
  mode selection can achieve;
* :class:`AdaptiveModePolicy` observes only what the owner's hardware
  counters can see, per the §5 sketch.  In global-read mode every
  reference reaches the owner, so the write fraction is measured exactly;
  in distributed-write mode remote read hits are invisible, so the policy
  measures the write fraction over owner-visible references only -- an
  overestimate of ``w`` that biases the selector toward global read.  The
  documentation of this bias (and the benchmark comparing the two
  policies) is an extension beyond the paper.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from itertools import compress

from repro.cache.state import Mode
from repro.errors import ConfigurationError
from repro.types import BlockId, Op

# Bound once: on Python 3.11 every ``Mode.X`` / ``Op.X`` read is an
# ``EnumType.__getattr__`` call (≈ 0.1 µs; a module global ≈ 0.01 µs).
DISTRIBUTED_WRITE = Mode.DISTRIBUTED_WRITE
GLOBAL_READ = Mode.GLOBAL_READ
WRITE = Op.WRITE


def write_fraction_threshold(n_sharers: int) -> float:
    """The §4 threshold ``w1 = 2 / (n + 2)``.

    Distributed write is the cheaper mode while the write fraction ``w``
    satisfies ``w <= w1`` (with scheme-1 multicast costs).
    """
    if n_sharers < 0:
        raise ConfigurationError(
            f"sharer count must be non-negative, got {n_sharers}"
        )
    return 2.0 / (n_sharers + 2)


@dataclass
class _BlockCounters:
    """The two §5 counters plus a write tally for the DW-mode estimate."""

    references: int = 0
    gr_reads: int = 0
    writes: int = 0

    def reset(self) -> None:
        self.references = 0
        self.gr_reads = 0
        self.writes = 0


class ModePolicy(abc.ABC):
    """Decides the operating mode of each block.

    The protocol calls :meth:`observe` for every reference (flagging
    whether the owner's hardware could see it) and :meth:`decide` after the
    reference completes; a non-``None`` return asks the owner to switch the
    block to that mode.

    The batched kernel (docs/PERF.md) consults a policy once per *run* of
    hits on one block instead: :meth:`fold` says how many of the run's
    references pass before a switch, :meth:`commit` then observes that
    many in one step.  The defaults fold nothing, which sends every
    reference down the per-reference path -- always correct, never batched.
    """

    @abc.abstractmethod
    def observe(
        self,
        block: BlockId,
        op: Op,
        *,
        owner_visible: bool,
        mode: Mode,
        n_sharers: int,
    ) -> None:
        """Record one reference to ``block``."""

    @abc.abstractmethod
    def decide(
        self, block: BlockId, mode: Mode, n_sharers: int
    ) -> Mode | None:
        """The mode ``block`` should run in, or ``None`` to keep ``mode``."""

    def fold(
        self, block: BlockId, ops, visible, mode: Mode, n_sharers: int
    ) -> int:
        """How many leading references pass before ``decide`` would switch.

        ``ops`` is the 0/1 (read/write) sequence of consecutive references
        to ``block``, all made under ``(mode, n_sharers)``; ``visible``
        their owner-visibility flags (any iterable, read at most once), or
        ``None`` when the owner sees them all.  Pure: the answer is the
        index of the first reference after which an ``observe``/``decide``
        loop returns another mode, ``len(ops)`` when none does.
        """
        return 0

    def commit(
        self, block: BlockId, ops, visible, mode: Mode, n_sharers: int
    ) -> None:
        """Observe references :meth:`fold` passed, just as the loop would."""


class _PinnedPolicy(ModePolicy):
    """A mode fixed in advance: nothing to observe, all-or-nothing folds."""

    def observe(self, block, op, *, owner_visible, mode, n_sharers):
        pass

    def fold(self, block, ops, visible, mode, n_sharers):
        return len(ops) if self.decide(block, mode, n_sharers) is None else 0


class StaticModePolicy(_PinnedPolicy):
    """Pin every block to one mode (the 'software sets the mode' case)."""

    def __init__(self, mode: Mode) -> None:
        self.mode = mode

    def decide(self, block, mode, n_sharers):
        return self.mode if mode is not self.mode else None


class PerBlockModePolicy(_PinnedPolicy):
    """Pin each block to a precomputed mode (the 'set by the software' case).

    §2.1: the operating mode is 'selected so as to minimize communication
    cost and set by the software'.  The mode map typically comes from
    :func:`repro.analysis.compiler.recommend_modes`, which plays the role
    of the §5 compiler: profile the sharing pattern, compare each block's
    write fraction against its ``w1`` threshold, emit a mode per block.
    Blocks absent from the map keep their current mode.
    """

    def __init__(self, modes: dict[BlockId, Mode]) -> None:
        self.modes = dict(modes)

    def decide(self, block, mode, n_sharers):
        desired = self.modes.get(block)
        if desired is None or desired is mode:
            return None
        return desired


class _CountingPolicy(ModePolicy):
    """Shared machinery for the two measuring policies.

    A decision falls on every ``window``-th observed reference of a block
    and depends only on that window's counts, so :meth:`fold` takes a run
    of references a window at a time.
    """

    #: Whether references the owner cannot see are counted all the same.
    _sees_everything = False

    def __init__(self, window: int = 64) -> None:
        if window < 2:
            raise ConfigurationError(
                f"decision window must be >= 2, got {window}"
            )
        self.window = window
        self._counters: dict[BlockId, _BlockCounters] = {}

    def _counter(self, block: BlockId) -> _BlockCounters:
        counter = self._counters.get(block)
        if counter is None:
            counter = _BlockCounters()
            self._counters[block] = counter
        return counter

    def _write_fraction(self, counter: _BlockCounters, mode: Mode) -> float:
        return counter.writes / counter.references

    def _desired(
        self, counter: _BlockCounters, mode: Mode, n_sharers: int
    ) -> Mode:
        """The §4 rule on a full window's counts."""
        if self._write_fraction(counter, mode) <= write_fraction_threshold(
            n_sharers
        ):
            return DISTRIBUTED_WRITE
        return GLOBAL_READ

    @staticmethod
    def _tally(
        counter: _BlockCounters, references: int, writes: int, mode: Mode
    ) -> None:
        counter.references += references
        counter.writes += writes
        if mode is GLOBAL_READ:
            counter.gr_reads += references - writes

    def observe(self, block, op, *, owner_visible, mode, n_sharers):
        if not (owner_visible or self._sees_everything):
            return
        counter = self._counter(block)
        counter.references += 1
        if op is WRITE:
            counter.writes += 1
        elif mode is GLOBAL_READ:
            counter.gr_reads += 1

    def decide(self, block, mode, n_sharers):
        counter = self._counter(block)
        if counter.references < self.window:
            return None
        desired = self._desired(counter, mode, n_sharers)
        counter.reset()
        return desired if desired is not mode else None

    def _observed(self, ops, visible):
        """The ops this policy counts, and their indices (``None``: all)."""
        if visible is None or self._sees_everything:
            return ops, None
        seen = list(compress(range(len(ops)), visible))
        return [ops[index] for index in seen], seen

    def fold(self, block, ops, visible, mode, n_sharers):
        carried = self._counters.get(block)
        counter = replace(carried) if carried else _BlockCounters()
        if counter.references >= self.window:
            # Only an ``observe`` without its ``decide`` leaves a full
            # window behind; the per-reference path sorts that out.
            return 0
        n_ops = len(ops)
        ops, seen = self._observed(ops, visible)
        # Past the first window nothing is carried in, so the verdict is
        # a function of the window's write count alone.
        switches: dict[int, bool] = {}
        start, end = 0, self.window - counter.references
        while end <= len(ops):
            writes = sum(ops[start:end])
            switch = switches.get(writes)
            if switch is None:
                self._tally(counter, end - start, writes, mode)
                switch = self._desired(counter, mode, n_sharers) is not mode
                counter.reset()
                if start:
                    switches[writes] = switch
            if switch:
                return end - 1 if seen is None else seen[end - 1]
            start, end = end, end + self.window
        return n_ops

    def commit(self, block, ops, visible, mode, n_sharers):
        if not len(ops):
            return
        counter = self._counter(block)
        ops, _ = self._observed(ops, visible)
        total = counter.references + len(ops)
        if total >= self.window:
            # Every full window decided "stay" and reset the counters;
            # what remains is the tail after the last one.
            counter.reset()
            ops = ops[len(ops) - total % self.window :]
        self._tally(counter, len(ops), sum(ops), mode)


class OracleModePolicy(_CountingPolicy):
    """Idealised selector: measures the true write fraction of each block."""

    _sees_everything = True


class AdaptiveModePolicy(_CountingPolicy):
    """The §5 owner-visible selector.

    Counts only references the owner's hardware observes: its own
    references, every write (writes always execute at the owner), and --
    in global-read mode -- every remote read.  Remote read hits in
    distributed-write mode are invisible, so the measured write fraction in
    DW mode overestimates ``w`` and the policy leans toward global read.
    """

    def _write_fraction(self, counter, mode):
        if mode is GLOBAL_READ:
            # Every reference was visible: w = 1 - (GR reads / references).
            return 1.0 - counter.gr_reads / counter.references
        # Only owner-local reads were visible: an overestimate of w.
        return counter.writes / counter.references
