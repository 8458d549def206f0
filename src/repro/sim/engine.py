"""The trace-driven simulation loop, with built-in verification.

:func:`run_trace` feeds a reference stream to a protocol and (by default)
*verifies coherence while doing so*: a shadow memory records the globally
most recent write to every word, every read's returned value is compared
against it, and the protocol's structural invariants are re-checked.  A
protocol bug therefore surfaces at the first reference it corrupts, with
the offending reference in the exception message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.errors import CoherenceError
from repro.sim.ctrace import CompiledTrace, _pack_columns
from repro.sim.stats import Stats
from repro.types import Address, Reference

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a cycle)
    from repro.protocol.base import CoherenceProtocol


@dataclass(frozen=True)
class SimulationReport:
    """Outcome of one trace run."""

    protocol_name: str
    n_references: int
    n_reads: int
    n_writes: int
    stats: Stats
    network_total_bits: int
    network_bits_by_level: tuple[int, ...]
    verified: bool

    @property
    def cost_per_reference(self) -> float:
        """Mean communication cost per reference (the §4 metric)."""
        if self.n_references == 0:
            return 0.0
        return self.network_total_bits / self.n_references

    @property
    def write_fraction(self) -> float:
        if self.n_references == 0:
            return 0.0
        return self.n_writes / self.n_references

    def to_dict(self) -> dict:
        """JSON-ready snapshot of every field.

        The result round-trips through :meth:`from_dict`, so reports can
        cross process boundaries (the :mod:`repro.runner` workers) and land
        in result caches and journals as plain JSON.
        """
        return {
            "protocol_name": self.protocol_name,
            "n_references": self.n_references,
            "n_reads": self.n_reads,
            "n_writes": self.n_writes,
            "stats": self.stats.to_dict(),
            "network_total_bits": self.network_total_bits,
            "network_bits_by_level": list(self.network_bits_by_level),
            "verified": self.verified,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationReport":
        """Rebuild a report from a :meth:`to_dict` snapshot."""
        return cls(
            protocol_name=data["protocol_name"],
            n_references=data["n_references"],
            n_reads=data["n_reads"],
            n_writes=data["n_writes"],
            stats=Stats.from_dict(data["stats"]),
            network_total_bits=data["network_total_bits"],
            network_bits_by_level=tuple(data["network_bits_by_level"]),
            verified=data["verified"],
        )

    def summary(self) -> str:
        """A one-paragraph human-readable digest."""
        lines = [
            f"protocol          : {self.protocol_name}",
            f"references        : {self.n_references} "
            f"({self.n_reads} reads / {self.n_writes} writes)",
            f"network traffic   : {self.network_total_bits} bits",
            f"cost per reference: {self.cost_per_reference:.2f} bits",
            f"verified          : {self.verified}",
        ]
        events = self.stats.events
        if events:
            interesting = ", ".join(
                f"{name}={count}" for name, count in sorted(events.items())
            )
            lines.append(f"events            : {interesting}")
        return "\n".join(lines)


def run_trace(
    protocol: "CoherenceProtocol",
    trace: "Iterable[Reference] | CompiledTrace",
    *,
    verify: bool = True,
    check_invariants_every: int | None = None,
    timer=None,
    recorder=None,
    _shadow: dict | None = None,
) -> SimulationReport:
    """Run ``trace`` through ``protocol`` and report traffic and events.

    ``trace`` is either a columnar
    :class:`~repro.sim.ctrace.CompiledTrace` or any iterable of
    :class:`~repro.types.Reference` items (a
    :class:`~repro.sim.trace.Trace`, a list, a generator).  Whatever the
    form, it is compiled first, at this system's geometry: an iterable is
    packed into a ``CompiledTrace``, and a compiled trace declared larger
    than the system (``not trace.fits``) is rebuilt from its rows.  So a
    row the system cannot hold raises
    :meth:`~repro.sim.ctrace.CompiledTrace.validate`'s
    :class:`~repro.errors.TraceError`, naming the earliest such row,
    before the traffic counters reset and before any row replays.

    Every reference replays through one loop over the rows -- the slow
    path, one ``_read``/``_write`` call each -- except where this
    function engages the protocol's batched kernel
    (:meth:`~repro.protocol.base.CoherenceProtocol.batched_kernel`),
    which hands what it cannot batch back to that one loop.  That is the
    one tier decision, made here alone: the kernel runs iff the ledger
    window opened (nothing watches individual sends), the input was a
    :class:`~repro.sim.ctrace.CompiledTrace`, and every per-reference
    check is off (``verify=False``, invariant stride ``0``).  An
    iterable input keeps to the slow loop: it is the reference path
    ``ExperimentSpec(compiled=False)`` takes.  Both routes are
    bit-identical; see docs/PERF.md.

    Two independent checks are controlled by two independent knobs:

    * ``verify`` turns *value* verification on or off: every read is
      compared against a shadow memory of the most recent writes (which
      the runner's private ``_shadow`` seeds with a warm-up's writes);
    * ``check_invariants_every`` sets the stride of *structural* invariant
      re-checks (single owner, present-vector accuracy).  ``0`` means
      never; ``None`` (the default) derives the stride from ``verify`` --
      every reference while verifying, never otherwise.

    The knobs compose; the three non-default combinations are:

    * ``verify=True, check_invariants_every=0`` -- value checks on every
      read, structural invariants never re-checked (useful when a test
      drives a protocol through states whose invariants it checks itself);
    * ``verify=False, check_invariants_every=k`` -- no value checks, but
      invariants re-checked every ``k`` references (cheap structural
      confidence on bulk sweeps);
    * ``verify=True, check_invariants_every=k`` -- both, with the
      invariant stride relaxed to ``k``.

    Violations of either check raise
    :class:`~repro.errors.CoherenceError`.

    The network's traffic counters are reset at the start, so the report's
    network totals are attributable to this run alone.  For the length of
    the replay the protocol posts its messages in the network's ledger
    instead of sending them
    (:meth:`~repro.protocol.base.CoherenceProtocol.open_window`); it is
    settled before this function returns or raises, and any read of the
    traffic counters through the network settles it first.

    ``timer``, if given, is any object with a ``lap(name)`` method (e.g.
    :class:`repro.perf.timer.PhaseTimer`); it receives ``"reset"``,
    ``"replay"`` and ``"report"`` laps around the run's three phases.  The
    per-reference loop is never instrumented, so timing is free when no
    timer is passed and coarse-grained when one is.

    ``recorder``, if given, is a
    :class:`~repro.obs.recorder.TraceRecorder`: it is attached to the
    protocol for the duration of the run (via
    :func:`repro.obs.hooks.attach_recorder`, and detached again on the
    way out unless the caller had attached it already, so a later
    untraced run gets its fast tiers back), every reference becomes a
    span enclosing the protocol messages it caused, and the network's
    route-plan cache statistics land in the recorder's gauges at the
    end.  The default ``None`` leaves the loop exactly as it was --
    no per-reference branch, no allocation.
    """
    system = protocol.system
    geometry = (system.n_nodes, system.config.block_size_words)
    # Every replay reads a trace valid for this system: anything else is
    # compiled at its geometry here, and an invalid row raises before
    # any row replays.
    compiled = isinstance(trace, CompiledTrace)
    if not compiled:
        trace = CompiledTrace(*_pack_columns(trace), *geometry)
    elif not trace.fits(*geometry):
        trace = CompiledTrace(*trace._decoded(), trace.values, *geometry)
    system.reset_traffic()
    attached_here = False
    if recorder is not None:
        from repro.obs.hooks import attach_recorder, detach_recorder

        # A recorder the caller attached itself stays attached afterwards.
        attached_here = protocol.recorder is not recorder
        attach_recorder(protocol, recorder)
    if timer is not None:
        timer.lap("reset")
    if check_invariants_every is None:
        check_invariants_every = 1 if verify else 0
    # The one place the message ledger is opened and settled, whichever
    # tier replays: messages are counted during the loop and priced once
    # here, also when the loop raises, so Stats and the network always
    # end as per-send accounting leaves them.
    network = system.network
    opened = protocol.open_window()
    try:
        # The one place a tier is chosen.
        kernel = (
            protocol.batched_kernel()
            if opened
            and compiled
            and not verify
            and not check_invariants_every
            else None
        )
        if kernel is not None:
            n_reads, n_writes = kernel.replay(trace)
        else:
            n_reads, n_writes = _replay_columns(
                protocol,
                trace,
                verify=verify,
                check_invariants_every=check_invariants_every,
                recorder=recorder,
                shadow=_shadow,
            )
    finally:
        protocol.close_window()
        if attached_here:
            detach_recorder(protocol)
    n_refs = n_reads + n_writes
    # Final structural check -- unless the loop's last reference already
    # ran it (the stride divides the trace length exactly).  An empty
    # trace still gets its one check.
    if check_invariants_every and (
        n_refs == 0 or n_refs % check_invariants_every != 0
    ):
        protocol.check_invariants()
    if timer is not None:
        timer.lap("replay")
    if recorder is not None:
        plan_stats = system.route_plan_stats()
        if plan_stats is not None:
            for key, value in sorted(plan_stats.items()):
                recorder.metrics.set_gauge(f"route_plans_{key}", value)
    report = SimulationReport(
        protocol_name=protocol.name,
        n_references=n_refs,
        n_reads=n_reads,
        n_writes=n_writes,
        stats=protocol.stats,
        network_total_bits=network.total_bits,
        network_bits_by_level=tuple(network.bits_by_level()),
        verified=bool(verify),
    )
    if timer is not None:
        timer.lap("report")
    return report


def _replay_columns(
    protocol: "CoherenceProtocol",
    trace: CompiledTrace,
    *,
    verify: bool,
    check_invariants_every: int,
    recorder,
    start: int = 0,
    shadow: dict | None = None,
) -> tuple[int, int]:
    """The slow loop: one ``_read``/``_write`` per row.

    Taken whenever :func:`run_trace` does not engage the batched kernel:
    with verification, an invariant stride, the ledger window shut, a
    protocol without a kernel, or an input that was not a compiled
    trace.  ``trace`` is valid for the system (:func:`run_trace`
    validated it), so no row is bounds-tested here.  Its rows are read
    through ``trace._rows()``, so a folded one decodes only the rows
    replayed here.  The kernel hands it the references it cannot batch,
    as a slice whose first row is row ``start`` of the whole trace.
    Returns ``(n_reads, n_writes)``.
    """
    read, write = protocol._read, protocol._write
    shadow = {} if shadow is None else shadow
    n_reads = n_writes = 0
    for index, ((node, op, block, offset), value) in enumerate(
        zip(trace._rows(), trace.values), start
    ):
        if recorder is not None:
            recorder.begin_reference(
                index, node, "write" if op else "read", block, offset
            )
        if op:
            n_writes += 1
            write(node, block, offset, value)
            if verify:
                shadow[block, offset] = value
        else:
            n_reads += 1
            observed = read(node, block, offset)
            if verify:
                expected = shadow.get((block, offset), 0)
                if observed != expected:
                    raise CoherenceError(
                        f"reference {index}: node {node} read "
                        f"{observed} from {Address(block, offset)}, but "
                        f"the most recent write stored {expected}",
                        block=block,
                        node=node,
                        detail=f"read {observed}, expected {expected}",
                    )
        if recorder is not None:
            recorder.end_reference()
        if check_invariants_every and (index + 1) % check_invariants_every == 0:
            protocol.check_invariants()
    return n_reads, n_writes
