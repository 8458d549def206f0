"""The interface every coherence protocol implements, plus shared plumbing.

A protocol is an object driving one :class:`~repro.sim.system.System`:
:meth:`read` and :meth:`write` perform a processor reference *atomically*
(all consequent protocol messages included) and account every message's
network cost.  They check the address and call the unchecked ``_read`` /
``_write``, which are all a protocol implements.  The atomic-reference,
trace-driven methodology follows Archibald & Baer (1986), which the paper
itself cites for protocol evaluation; the paper's metric is traffic, not
timing, so no cycle model is needed.

Inside an accounting window (:meth:`CoherenceProtocol.open_window`, held
by :func:`~repro.sim.engine.run_trace` for the length of a replay) a
message is *posted*, not sent: ``_send`` and ``_multicast`` count it in
the network's message ledger, which prices each distinct message once when
the window settles (:mod:`repro.network.topology`, "The message ledger").
``Stats.traffic_*`` lag the posts until then; nothing in ``src/`` reads
them inside a window.

Outside a window a message is sent and accounted by one call,
:meth:`CoherenceProtocol._account`.  Under a fault injector (which keeps
the window shut) a unicast is the one-destination multicast of one
recovery loop, :meth:`CoherenceProtocol._deliver`.
"""

from __future__ import annotations

import abc
from typing import NamedTuple

from repro.errors import TransientNetworkError, UnreachableRouteError
from repro.network.multicast import MulticastResult
from repro.protocol.messages import MsgKind
from repro.sim import stats as ev
from repro.sim.stats import Stats
from repro.sim.system import System
from repro.types import Address, BlockId, NodeId

# Bound once: on Python 3.11 every ``MsgKind.X`` read is an
# ``EnumType.__getattr__`` call (≈ 0.1 µs; a module global ≈ 0.01 µs).
ACK = MsgKind.ACK


class LoggedMessage(NamedTuple):
    """One protocol message as seen by the (optional) message log.

    ``dests`` holds the requested destination set -- for a unicast, a
    single element.  ``cost`` is the network cost actually paid (which for
    a multicast depends on the scheme and placement).  ``loads`` is the
    message's per-link traffic with dependency structure, as consumed by
    the timing model of :mod:`repro.sim.timing`.
    """

    kind: MsgKind
    source: NodeId
    dests: frozenset[NodeId]
    payload_bits: int
    cost: int
    loads: tuple


class CoherenceProtocol(abc.ABC):
    """Base class for all protocols.

    Subclasses implement the unchecked :meth:`_read` and :meth:`_write`
    behind the checked :meth:`read` and :meth:`write`; the helpers here
    send protocol messages through the system's multicaster and keep the
    per-kind traffic ledger, so every protocol is costed identically.
    """

    #: Human-readable protocol name (overridden by subclasses).
    name = "abstract"

    def __init__(self, system: System) -> None:
        self.system = system
        self.stats = Stats()
        self.message_log: list[LoggedMessage] | None = None
        #: Optional :class:`~repro.obs.recorder.TraceRecorder`.  Attached
        #: via :func:`repro.obs.hooks.attach_recorder`; every traffic and
        #: fault accounting site below also emits a trace event when one
        #: is present, so trace event counts reconcile exactly with
        #: ``stats``.  ``None`` (the default) costs one attribute test
        #: per site and allocates nothing.
        self.recorder = None
        #: Monotonic generation counter for stable-state fast paths.  Any
        #: event that can invalidate a cached "this reference needs no
        #: messages" answer -- ownership transfer, mode switch, replacement,
        #: fault degradation -- bumps it, and every stable-state record
        #: of the :class:`~repro.sim.kernel.BatchedKernel` carries the
        #: epoch it was minted under (docs/PERF.md).
        self.fastpath_epoch = 0
        #: Companion generation counter for the *membership* of present
        #: vectors.  Some membership changes (a reader joining at the
        #: owner, an UnOwned copy clearing its flag on replacement) leave
        #: every memoised message-free answer intact -- so they must not
        #: bump ``fastpath_epoch`` -- but they do invalidate the
        #: distributed-write multicast records, whose memoised split tree
        #: is a pure function of ``(owner, present-vector)``.
        self.present_epoch = 0
        #: The block the protocol is currently operating on; maintained by
        #: fault-aware subclasses so that an
        #: :class:`~repro.errors.UnreachableRouteError` surfacing from deep
        #: inside a reference (e.g. while retiring an eviction victim) can
        #: be attributed to the right block for degradation.
        self._active_block: BlockId | None = None
        #: The network's message ledger while this protocol posts instead
        #: of sending (:meth:`open_window`), else ``None``.
        self._ledger: dict[tuple, int] | None = None
        # The system's parts, bound once for the per-reference paths.
        self._caches = system.caches
        self._memories = system.memories
        self._n_nodes = system.n_nodes
        # Hot message sizes, computed once; each is a pure function of
        # the (immutable) system configuration.
        costs = system.costs
        self._cost_request = costs.request()
        self._cost_ack = costs.ack()
        self._cost_word = costs.word_data()
        self._cost_block = costs.block_data(system.config.block_size_words)
        self._cost_word_owner = costs.word_and_owner(system.n_nodes)

    def enable_message_log(self) -> None:
        """Start recording every protocol message in ``message_log``.

        Intended for tests and debugging: the scenario tests assert the
        exact §2.2 message sequences against this log.
        """
        self.message_log = []

    # ------------------------------------------------------------------
    # The processor-facing interface
    # ------------------------------------------------------------------

    def read(self, node: NodeId, address: Address) -> int:
        """Processor ``node`` reads one word; returns the value observed."""
        self.system.check_address(address)
        block, offset = address
        return self._read(node, block, offset)

    def write(self, node: NodeId, address: Address, value: int) -> None:
        """Processor ``node`` writes ``value`` to one word."""
        self.system.check_address(address)
        block, offset = address
        self._write(node, block, offset, value)

    @abc.abstractmethod
    def _read(self, node: NodeId, block: BlockId, offset: int) -> int:
        """:meth:`read` of a word already checked against the geometry."""

    @abc.abstractmethod
    def _write(
        self, node: NodeId, block: BlockId, offset: int, value: int
    ) -> None:
        """:meth:`write` of a word already checked against the geometry."""

    # ------------------------------------------------------------------
    # Messaging helpers (cost accounting)
    # ------------------------------------------------------------------

    def _sends_watched(self) -> str | None:
        """What sees each send: ``"faults"``, ``"recorder"``,
        ``"message_log"`` (the first that applies), or ``None``.

        Each needs every message sent one by one, and every reference
        replayed in full, so each shuts the ledger and the fast tiers.
        """
        if self.system.fault_injector is not None:
            return "faults"
        if self.recorder is not None:
            return "recorder"
        if self.message_log is not None:
            return "message_log"
        return None

    def open_window(self) -> bool:
        """Post messages instead of sending them, until :meth:`close_window`.

        Only where nothing consumes individual sends
        (:meth:`_sends_watched`); otherwise every message is still sent
        one by one.  The ledger resolves each posted destination set by
        the multicaster's scheme, as a send does.  Returns whether a
        window is now open.
        """
        if not self._sends_watched():
            self._ledger = self.system.network.open_window(
                self.system.multicaster.scheme, self.stats.record_traffic
            )
        return self._ledger is not None

    def close_window(self) -> None:
        """Settle what was posted into ``stats`` and the network."""
        self._ledger = None
        self.system.network.close_window()

    def _post(
        self,
        kind: MsgKind,
        source: NodeId,
        dests: NodeId | frozenset[NodeId],
        bits: int,
        count: int,
    ) -> None:
        """Post ``count`` identical messages: a replay tier's deferred hits.

        Only inside an open window (:meth:`open_window`), which is the
        only place :func:`~repro.sim.engine.run_trace` engages a tier.
        """
        ledger = self._ledger
        key = (kind._value_, source, dests, bits)
        ledger[key] = ledger.get(key, 0) + count

    def _send(
        self, kind: MsgKind, source: NodeId, dest: NodeId, bits: int
    ) -> None:
        """Unicast ``bits`` payload bits from ``source`` to ``dest``."""
        ledger = self._ledger
        if ledger is not None:
            # Keyed on the value, read from its slot: MsgKind.__hash__ and
            # Enum.value are both Python-level calls.
            key = (kind._value_, source, dest, bits)
            ledger[key] = ledger.get(key, 0) + 1
        elif self.system.fault_injector is not None:
            self._deliver(
                kind, source, frozenset((dest,)), bits, multicast=False
            )
        else:
            self._account(
                kind, source, bits,
                self.system.multicaster.send_payload_one(source, bits, dest),
            )

    def _multicast(
        self,
        kind: MsgKind,
        source: NodeId,
        dests: frozenset[NodeId] | set[NodeId],
        bits: int,
    ) -> MulticastResult | None:
        """One-to-many send using the system's configured scheme."""
        dest_set = dests if type(dests) is frozenset else frozenset(dests)
        ledger = self._ledger
        if ledger is not None:
            key = (kind._value_, source, dest_set, bits)
            ledger[key] = ledger.get(key, 0) + 1
            return None
        if self.system.fault_injector is not None:
            return self._deliver(kind, source, dest_set, bits, multicast=True)
        result = self.system.multicaster.send_payload(source, bits, dest_set)
        self._account(kind, source, bits, result)
        return result

    def _account(
        self, kind: MsgKind, source: NodeId, bits: int, result: MulticastResult
    ) -> None:
        """Account one sent message: first send, re-send, duplicate or ack.

        The one place a sent message reaches ``stats``, the recorder and
        the message log, so the three reconcile exactly.
        """
        dests = result.requested
        self.stats.record_traffic(kind.value, result.cost)
        if self.recorder is not None:
            self.recorder.message(kind.value, source, dests, bits, result)
        if self.message_log is not None:
            self.message_log.append(
                LoggedMessage(
                    kind, source, dests, bits, result.cost, result.loads
                )
            )

    # ------------------------------------------------------------------
    # Fault-aware messaging (only reached when a fault plan is active)
    # ------------------------------------------------------------------
    #
    # The recovery contract (docs/FAULTS.md): every delivery is judged by
    # the injector; a dropped delivery is detected by ack timeout and the
    # message re-sent to the destinations that missed it (each attempt
    # pays its network cost), bounded by the plan's retry budget; a
    # successful delivery is confirmed by an ack whose cost is also
    # accounted.  A unicast is the one-destination case of the same loop.
    # A dead route -- the unique omega path crossing a failed link or
    # switch, in either direction, since the ack must travel back --
    # cannot be retried around, so it raises UnreachableRouteError tagged
    # with the block being operated on; protocols catch it at the
    # reference level and degrade that block.  Recovery-control traffic
    # (the acks) is assumed fault-free: re-acking acks would recurse
    # without changing what the protocol can observe.

    def _dead_route(
        self, source: NodeId, dest: NodeId
    ) -> UnreachableRouteError:
        self.stats.record_fault(
            ev.FAULT_DEAD_ROUTES,
            source=source,
            dest=dest,
            block=self._active_block,
        )
        if self.recorder is not None:
            self.recorder.fault(
                ev.FAULT_DEAD_ROUTES, source,
                block=self._active_block, dest=dest,
            )
        return UnreachableRouteError(
            f"no live round trip between port {source} and port {dest}",
            source=source,
            dest=dest,
            block=self._active_block,
        )

    def _deliver(
        self,
        kind: MsgKind,
        source: NodeId,
        dest_set: frozenset[NodeId],
        bits: int,
        *,
        multicast: bool,
    ) -> MulticastResult:
        """Send under the injector, re-sending until every copy is acked.

        ``multicast`` only tags the :class:`TransientNetworkError` raised
        when the retry budget runs out: a multicast's partial delivery
        makes the protocol degrade the block, a unicast's propagates.
        """
        injector = self.system.fault_injector
        pending: tuple[NodeId, ...] = tuple(sorted(dest_set))
        for dest in pending:
            if not injector.pair_alive(source, dest):
                raise self._dead_route(source, dest)
        multicaster = self.system.multicaster
        stats = self.stats
        recorder = self.recorder
        ack_bits = self._cost_ack
        result = multicaster.send_payload(source, bits, dest_set)
        self._account(kind, source, bits, result)
        rounds = 0
        while pending:
            if recorder is not None:
                recorder.multicast_round(source, rounds, len(pending))
            missed: list[NodeId] = []
            # Per-destination verdicts in sorted order, so the variate
            # stream is a function of the destination *set*, never of
            # set-iteration order.
            for dest in pending:
                outcome = injector.draw(
                    kind=kind.value, source=source, dest=dest
                )
                if outcome.duplicated:
                    # A second copy crossed the fabric: real traffic.
                    self._account(
                        kind, source, bits,
                        multicaster.send_payload_one(source, bits, dest),
                    )
                    stats.count(ev.FAULT_DUPLICATES)
                    if recorder is not None:
                        recorder.fault(
                            ev.FAULT_DUPLICATES, dest, source=source
                        )
                if outcome.delayed:
                    stats.count(ev.FAULT_DELAYS)
                    if recorder is not None:
                        recorder.fault(ev.FAULT_DELAYS, dest, source=source)
                if outcome.dropped:
                    stats.count(ev.FAULT_DROPS)
                    if recorder is not None:
                        recorder.fault(ev.FAULT_DROPS, dest, source=source)
                    missed.append(dest)
                else:
                    self._account(
                        ACK, dest, ack_bits,
                        multicaster.send_payload_one(dest, ack_bits, source),
                    )
            if not missed:
                break
            rounds += 1
            if rounds > injector.plan.max_retries:
                raise TransientNetworkError(
                    f"{kind.value} from {source} to {sorted(dest_set)} "
                    f"still undelivered at {sorted(missed)} after "
                    f"{rounds} rounds; retry budget "
                    f"({injector.plan.max_retries}) exhausted",
                    kind=kind.value,
                    source=source,
                    dests=tuple(missed),
                    block=self._active_block,
                    multicast=multicast,
                )
            stats.count(ev.FAULT_RETRIES)
            if recorder is not None:
                recorder.fault(
                    ev.FAULT_RETRIES, source, attempt=rounds, dests=missed,
                )
            # Re-send only to the destinations that missed the message.
            self._account(
                kind, source, bits,
                multicaster.send_payload(source, bits, frozenset(missed)),
            )
            pending = tuple(missed)
        return result

    def _send_unguarded(
        self, kind: MsgKind, source: NodeId, dest: NodeId, bits: int
    ) -> None:
        """Best-effort accounting send for degraded-mode operation.

        Used on paths that must never raise (write-backs during
        degradation, memory-direct service of uncacheable blocks), which
        only run under an injector, so never inside a window: if the
        round trip is alive the cost is accounted normally, otherwise the
        attempt is only counted.  No delivery verdict is drawn -- the
        data moves by direct state manipulation as everywhere else in the
        atomic-reference model, and degraded-mode accounting stays a
        deterministic function of the reference stream.
        """
        injector = self.system.fault_injector
        if injector is not None and not injector.pair_alive(source, dest):
            self.stats.count(ev.FAULT_UNROUTABLE)
            if self.recorder is not None:
                self.recorder.fault(ev.FAULT_UNROUTABLE, source, dest=dest)
            return
        self._account(
            kind, source, bits,
            self.system.multicaster.send_payload_one(source, bits, dest),
        )

    # ------------------------------------------------------------------
    # Common structure
    # ------------------------------------------------------------------

    def home(self, block: BlockId) -> NodeId:
        """Home memory module port of ``block``."""
        return self.system.home(block)

    def fastpath(self):
        # Read only by bench's sim.fastpath_hit_share; goes with that probe.
        return None

    def batched_kernel(self):
        """A batched columnar replay kernel, or ``None``.

        Protocols that can answer "this reference is a hit" once per
        *chunk* of references return a kernel: the Stenström protocol a
        :class:`~repro.sim.kernel.BatchedKernel`, which builds, checks,
        executes and flushes its own stable-state records, ``no-cache``
        a closed form.  A kernel hands what it cannot batch to the
        engine's slow loop.  The base class returns ``None`` and the
        engine replays every reference on the slow loop.  Whether a
        kernel runs at all is :func:`~repro.sim.engine.run_trace`'s
        decision alone: only inside an open window, on an input that was
        a compiled trace, with every per-reference check off.
        """
        return None

    def check_invariants(self) -> None:
        """Verify protocol-specific structural invariants (optional).

        The verifying engine calls this after every reference when
        ``verify=True``; protocols with nothing to check inherit this
        no-op.  Implementations raise
        :class:`~repro.errors.CoherenceError` on violation.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(system={self.system.config.n_nodes})"
