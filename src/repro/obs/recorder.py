"""Structured protocol tracing with virtual simulation time.

A :class:`TraceRecorder` captures what the protocol, network and fault
layers *did*, event by event, on a virtual clock: every recorded event
advances an integer tick, so timestamps are a pure function of the event
sequence -- never of the wall clock -- and two same-seed runs produce
byte-identical traces (see :mod:`repro.obs.export`).

Event vocabulary (the ``kind`` field):

* ``reference`` -- one processor reference as a span (``ts`` .. ``ts +
  dur``), opened/closed by :func:`repro.sim.engine.run_trace`;
* ``message`` -- one protocol message paying network cost, emitted by
  ``CoherenceProtocol._account``, the one place a sent message reaches
  :meth:`~repro.sim.stats.Stats.record_traffic` (primary sends,
  duplicates, acks, re-sends), so the number of ``message`` events
  always equals ``Stats.total_messages``;
* ``mode_switches`` / ``ownership_transfers`` -- the §2.2 state events,
  named exactly after their :mod:`repro.sim.stats` counters;
* ``fault_*`` -- the fault/recovery events of :mod:`repro.faults`, again
  named after their counters (``fault_drops``, ``fault_retries``, ...),
  so trace event counts reconcile exactly with ``Stats``;
* ``multicast_round`` -- fan-out per delivery round of a recovering
  send, unicasts included (round 0 is the initial delivery attempt).

The recorder also feeds a :class:`~repro.obs.metrics.MetricsRegistry`
(fan-out and retry-depth histograms, per-scheme bits/messages counters),
so enabling tracing yields aggregates for free.  A disabled recorder is
simply ``None`` at every hook site -- one attribute test, no allocation,
bit-identical results.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import NamedTuple

from repro.obs.metrics import MetricsRegistry

#: Histogram bucket bounds for retry depth (small by construction: the
#: fault plans bound retries at single digits).
RETRY_BUCKETS = (1, 2, 3, 4, 6, 8, 12, 16)


class TraceEvent(NamedTuple):
    """One recorded occurrence on the virtual clock.

    ``ts`` is the tick the event begins at; ``dur`` is 0 for instant
    events and the span length for ``reference`` spans.  ``tid`` is the
    lane the event renders on (the node/port acting).  ``args`` is a
    tuple of ``(key, value)`` pairs, already sorted by key, so the event
    serialises deterministically without further normalisation.
    """

    ts: int
    dur: int
    kind: str
    name: str
    tid: int
    args: tuple[tuple[str, object], ...]

    def to_dict(self) -> dict:
        """JSON-ready form (the JSONL exporter writes exactly this)."""
        return {
            "ts": self.ts,
            "dur": self.dur,
            "kind": self.kind,
            "name": self.name,
            "tid": self.tid,
            "args": dict(self.args),
        }


class TraceRecorder:
    """Collects :class:`TraceEvent` records and aggregate metrics.

    Attach one to a protocol with
    :func:`repro.obs.hooks.attach_recorder` (or pass ``recorder=`` to
    :func:`repro.sim.engine.run_trace`, which attaches it for you).
    """

    __slots__ = ("events", "metrics", "_now", "_open_ref")

    def __init__(self, *, metrics: MetricsRegistry | None = None) -> None:
        self.events: list[TraceEvent] = []
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._now = 0
        # (start tick, name, tid, args) of the reference span in flight.
        self._open_ref: tuple[int, str, int, tuple] | None = None

    # ------------------------------------------------------------------
    # The clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> int:
        """The next tick to be assigned (events so far, plus open spans)."""
        return self._now

    def _tick(self) -> int:
        ts = self._now
        self._now = ts + 1
        return ts

    # ------------------------------------------------------------------
    # Generic emission
    # ------------------------------------------------------------------

    def instant(self, kind: str, name: str, tid: int, **args: object) -> None:
        """Record one instant event at the next tick."""
        self.events.append(
            TraceEvent(
                self._tick(), 0, kind, name, tid, tuple(sorted(args.items()))
            )
        )

    # ------------------------------------------------------------------
    # Reference spans (driven by the simulation engine)
    # ------------------------------------------------------------------

    def begin_reference(
        self, index: int, node: int, op: str, block: int, offset: int
    ) -> None:
        """Open the span for reference ``index`` (closed by ``end``)."""
        self._open_ref = (
            self._tick(),
            op,
            node,
            (("block", block), ("index", index), ("offset", offset)),
        )

    def end_reference(self) -> None:
        """Close the reference span opened last; spans never nest."""
        if self._open_ref is None:
            return
        start, name, tid, args = self._open_ref
        self._open_ref = None
        self.events.append(
            TraceEvent(start, self._now - start, "reference", name, tid, args)
        )

    # ------------------------------------------------------------------
    # Protocol hooks (see repro.protocol.base / .stenstrom)
    # ------------------------------------------------------------------

    def message(
        self, kind: str, source: int, dests, payload_bits: int, result
    ) -> None:
        """One protocol message and its routed outcome.

        ``result`` is the :class:`~repro.network.multicast.MulticastResult`
        the send produced; scheme, cost, links crossed and the delivered
        set all come from it, so the event describes what actually
        happened on the fabric, not just what was requested.
        """
        n_dests = len(dests)
        scheme = result.scheme.name
        links = result.links_used
        self.instant(
            "message",
            kind,
            source,
            bits=payload_bits,
            cost=result.cost,
            delivered=len(result.delivered),
            dests=n_dests,
            links=links,
            scheme=scheme,
        )
        metrics = self.metrics
        metrics.inc("messages")
        metrics.inc(f"scheme_{scheme}_messages")
        metrics.inc(f"scheme_{scheme}_bits", result.cost)
        if n_dests > 1:
            metrics.observe("multicast_fanout", n_dests)
            metrics.observe("multicast_links", links)

    def mode_switch(self, block: int, node: int, to_mode: str) -> None:
        """The owner switched ``block`` to ``to_mode`` (§2.2 items 6/7)."""
        self.instant("mode_switches", to_mode, node, block=block)
        self.metrics.inc("mode_switches")

    def ownership_transfer(
        self, block: int, old_owner: int, new_owner: int
    ) -> None:
        """Ownership of ``block`` moved between caches (§2.2 items 3/4)."""
        self.instant(
            "ownership_transfers",
            f"block {block}",
            new_owner,
            block=block,
            from_owner=old_owner,
        )
        self.metrics.inc("ownership_transfers")

    def fault(self, name: str, tid: int, **args: object) -> None:
        """One fault/recovery occurrence; ``name`` is the Stats counter.

        Emitted at exactly the sites that increment the matching
        ``fault_*`` counter, so per-name event counts and counters agree.
        """
        self.instant(name, name, tid, **args)
        self.metrics.inc(name)
        if name == "fault_retries":
            attempt = args.get("attempt")
            if attempt is not None:
                self.metrics.observe(
                    "retry_depth", attempt, RETRY_BUCKETS
                )

    def multicast_round(
        self, source: int, round_index: int, n_pending: int
    ) -> None:
        """Fan-out of one delivery round of a recovering send."""
        self.instant(
            "multicast_round",
            f"round {round_index}",
            source,
            pending=n_pending,
            round=round_index,
        )
        self.metrics.observe("round_fanout", n_pending)

    # ------------------------------------------------------------------

    def counts_by_name(self) -> dict[str, int]:
        """Event tallies per name, sorted -- the reconciliation view."""
        tally: dict[str, int] = {}
        for event in self.events:
            tally[event.name] = tally.get(event.name, 0) + 1
        return dict(sorted(tally.items()))

    def counts_by_kind(self) -> dict[str, int]:
        """Event tallies per kind, sorted."""
        tally: dict[str, int] = {}
        for event in self.events:
            tally[event.kind] = tally.get(event.kind, 0) + 1
        return dict(sorted(tally.items()))

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TraceRecorder(events={len(self.events)}, now={self._now})"


#: Default flight-recorder capacity: enough recent incidents for a
#: post-mortem without the ring ever mattering for memory.
FLIGHT_CAPACITY = 512


class FlightRecorder:
    """An always-on bounded ring of recent incident events.

    Unlike the :class:`TraceRecorder` -- which captures *every* protocol
    event and therefore stands the fast paths down -- the flight recorder
    only sees coarse operational incidents (mode switches surfaced by
    finished tasks, fault incidents, admission rejections, degradations,
    lifecycle transitions), fed by the serve daemon's journal hook.  It
    costs one dict append per incident and nothing at all on the
    simulation hot path, so it stays attached permanently.

    On trouble -- a ``CoherenceError``, an overload rejection burst, a
    daemon drain -- :meth:`dump` writes the ring as a JSONL artifact: a
    header line naming the reason, then the retained events oldest
    first.  Thread-safe: the daemon records from worker threads and
    dumps from the event loop.
    """

    __slots__ = ("capacity", "dropped", "dumps", "_events", "_lock", "_seq")

    def __init__(self, capacity: int = FLIGHT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(
                f"flight recorder capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self.dropped = 0
        self.dumps = 0
        self._events: list[dict] = []
        self._lock = threading.Lock()
        self._seq = 0

    def record(self, kind: str, name: str, **args: object) -> None:
        """Append one incident; the oldest drops once the ring is full."""
        with self._lock:
            event = {"seq": self._seq, "kind": kind, "name": name, **args}
            self._seq += 1
            self._events.append(event)
            if len(self._events) > self.capacity:
                del self._events[0]
                self.dropped += 1

    def snapshot(self) -> list[dict]:
        """The retained events, oldest first (copies, safe to mutate)."""
        with self._lock:
            return [dict(event) for event in self._events]

    def dump(self, path: str | Path, *, reason: str) -> Path:
        """Write the ring as JSONL: a header line, then the events.

        The header records the dump ``reason`` plus ring bookkeeping, so
        an artifact is self-describing even when the ring wrapped.
        """
        path = Path(path)
        events = self.snapshot()
        with self._lock:
            header = {
                "flight_dump": reason,
                "events": len(events),
                "dropped": self.dropped,
                "capacity": self.capacity,
            }
            self.dumps += 1
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for event in events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        return path

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FlightRecorder(events={len(self)}, capacity={self.capacity}, "
            f"dumps={self.dumps})"
        )
