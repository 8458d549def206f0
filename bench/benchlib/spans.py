"""In-memory spans recorded by the benchmark around calls into each layer.

A span is ``{"id", "name", "start", "end", "parent", "op"}``: ``parent``
is the id of the span that caused it (``None`` at the root) and ``op``
the operation all spans of one request share.  Spans stay in memory
until the run ends; :func:`self_times` then charges every instant to
exactly one span -- a span's duration minus what its children cover --
so per-name self times sum to the root's wall time.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans; one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None,
        op: object = None,
    ) -> int:
        """Record a finished span (e.g. one rebuilt from a PhaseTimer lap)."""
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(
                {
                    "id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent, "op": op,
                }
            )
        return span_id

    @contextmanager
    def span(self, name: str, op: object = None):
        """Time the enclosed block as a child of this thread's open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        span_id = self.add(name, time.perf_counter(), 0.0, parent, op)
        stack.append(span_id)
        try:
            yield span_id
        finally:
            stack.pop()
            self.spans[span_id]["end"] = time.perf_counter()


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of self time per span name.

    Children of one span never overlap here (a span's children all run
    on its own thread, in sequence; concurrent clients are separate root
    spans), so a span's self time is its duration minus the summed
    durations of its direct children.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    totals: dict[str, float] = {}
    for span in spans:
        own = span["end"] - span["start"] - covered[span["id"]]
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals
