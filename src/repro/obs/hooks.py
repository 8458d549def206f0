"""Wiring the observability layer into the protocol stack and the runner.

Two entry points:

* :func:`attach_recorder` binds a
  :class:`~repro.obs.recorder.TraceRecorder` to a protocol: the
  protocol's messaging and fault-accounting helpers start emitting trace
  events, and the recorder's :class:`~repro.obs.metrics.MetricsRegistry`
  becomes the ``metrics`` of the protocol's :class:`~repro.sim.stats.Stats`
  (so :meth:`Stats.to_dict` and the runner journal pick the aggregates
  up without further plumbing);
* :func:`execute_spec_traced` is the traced twin of
  :func:`repro.runner.executor.execute_spec` -- the executor substitutes
  it as the task body when built with ``trace_dir=...``.  It replays the
  trace an untraced cell replays, with a recorder attached, and exports
  three artifacts named by the spec hash: ``<hash>.trace.jsonl``,
  ``<hash>.chrome.json`` (Perfetto) and ``<hash>.heatmap.json``.  It is
  a module-level function so it survives pickling under the ``spawn``
  start method.
"""

from __future__ import annotations

from pathlib import Path

from repro.obs.export import write_chrome_trace, write_heatmaps, write_jsonl
from repro.obs.recorder import TraceRecorder

#: Artifact filenames use the same spec-hash prefix as the run journal.
_HASH_PREFIX = 12


def attach_recorder(protocol, recorder: TraceRecorder) -> TraceRecorder:
    """Bind ``recorder`` to ``protocol`` (and its stats); returns it.

    Idempotent; reattaching a different recorder replaces the previous
    one.  Pass ``recorder=None``?  Then simply don't call this -- the
    protocol's default is no recorder, and that path is untouched.
    """
    protocol.recorder = recorder
    protocol.stats.metrics = recorder.metrics
    return recorder


def detach_recorder(protocol) -> None:
    """Remove any recorder from ``protocol`` (metrics stay on the stats)."""
    protocol.recorder = None


def execute_spec_traced(spec, trace_dir: str | Path, trace=None):
    """Run one cell with tracing on; export trace + heatmap artifacts.

    Same build-warmup-measure body as
    :func:`~repro.runner.executor.execute_spec`, over the same trace: the
    one ``spec.workload.build()`` returns, or ``trace`` when the
    sequential executor shares one generation between a workload's
    cells.  The recorder is attached only to the measured run, so the
    artifacts (and the metrics folded into the report) describe exactly
    what the report's counters count.
    """
    from repro.runner.executor import _run_cell

    recorder = TraceRecorder()
    report, system = _run_cell(spec, trace, recorder)
    trace_dir = Path(trace_dir)
    trace_dir.mkdir(parents=True, exist_ok=True)
    stem = spec.spec_hash[:_HASH_PREFIX]
    write_jsonl(recorder, trace_dir / f"{stem}.trace.jsonl")
    write_chrome_trace(
        recorder,
        trace_dir / f"{stem}.chrome.json",
        process_name=f"{spec.protocol} {stem}",
    )
    write_heatmaps(system.network, trace_dir / f"{stem}.heatmap.json")
    return report


def execute_spec_with_heatmaps(spec):
    """Run one cell in-process; return ``(report, heatmaps-dict)``.

    Same build-warmup-measure body as
    :func:`~repro.runner.executor.execute_spec` (no recorder is
    attached, so the batched kernel stays eligible), plus a
    :func:`~repro.obs.heatmap.network_heatmaps` snapshot of the
    network the measured run just drove.  The serve daemon's
    ``--stream-artifacts`` mode uses this as the task body so every
    fresh execution can stream its link/switch heatmaps to subscribed
    clients.
    """
    from repro.obs.heatmap import network_heatmaps
    from repro.runner.executor import _run_cell

    report, system = _run_cell(spec)
    return report, network_heatmaps(system.network)
