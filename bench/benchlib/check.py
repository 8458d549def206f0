"""Output checks and the small statistics the benchmark reports.

A delivered report counts only after :func:`report_problem` accepts it,
and a pass counts only if :func:`digest` of its reports (canonical JSON,
cell order) equals the pinned value in ``bench/expected.json`` when the
(workload, seed) pair is pinned there.
"""

from __future__ import annotations

import hashlib
import json
import statistics


def canonical(data: object) -> str:
    """Sorted keys, no whitespace: the form spec hashes are taken over."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def digest(reports: list[dict]) -> str:
    """SHA-256 over the canonical JSON of ``reports`` in the given order."""
    sha = hashlib.sha256()
    for report in reports:
        sha.update(canonical(report).encode("ascii"))
        sha.update(b"\n")
    return sha.hexdigest()


def report_problem(spec, report: dict) -> str | None:
    """Why ``report`` cannot be the outcome of ``spec``; ``None`` if it can.

    Cheap structural conservation checks, applied to every delivered
    report of every pass: the measured reference count, the read/write
    split, and the per-level link bits summing to the network total.
    """
    measured = spec.workload.n_references - spec.warmup
    if report.get("n_references") != measured:
        return f"n_references {report.get('n_references')} != {measured}"
    if report["n_reads"] + report["n_writes"] != measured:
        return "reads + writes != references"
    if report["network_total_bits"] <= 0:
        return "no network traffic"
    if sum(report["network_bits_by_level"]) != report["network_total_bits"]:
        return "per-level bits do not sum to the total"
    return None


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil
    return ordered[int(rank) - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0
