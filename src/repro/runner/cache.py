"""Content-addressed stores of experiment results: disk, and a hot tier.

Each completed :class:`~repro.runner.spec.ExperimentSpec` lands at
``<root>/<hh>/<hash>.json`` (``hh`` = first two hex digits of the spec
hash, to keep directories small) as one JSON document holding both the
full spec and the serialised :class:`~repro.sim.engine.SimulationReport`.
Because the path *is* the content hash, re-running a sweep only executes
cells whose spec changed -- everything else is a file read.

Writes are atomic (temp file + ``os.replace``) so a killed run never
leaves a half-written entry for the next run to trip over, and
:meth:`ResultCache.get` re-checks the stored spec against the requested
one, so a truncated or foreign file degrades to a miss, never a wrong
result.

The disk store optionally enforces an **expiry policy** so long-running
fleets do not fill the disk: ``max_bytes`` caps the total size of the
store (enforced on every ``put``, evicting least-recently-used entries
by mtime -- hits refresh the mtime), and ``max_age`` expires entries
that have not been written or read for that many seconds (enforced
lazily on ``get`` and during eviction sweeps).  Evictions are counted on
the instance and, when a :class:`~repro.obs.metrics.MetricsRegistry` is
supplied, mirrored as ``result_cache.disk.*`` counters plus a
``result_cache.disk.bytes`` gauge.

:class:`TieredResultCache` layers a bounded in-memory LRU **hot tier**
in front of the disk store (or stands alone, memory-only), with hit /
miss / eviction counters optionally exported through a
:class:`~repro.obs.metrics.MetricsRegistry`.  It is the serving-path
cache of :mod:`repro.serve` -- repeated submissions of a spec are a
dictionary lookup, not a file read -- but works anywhere a
:class:`ResultCache` does (the :class:`~repro.runner.executor.Executor`
only needs ``get``/``put``).
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from pathlib import Path

from repro.lru import BoundedLRU
from repro.runner.spec import ExperimentSpec
from repro.sim.engine import SimulationReport


class ResultCache:
    """Spec-hash -> :class:`~repro.sim.engine.SimulationReport` store.

    ``max_bytes`` / ``max_age`` (both optional) switch on the expiry
    policy described in the module docstring; ``metrics`` mirrors the
    eviction counters into a registry as ``result_cache.disk.*``.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        max_bytes: int | None = None,
        max_age: float | None = None,
        metrics=None,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"disk max_bytes must be >= 1, got {max_bytes}"
            )
        if max_age is not None and max_age <= 0:
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"disk max_age must be > 0, got {max_age}"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.max_age = max_age
        self.metrics = metrics
        self.size_evictions = 0
        self.age_evictions = 0
        self.evicted_bytes = 0
        self._policy_lock = threading.Lock()
        self._bytes = (
            sum(p.stat().st_size for p in self.root.glob("??/*.json"))
            if max_bytes is not None
            else 0
        )
        self._gauge_bytes()

    @property
    def has_policy(self) -> bool:
        return self.max_bytes is not None or self.max_age is not None

    # ------------------------------------------------------------------

    def _path(self, spec_hash: str) -> Path:
        return self.root / spec_hash[:2] / f"{spec_hash}.json"

    def get(self, spec: ExperimentSpec) -> SimulationReport | None:
        """The cached report for ``spec``, or ``None`` on a miss.

        Unreadable or mismatched entries (truncated writes, a stale
        format, a hash collision) are treated as misses, and so is an
        entry older than ``max_age`` -- which is also deleted, counting
        as an age eviction.  A policy-enabled hit refreshes the entry's
        mtime, so recency for LRU eviction means "last written *or*
        read".
        """
        path = self._path(spec.spec_hash)
        if self.max_age is not None and self._expire_one(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as stream:
                data = json.load(stream)
        except (OSError, ValueError):
            return None
        if data.get("spec") != spec.to_dict():
            return None
        try:
            report = SimulationReport.from_dict(data["report"])
        except (KeyError, TypeError):
            return None
        if self.has_policy:
            with contextlib.suppress(OSError):
                os.utime(path)
        return report

    def put(self, spec: ExperimentSpec, report: SimulationReport) -> Path:
        """Store ``report`` under ``spec``'s content hash, atomically.

        With ``max_bytes`` set, a put that takes the store over budget
        evicts least-recently-used entries (oldest mtime first) until it
        fits again.
        """
        spec_hash = spec.spec_hash
        path = self._path(spec_hash)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "spec_hash": spec_hash,
            "spec": spec.to_dict(),
            "report": report.to_dict(),
        }
        temp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(temp, "w", encoding="utf-8") as stream:
            json.dump(document, stream, sort_keys=True, indent=1)
            stream.write("\n")
        if self.max_bytes is not None:
            with self._policy_lock:
                old_size = 0
                with contextlib.suppress(OSError):
                    old_size = path.stat().st_size
                new_size = temp.stat().st_size
                os.replace(temp, path)
                self._bytes += new_size - old_size
                if self._bytes > self.max_bytes:
                    self._evict_to_budget(keep=path)
                self._gauge_bytes()
        else:
            os.replace(temp, path)
        return path

    # ------------------------------------------------------------------
    # Expiry policy
    # ------------------------------------------------------------------

    def expire(self, now: float | None = None) -> int:
        """One full policy sweep (age cutoff, then byte budget).

        Returns how many entries were evicted.  ``put`` and ``get``
        already enforce the policy incrementally; this is for explicit
        maintenance passes (e.g. a daemon reclaiming space while idle).
        """
        evicted = 0
        if self.max_age is not None:
            cutoff = (
                now if now is not None else time.time()
            ) - self.max_age
            for path in sorted(self.root.glob("??/*.json")):
                try:
                    if path.stat().st_mtime < cutoff:
                        evicted += self._evict(path, "age")
                except OSError:
                    continue
        if self.max_bytes is not None:
            with self._policy_lock:
                self._bytes = sum(
                    p.stat().st_size for p in self.root.glob("??/*.json")
                )
                evicted += self._evict_to_budget()
                self._gauge_bytes()
        return evicted

    def _expire_one(self, path: Path) -> bool:
        """Delete ``path`` if it is older than ``max_age``."""
        try:
            age = time.time() - path.stat().st_mtime
        except OSError:
            return False
        if age <= self.max_age:
            return False
        return bool(self._evict(path, "age"))

    def _evict_to_budget(self, keep: Path | None = None) -> int:
        """Evict oldest-mtime entries until the store fits ``max_bytes``.

        Caller holds ``_policy_lock``.  ``keep`` (the entry just
        written) is never evicted -- a single entry larger than the
        whole budget would otherwise evict itself.
        """
        entries = []
        for path in self.root.glob("??/*.json"):
            if keep is not None and path == keep:
                continue
            with contextlib.suppress(OSError):
                stat = path.stat()
                entries.append((stat.st_mtime, str(path), stat.st_size))
        entries.sort()
        evicted = 0
        for _mtime, path_str, _size in entries:
            if self._bytes <= self.max_bytes:
                break
            evicted += self._evict(Path(path_str), "size")
        return evicted

    def _evict(self, path: Path, reason: str) -> int:
        """Unlink one entry, count it; returns 1 if it was removed."""
        try:
            size = path.stat().st_size
            path.unlink()
        except OSError:
            return 0
        if reason == "age":
            self.age_evictions += 1
        else:
            self.size_evictions += 1
        self.evicted_bytes += size
        self._bytes -= size
        if self.metrics is not None:
            self.metrics.inc(f"result_cache.disk.evictions_{reason}")
            self.metrics.inc("result_cache.disk.evicted_bytes", size)
        return 1

    def _gauge_bytes(self) -> None:
        if self.metrics is not None and self.max_bytes is not None:
            self.metrics.set_gauge(
                "result_cache.disk.bytes", self._bytes
            )

    # ------------------------------------------------------------------

    def __contains__(self, spec: ExperimentSpec) -> bool:
        return self.get(spec) is not None

    def __len__(self) -> int:
        return sum(
            1 for _ in self.root.glob("??/*.json")
        )

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.root.glob("??/*.json"):
            path.unlink()
            removed += 1
        return removed


class TieredResultCache:
    """A bounded in-memory LRU hot tier over an optional disk store.

    ``get`` consults the hot tier first (a dictionary lookup), then the
    disk :class:`ResultCache` (promoting hits into the hot tier); ``put``
    writes through to both.  With ``root=None`` the cache is memory-only
    -- same interface, nothing persisted.  The tier holds at most
    ``capacity`` reports; inserting beyond that evicts the least
    recently used entry (disk copies, when present, survive eviction).

    All operations are thread-safe: the serve daemon's worker threads
    ``put`` while its event loop ``get``\\ s during admission.

    Counters (``hot_hits``, ``hot_misses``, ``disk_hits``,
    ``disk_misses``, ``evictions``) are kept on the instance and, when a
    ``metrics`` registry is supplied, mirrored as
    ``result_cache.<counter>`` counters plus a
    ``result_cache.hot_entries`` gauge, so serving metrics fold into the
    same :class:`~repro.obs.metrics.MetricsRegistry` snapshots as
    everything else.

    ``disk_max_bytes`` / ``disk_max_age`` forward to the disk
    :class:`ResultCache` expiry policy (LRU-by-mtime byte budget and
    idle-age cutoff); its eviction counters surface both in
    :meth:`stats` and, through the same registry, as
    ``result_cache.disk.*``.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        capacity: int = 256,
        metrics=None,
        disk_max_bytes: int | None = None,
        disk_max_age: float | None = None,
    ) -> None:
        if capacity < 1:
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"hot-tier capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self.disk = (
            ResultCache(
                root,
                max_bytes=disk_max_bytes,
                max_age=disk_max_age,
                metrics=metrics,
            )
            if root is not None
            else None
        )
        self.metrics = metrics
        self._hot = BoundedLRU(capacity)
        self._lock = threading.Lock()
        self.disk_hits = 0
        self.disk_misses = 0

    # ------------------------------------------------------------------

    @property
    def hot_hits(self) -> int:
        return self._hot.hits

    @property
    def hot_misses(self) -> int:
        return self._hot.misses

    @property
    def evictions(self) -> int:
        return self._hot.evictions

    def _mirror(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.inc(f"result_cache.{name}")

    def _gauge_entries(self) -> None:
        if self.metrics is not None:
            self.metrics.set_gauge(
                "result_cache.hot_entries", len(self._hot)
            )

    # ------------------------------------------------------------------

    def lookup(
        self, spec: ExperimentSpec
    ) -> tuple[SimulationReport | None, str | None]:
        """``(report, tier)`` where tier is ``"hot"``, ``"disk"`` or None.

        The tier label is what the serve daemon streams back to clients
        (``task_hot`` vs ``task_disk`` admission events); plain callers
        use :meth:`get`.
        """
        spec_hash = spec.spec_hash
        with self._lock:
            report = self._hot.get(spec_hash)
            if report is not None:
                self._mirror("hot_hits")
                return report, "hot"
            self._mirror("hot_misses")
        if self.disk is None:
            return None, None
        report = self.disk.get(spec)
        if report is None:
            self.disk_misses += 1
            self._mirror("disk_misses")
            return None, None
        self.disk_hits += 1
        self._mirror("disk_hits")
        with self._lock:
            self._insert(spec_hash, report)
        return report, "disk"

    def get(self, spec: ExperimentSpec) -> SimulationReport | None:
        """The cached report for ``spec``, or ``None`` on a miss."""
        report, _tier = self.lookup(spec)
        return report

    def put(self, spec: ExperimentSpec, report: SimulationReport) -> None:
        """Store ``report`` in the hot tier and (if present) on disk."""
        if self.disk is not None:
            self.disk.put(spec, report)
        with self._lock:
            self._insert(spec.spec_hash, report)

    def _insert(self, spec_hash: str, report: SimulationReport) -> None:
        # Caller holds the lock.  One entry in, so at most one out.
        evictions = self._hot.evictions
        self._hot.put(spec_hash, report)
        if self._hot.evictions != evictions:
            self._mirror("evictions")
        self._gauge_entries()

    # ------------------------------------------------------------------

    def __contains__(self, spec: ExperimentSpec) -> bool:
        return self.get(spec) is not None

    def __len__(self) -> int:
        """Entries resident in the hot tier (not the disk store)."""
        with self._lock:
            return len(self._hot)

    def stats(self) -> dict[str, int]:
        """Counter snapshot (JSON-ready, deterministic key order)."""
        with self._lock:
            stats = {
                "capacity": self.capacity,
                "disk_hits": self.disk_hits,
                "disk_misses": self.disk_misses,
                "evictions": self.evictions,
                "hot_entries": len(self._hot),
                "hot_hits": self.hot_hits,
                "hot_misses": self.hot_misses,
            }
        if self.disk is not None and self.disk.has_policy:
            stats["disk_age_evictions"] = self.disk.age_evictions
            stats["disk_evicted_bytes"] = self.disk.evicted_bytes
            stats["disk_size_evictions"] = self.disk.size_evictions
        return stats
