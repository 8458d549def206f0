"""Declarative experiment specifications with stable content hashes.

An :class:`ExperimentSpec` is everything needed to reproduce one cell of an
evaluation grid -- the machine (:class:`~repro.sim.system.SystemConfig`),
the workload (a :class:`WorkloadSpec` naming a generator and its seed), the
protocol (a :func:`~repro.analysis.compare.default_factories` name) and the
measurement options (warm-up split, verification).  A spec is frozen, pure
data, and JSON-serialisable, so it can cross process boundaries to the
:mod:`repro.runner.executor` workers and key the on-disk
:mod:`repro.runner.cache`.

The :attr:`ExperimentSpec.spec_hash` is a SHA-256 over the spec's canonical
JSON form (sorted keys, no whitespace), so two specs hash equal exactly
when every parameter that can influence the simulation is equal.  A
:class:`SweepSpec` is an ordered grid of cells, typically built with
:meth:`SweepSpec.from_grid`.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.network.multicast import MulticastScheme
from repro.protocol.messages import MessageCosts
from repro.sim.system import SystemConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.ctrace import CompiledTrace

#: Bumped whenever the serialised form changes incompatibly, so stale
#: cache entries from an older layout can never be mistaken for current.
SPEC_VERSION = 1

_WORKLOAD_KINDS = ("markov", "random", "shared-structure")


def _canonical_json(data: object) -> str:
    """The canonical encoding hashed by :attr:`ExperimentSpec.spec_hash`."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadSpec:
    """A trace *generator invocation*, not a trace.

    Workers rebuild the trace from this description (generation is cheap
    and deterministic -- see ``tests/workloads/test_determinism.py``), so
    specs stay small enough to hash, journal, and ship between processes.

    ``kind`` selects the generator:

    * ``"markov"`` -- :func:`repro.workloads.markov.markov_block_trace`
      (``tasks`` required; one writer, one shared block);
    * ``"shared-structure"`` --
      :func:`repro.workloads.markov.shared_structure_trace`
      (``tasks`` required; ``n_blocks`` blocks, writers rotating);
    * ``"random"`` -- :func:`repro.workloads.synthetic.random_trace`
      (uniform stress; ``locality`` applies).
    """

    kind: str
    n_nodes: int
    n_references: int
    write_fraction: float
    seed: int = 0
    block_size_words: int = 4
    tasks: tuple[int, ...] = ()
    n_blocks: int = 8
    locality: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "tasks", tuple(self.tasks))
        if self.kind not in _WORKLOAD_KINDS:
            raise ConfigurationError(
                f"unknown workload kind {self.kind!r}; "
                f"expected one of {_WORKLOAD_KINDS}"
            )
        # The generators' own rules, imported here so that importing the
        # runner does not load every generator.
        from repro.workloads.markov import (
            _check_at_least,
            _check_fraction,
            _check_tasks,
        )

        _check_at_least(0, n_references=self.n_references)
        _check_at_least(1, block_size_words=self.block_size_words)
        _check_fraction(self.write_fraction)
        if self.kind in ("random", "shared-structure"):
            _check_at_least(1, n_blocks=self.n_blocks)
        if self.kind == "random":
            _check_fraction(self.locality, "locality")
        else:
            if not self.tasks:
                raise ConfigurationError(
                    f"workload kind {self.kind!r} needs a non-empty tasks "
                    f"tuple"
                )
            _check_tasks(self.tasks, self.n_nodes)

    # ------------------------------------------------------------------

    def build(self) -> CompiledTrace:
        """Generate the trace this spec describes (deterministic)."""
        if self.kind == "markov":
            from repro.workloads.markov import markov_block_trace

            return markov_block_trace(
                self.n_nodes,
                tasks=list(self.tasks),
                write_fraction=self.write_fraction,
                n_references=self.n_references,
                block_size_words=self.block_size_words,
                seed=self.seed,
            )
        if self.kind == "shared-structure":
            from repro.workloads.markov import shared_structure_trace

            return shared_structure_trace(
                self.n_nodes,
                tasks=list(self.tasks),
                write_fraction=self.write_fraction,
                n_references=self.n_references,
                n_blocks=self.n_blocks,
                block_size_words=self.block_size_words,
                seed=self.seed,
            )
        from repro.workloads.synthetic import random_trace

        return random_trace(
            self.n_nodes,
            self.n_references,
            n_blocks=self.n_blocks,
            block_size_words=self.block_size_words,
            write_fraction=self.write_fraction,
            locality=self.locality,
            seed=self.seed,
        )

    #: The benchmark's probes (``bench/``) call :meth:`build` by this name.
    build_compiled = build

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n_nodes": self.n_nodes,
            "n_references": self.n_references,
            "write_fraction": self.write_fraction,
            "seed": self.seed,
            "block_size_words": self.block_size_words,
            "tasks": list(self.tasks),
            "n_blocks": self.n_blocks,
            "locality": self.locality,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadSpec":
        return cls(
            kind=data["kind"],
            n_nodes=data["n_nodes"],
            n_references=data["n_references"],
            write_fraction=data["write_fraction"],
            seed=data["seed"],
            block_size_words=data["block_size_words"],
            tasks=tuple(data["tasks"]),
            n_blocks=data["n_blocks"],
            locality=data["locality"],
        )


# ---------------------------------------------------------------------------
# SystemConfig serialisation
# ---------------------------------------------------------------------------


def config_to_dict(config: SystemConfig) -> dict:
    """A :class:`~repro.sim.system.SystemConfig` as plain JSON data."""
    return {
        "n_nodes": config.n_nodes,
        "block_size_words": config.block_size_words,
        "cache_entries": config.cache_entries,
        "associativity": config.associativity,
        "replacement": config.replacement,
        "costs": {
            "control_bits": config.costs.control_bits,
            "address_bits": config.costs.address_bits,
            "word_bits": config.costs.word_bits,
            "uniform_bits": config.costs.uniform_bits,
        },
        "multicast_scheme": config.multicast_scheme.name,
        "seed": config.seed,
    }


def config_from_dict(data: dict) -> SystemConfig:
    """Rebuild a :class:`~repro.sim.system.SystemConfig` from JSON data."""
    costs = data["costs"]
    return SystemConfig(
        n_nodes=data["n_nodes"],
        block_size_words=data["block_size_words"],
        cache_entries=data["cache_entries"],
        associativity=data["associativity"],
        replacement=data["replacement"],
        costs=MessageCosts(
            control_bits=costs["control_bits"],
            address_bits=costs["address_bits"],
            word_bits=costs["word_bits"],
            uniform_bits=costs["uniform_bits"],
        ),
        multicast_scheme=MulticastScheme[data["multicast_scheme"]],
        seed=data["seed"],
    )


# ---------------------------------------------------------------------------
# Experiment cells and sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """One cell of an evaluation grid: machine x workload x protocol.

    ``protocol`` names a factory from
    :func:`repro.analysis.compare.default_factories`.  ``warmup``
    references run first without being measured (the cold-start split of
    :func:`repro.analysis.sweep.fig8_grid`); the report covers
    only the remaining ``n_references - warmup``.  ``verify`` and
    ``check_invariants_every`` pass straight to
    :func:`repro.sim.engine.run_trace`.

    ``fault_plan`` optionally subjects the cell's network to a
    :class:`~repro.faults.plan.FaultPlan` (see docs/FAULTS.md).  An empty
    plan is normalised to ``None`` at construction, and ``None`` is
    omitted from the serialised form entirely -- so every pre-fault-layer
    spec hash (including the ``sweep_hash`` metadata baked into committed
    benchmark exhibits) is unchanged, while any *non*-empty plan changes
    the hash and can never be served a cached fault-free result.

    ``compiled`` selects the route the executor replays
    :meth:`WorkloadSpec.build`'s trace on: where eligible, the
    protocol's batched kernel (the default), or with ``compiled=False``
    never -- the rows are handed over as a plain iterable, which
    :func:`~repro.sim.engine.run_trace` replays on its checked slow
    loop.  The two replays are bit-identical (docs/PERF.md), so the
    knob cannot change a report; like ``fault_plan`` it is serialised
    only in its non-default state, which keeps every existing spec
    hash -- and therefore every cache key and committed exhibit --
    unchanged.
    """

    protocol: str
    workload: WorkloadSpec
    config: SystemConfig
    warmup: int = 0
    verify: bool = False
    check_invariants_every: int | None = None
    fault_plan: FaultPlan | None = None
    compiled: bool = True

    def __post_init__(self) -> None:
        if not self.protocol:
            raise ConfigurationError("protocol name must be non-empty")
        if not isinstance(self.config.multicast_scheme, MulticastScheme):
            raise ConfigurationError(
                "a spec names its multicast scheme by MulticastScheme; "
                f"got {self.config.multicast_scheme!r}"
            )
        if not 0 <= self.warmup <= self.workload.n_references:
            raise ConfigurationError(
                f"warmup {self.warmup} outside "
                f"0..{self.workload.n_references}"
            )
        if self.fault_plan is not None and self.fault_plan.is_empty:
            object.__setattr__(self, "fault_plan", None)

    # ------------------------------------------------------------------

    @functools.cached_property
    def spec_hash(self) -> str:
        """SHA-256 over the canonical JSON form (the cache key).

        Cached on first access (the spec is frozen, so the hash can
        never change): the serving path reads it several times per
        request and canonicalisation dominates otherwise.
        """
        return hashlib.sha256(
            _canonical_json(self.to_dict()).encode("ascii")
        ).hexdigest()

    def describe(self) -> str:
        """A short human label for journals and error messages."""
        wl = self.workload
        label = (
            f"{self.protocol} | {wl.kind} w={wl.write_fraction:g} "
            f"n_refs={wl.n_references} seed={wl.seed} "
            f"N={self.config.n_nodes}"
        )
        if self.fault_plan is not None:
            label += f" | faults[{self.fault_plan.summary()}]"
        return label

    def to_dict(self) -> dict:
        data = {
            "version": SPEC_VERSION,
            "protocol": self.protocol,
            "workload": self.workload.to_dict(),
            "config": config_to_dict(self.config),
            "warmup": self.warmup,
            "verify": self.verify,
            "check_invariants_every": self.check_invariants_every,
        }
        if self.fault_plan is not None:
            # Only serialised when present, so fault-free specs keep the
            # exact hashes they had before the fault layer existed.
            data["fault_plan"] = self.fault_plan.to_dict()
        if not self.compiled:
            # Same rule: the default (compiled replay) is the absence of
            # the key, so pre-existing hashes are untouched.
            data["compiled"] = False
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        version = data.get("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ConfigurationError(
                f"spec version {version} not supported "
                f"(this build reads version {SPEC_VERSION})"
            )
        plan = data.get("fault_plan")
        return cls(
            protocol=data["protocol"],
            workload=WorkloadSpec.from_dict(data["workload"]),
            config=config_from_dict(data["config"]),
            warmup=data["warmup"],
            verify=data["verify"],
            check_invariants_every=data["check_invariants_every"],
            fault_plan=FaultPlan.from_dict(plan) if plan else None,
            compiled=data.get("compiled", True),
        )


@dataclass(frozen=True)
class SweepSpec:
    """An ordered grid of experiment cells under one name.

    Cell order is part of the contract: the executor returns results in
    cell order regardless of completion order, so a sweep's output is a
    pure function of its spec.
    """

    name: str
    cells: tuple[ExperimentSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(self.cells))

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[ExperimentSpec]:
        return iter(self.cells)

    @property
    def spec_hash(self) -> str:
        """SHA-256 over the whole grid (name included)."""
        return hashlib.sha256(
            _canonical_json(self.to_dict()).encode("ascii")
        ).hexdigest()

    def to_dict(self) -> dict:
        return {
            "version": SPEC_VERSION,
            "name": self.name,
            "cells": [cell.to_dict() for cell in self.cells],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        return cls(
            name=data["name"],
            cells=tuple(
                ExperimentSpec.from_dict(cell) for cell in data["cells"]
            ),
        )

    @classmethod
    def from_grid(
        cls,
        name: str,
        *,
        protocols: Sequence[str],
        workloads: Sequence[WorkloadSpec],
        configs: Sequence[SystemConfig],
        warmup: int = 0,
        verify: bool = False,
        check_invariants_every: int | None = None,
    ) -> "SweepSpec":
        """The full cross product, workload-major then config then protocol.

        One parameter point at a time, every protocol at that point, so
        the sequential executor generates each workload's trace once.
        """
        if not protocols or not workloads or not configs:
            raise ConfigurationError(
                "a sweep grid needs at least one protocol, "
                "workload and config"
            )
        cells = tuple(
            ExperimentSpec(
                protocol=protocol,
                workload=workload,
                config=config,
                warmup=warmup,
                verify=verify,
                check_invariants_every=check_invariants_every,
            )
            for workload in workloads
            for config in configs
            for protocol in protocols
        )
        return cls(name=name, cells=cells)
