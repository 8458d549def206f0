"""The five workloads of record, generated from ``--seed``.

The program under test sees only what this module returns: frozen
:class:`~repro.runner.ExperimentSpec` cells (in-process workloads) and
named submissions of such cells (serve workloads).  Every cell's own
generator seed is drawn from ``random.Random(f"<workload>/<seed>/...")``,
whose string seeding is stable across runs and Python versions, so one
``--seed`` always yields the same inputs and two seeds never share a cell.

``why`` strings live in ``BENCHMARK.json`` and ``bench/README.md``; the
comments here record only what a size was chosen *for*.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.analysis.compare import default_factories
from repro.network.multicast import MulticastScheme
from repro.protocol.messages import MessageCosts
from repro.runner import ExperimentSpec, SweepSpec, WorkloadSpec
from repro.serve import shard_for
from repro.sim.system import SystemConfig

IN_PROCESS = ("fig8_sweep", "kernel_n1024", "migratory_n64")
SERVE = ("serve_cold", "serve_hot")
NAMES = IN_PROCESS + SERVE

#: Closed loop: this many persistent connections, one thread each.
N_CLIENTS = 2

#: Fleet shape shared by both serve workloads.
FLEET_SHARDS = 2
FLEET_WORKERS = 1


@dataclass(frozen=True)
class Profile:
    """Workload sizes.  ``QUICK`` is ``FULL`` / 10, for ``bench/test_bench.py``.

    ``FULL`` is sized so one pass takes about two seconds on the 2-core
    reference box: long enough that child start-up is not the run, short
    enough that a run of ``run_seconds`` holds five or six passes for
    its median and still fits the driver's time cap.
    """

    name: str
    fig8_refs: int  # per cell, warm-up included
    fig8_warmup: int
    kernel_refs: int
    migratory_refs: int
    cold_batches: int  # per client per pass, two cells each
    cold_refs: int
    cold_warmup: int
    hot_set: int  # working-set cells, < the shards' hot_capacity (256)
    hot_refs: int
    hot_warmup: int
    hot_ops: int  # submissions per client per pass
    hot_standing: int  # standing sweeps a poll loop resubmits verbatim


FULL = Profile(
    name="full",
    fig8_refs=8000, fig8_warmup=500,
    kernel_refs=350_000,
    migratory_refs=2000,
    cold_batches=22, cold_refs=10_000, cold_warmup=500,
    hot_set=128, hot_refs=1000, hot_warmup=200,
    hot_ops=1000, hot_standing=8,
)
QUICK = Profile(
    name="quick",
    fig8_refs=800, fig8_warmup=50,
    kernel_refs=35_000,
    migratory_refs=200,
    cold_batches=2, cold_refs=1000, cold_warmup=50,
    hot_set=16, hot_refs=100, hot_warmup=20,
    hot_ops=100, hot_standing=8,
)

_UNIFORM = MessageCosts.uniform(20)


def _rng(*parts: object) -> random.Random:
    return random.Random("/".join(str(part) for part in parts))


def _cell_seed(rng: random.Random) -> int:
    return rng.getrandbits(48)


# ---------------------------------------------------------------------------
# In-process workloads: one sweep, run by Executor(workers=0, cache=None)
# ---------------------------------------------------------------------------


def sweep(name: str, seed: int, profile: Profile) -> SweepSpec:
    """The cells of in-process workload ``name`` for ``seed``."""
    rng = _rng(name, seed)
    if name == "fig8_sweep":
        # Fig. 8: every comparison protocol across the write fraction.
        return SweepSpec.from_grid(
            name,
            protocols=list(default_factories()),
            workloads=[
                WorkloadSpec(
                    kind="markov", n_nodes=64,
                    n_references=profile.fig8_refs, write_fraction=w,
                    seed=_cell_seed(rng), tasks=tuple(range(16)),
                )
                for w in (0.05, 0.2, 0.5, 0.8, 0.95)
            ],
            configs=[SystemConfig(n_nodes=64, costs=_UNIFORM)],
            warmup=profile.fig8_warmup,
        )
    if name == "kernel_n1024":
        # The shape of repro.perf's batched_replay_n1024: 64 tasks strided
        # by 16 on the vector scheme, whose split-tree plans the fast
        # path memoises.  No warm-up: generation is part of the cold cell.
        return SweepSpec.from_grid(
            name,
            protocols=["distributed-write", "global-read", "two-mode"],
            workloads=[
                WorkloadSpec(
                    kind="markov", n_nodes=1024,
                    n_references=profile.kernel_refs, write_fraction=0.3,
                    seed=_cell_seed(rng), tasks=tuple(range(0, 1024, 16)),
                )
            ],
            configs=[
                SystemConfig(
                    n_nodes=1024, costs=_UNIFORM,
                    multicast_scheme=MulticastScheme.VECTOR,
                )
            ],
        )
    if name == "migratory_n64":
        # Any node writes any block; few blocks = hot contention, many =
        # ever-new destination sets.
        return SweepSpec.from_grid(
            name,
            protocols=["two-mode", "distributed-write"],
            workloads=[
                WorkloadSpec(
                    kind="random", n_nodes=64,
                    n_references=profile.migratory_refs, write_fraction=0.3,
                    seed=_cell_seed(rng), n_blocks=n_blocks, locality=0.5,
                )
                for n_blocks in (8, 64)
            ],
            configs=[SystemConfig(n_nodes=64, costs=_UNIFORM)],
        )
    raise KeyError(name)


# ---------------------------------------------------------------------------
# Serve workloads: named submissions, N_CLIENTS lists of them per pass
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One ``ServeClient.submit`` call."""

    name: str
    cells: tuple[ExperimentSpec, ...]


def _serve_cell(seed: int, refs: int, warmup: int) -> ExperimentSpec:
    return ExperimentSpec(
        protocol="two-mode",
        workload=WorkloadSpec(
            kind="markov", n_nodes=64, n_references=refs,
            write_fraction=0.3, seed=seed, tasks=tuple(range(16)),
        ),
        config=SystemConfig(n_nodes=64, costs=_UNIFORM),
        warmup=warmup,
    )


def cold_ops(seed: int, pass_index: int, profile: Profile) -> list[list[Op]]:
    """Per client, the two-cell batches of never-seen cells of one pass.

    A batch holds one cell for each shard (the second cell's seed is
    redrawn until its spec hash lands on the other shard), so a pass's
    wall does not depend on how a seed's hashes happen to split.
    """
    rng = _rng("serve_cold", seed, pass_index)

    def batch() -> tuple[ExperimentSpec, ...]:
        cells: list[ExperimentSpec] = []
        while len(cells) < FLEET_SHARDS:
            cell = _serve_cell(
                _cell_seed(rng), profile.cold_refs, profile.cold_warmup
            )
            if shard_for(cell.spec_hash, FLEET_SHARDS) == len(cells):
                cells.append(cell)
        return tuple(cells)

    return [
        [
            Op(name=f"cold-{pass_index}-{client}-{number}", cells=batch())
            for number in range(profile.cold_batches)
        ]
        for client in range(N_CLIENTS)
    ]


def hot_working_set(seed: int, profile: Profile) -> tuple[ExperimentSpec, ...]:
    """The cells set-up preloads; the hot path never looks at their size."""
    rng = _rng("serve_hot", seed, "set")
    return tuple(
        _serve_cell(_cell_seed(rng), profile.hot_refs, profile.hot_warmup)
        for _ in range(profile.hot_set)
    )


def _composition(
    rng: random.Random,
    working_set: tuple[ExperimentSpec, ...],
    size: int | None = None,
) -> tuple[ExperimentSpec, ...]:
    """``size`` (default: 1-8, uniform) distinct cells by Pareto(1.2) rank."""
    if size is None:
        size = 1 + rng.randrange(8)
    size = min(size, len(working_set))
    picked: dict[int, ExperimentSpec] = {}
    while len(picked) < size:
        rank = min(int(rng.paretovariate(1.2)) - 1, len(working_set) - 1)
        picked.setdefault(rank, working_set[rank])
    return tuple(picked.values())


def hot_ops(
    seed: int,
    pass_index: int,
    working_set: tuple[ExperimentSpec, ...],
    profile: Profile,
) -> list[list[Op]]:
    """Per client: half verbatim repeats of standing sweeps, half fresh.

    The standing sweeps are the same for every pass of a seed (a poll
    loop: same name, same cells, so byte-identical frames) and come one
    of each size 1..8, so half the traffic does not ride on eight size
    draws; a fresh composition gets a name no other submission has.
    """
    standing_rng = _rng("serve_hot", seed, "standing")
    standing = [
        Op(
            name=f"standing-{k}",
            cells=_composition(standing_rng, working_set, size=1 + k % 8),
        )
        for k in range(profile.hot_standing)
    ]
    rng = _rng("serve_hot", seed, pass_index)
    return [
        [
            standing[rng.randrange(len(standing))]
            if index % 2 == 0
            else Op(
                name=f"fresh-{pass_index}-{client}-{index}",
                cells=_composition(rng, working_set),
            )
            for index in range(profile.hot_ops)
        ]
        for client in range(N_CLIENTS)
    ]
