"""Specs: validation, serialisation round trips, content-hash stability."""

import pytest

from repro.errors import ConfigurationError
from repro.network.multicast import MulticastScheme
from repro.protocol.messages import MessageCosts
from repro.runner.spec import (
    ExperimentSpec,
    SweepSpec,
    WorkloadSpec,
    config_from_dict,
    config_to_dict,
)
from repro.sim.system import SystemConfig


def make_workload(**overrides):
    fields = dict(
        kind="markov",
        n_nodes=8,
        n_references=100,
        write_fraction=0.3,
        seed=5,
        tasks=(0, 1, 2),
    )
    fields.update(overrides)
    return WorkloadSpec(**fields)


def make_spec(**overrides):
    fields = dict(
        protocol="two-mode",
        workload=make_workload(),
        config=SystemConfig(n_nodes=8),
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


class TestWorkloadSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            make_workload(kind="fibonacci")

    def test_markov_without_tasks_rejected(self):
        with pytest.raises(ConfigurationError, match="tasks"):
            make_workload(tasks=())

    @pytest.mark.parametrize("kind", ["markov", "shared-structure"])
    @pytest.mark.parametrize(
        "tasks, error",
        [((0, 8), "task 8 outside 0..7"), ((1, 1), "duplicate tasks")],
    )
    def test_tasks_checked_by_the_generators_rule(self, kind, tasks, error):
        with pytest.raises(ConfigurationError, match=error):
            make_workload(kind=kind, tasks=tasks)

    @pytest.mark.parametrize("kind", ["markov", "shared-structure", "random"])
    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("write_fraction", 1.5, r"write_fraction must be in \[0, 1\]"),
            ("write_fraction", -0.2, r"write_fraction must be in \[0, 1\]"),
            ("n_references", -5, "n_references must be non-negative"),
        ],
    )
    def test_fraction_and_length_checked_by_the_generators_rule(
        self, kind, field, value, error
    ):
        tasks = () if kind == "random" else (0, 1, 2)
        with pytest.raises(ConfigurationError, match=error):
            make_workload(kind=kind, tasks=tasks, **{field: value})

    @pytest.mark.parametrize(
        "kind, field, value, error",
        [
            ("random", "locality", 2.0, "locality must be in [0, 1], got 2.0"),
            (
                "random", "locality", -0.5,
                "locality must be in [0, 1], got -0.5",
            ),
            ("random", "n_blocks", 0, "n_blocks must be positive, got 0"),
            (
                "shared-structure", "n_blocks", -1,
                "n_blocks must be positive, got -1",
            ),
        ]
        + [
            (kind, "block_size_words", 0,
             "block_size_words must be positive, got 0")
            for kind in ("markov", "shared-structure", "random")
        ],
    )
    def test_generator_arguments_refused_at_construction(
        self, kind, field, value, error
    ):
        # The generator's own rule and text, raised before build().
        from repro.workloads.markov import (
            markov_block_trace,
            shared_structure_trace,
        )
        from repro.workloads.synthetic import random_trace

        tasks = () if kind == "random" else (0, 1, 2)
        with pytest.raises(ConfigurationError) as refused:
            make_workload(kind=kind, tasks=tasks, **{field: value})
        assert str(refused.value) == error
        generate = {
            "markov": lambda **kw: markov_block_trace(
                8, [0, 1, 2], 0.3, 100, **kw
            ),
            "shared-structure": lambda **kw: shared_structure_trace(
                8, [0, 1, 2], 0.3, 100, **kw
            ),
            "random": lambda **kw: random_trace(8, 100, **kw),
        }[kind]
        with pytest.raises(ConfigurationError) as generated:
            generate(**{field: value})
        assert str(generated.value) == error

    def test_markov_ignores_the_arguments_it_does_not_take(self):
        # n_blocks and locality are not markov_block_trace arguments.
        workload = make_workload(n_blocks=0, locality=2.0)
        assert len(workload.build()) == workload.n_references

    def test_tasks_normalised_to_tuple(self):
        workload = make_workload(tasks=[0, 1])
        assert workload.tasks == (0, 1)

    @pytest.mark.parametrize(
        "kind,extra",
        [
            ("markov", {}),
            ("shared-structure", {"n_blocks": 4}),
            ("random", {"tasks": (), "n_blocks": 4, "locality": 0.7}),
        ],
    )
    def test_build_is_deterministic(self, kind, extra):
        workload = make_workload(kind=kind, **extra)
        first = workload.build()
        second = workload.build()
        assert list(first) == list(second)
        assert len(first) == workload.n_references

    def test_round_trip(self):
        workload = make_workload(kind="random", tasks=())
        assert WorkloadSpec.from_dict(workload.to_dict()) == workload


class TestConfigSerialisation:
    def test_round_trip_non_defaults(self):
        config = SystemConfig(
            n_nodes=32,
            block_size_words=8,
            cache_entries=4,
            associativity=2,
            replacement="fifo",
            costs=MessageCosts.uniform(20),
            multicast_scheme=MulticastScheme.VECTOR,
            seed=9,
        )
        assert config_from_dict(config_to_dict(config)) == config

    def test_round_trip_defaults(self):
        config = SystemConfig(n_nodes=8)
        assert config_from_dict(config_to_dict(config)) == config


class TestExperimentSpec:
    def test_round_trip(self):
        spec = make_spec(warmup=10, verify=True, check_invariants_every=5)
        rebuilt = ExperimentSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.spec_hash == spec.spec_hash

    def test_hash_is_stable_across_instances(self):
        assert make_spec().spec_hash == make_spec().spec_hash

    def test_hash_sees_every_knob(self):
        base = make_spec()
        variants = [
            make_spec(protocol="no-cache"),
            make_spec(workload=make_workload(seed=6)),
            make_spec(workload=make_workload(write_fraction=0.4)),
            make_spec(config=SystemConfig(n_nodes=16)),
            make_spec(
                config=SystemConfig(
                    n_nodes=8, multicast_scheme=MulticastScheme.UNICAST
                )
            ),
            make_spec(warmup=1),
            make_spec(verify=True),
            make_spec(check_invariants_every=7),
        ]
        hashes = {spec.spec_hash for spec in variants}
        assert base.spec_hash not in hashes
        assert len(hashes) == len(variants)

    def test_empty_protocol_rejected(self):
        with pytest.raises(ConfigurationError, match="protocol"):
            make_spec(protocol="")

    def test_warmup_beyond_trace_rejected(self):
        with pytest.raises(ConfigurationError, match="warmup"):
            make_spec(warmup=101)

    def test_future_version_rejected(self):
        data = make_spec().to_dict()
        data["version"] = 999
        with pytest.raises(ConfigurationError, match="version"):
            ExperimentSpec.from_dict(data)

    def test_describe_names_the_cell(self):
        text = make_spec().describe()
        assert "two-mode" in text
        assert "markov" in text


class TestSweepSpec:
    def test_grid_is_full_cross_product(self):
        sweep = SweepSpec.from_grid(
            "grid",
            protocols=["two-mode", "no-cache"],
            workloads=[make_workload(seed=s) for s in (1, 2, 3)],
            configs=[SystemConfig(n_nodes=8), SystemConfig(n_nodes=16)],
        )
        assert len(sweep) == 2 * 3 * 2
        # Workload-major order: the first two cells share workload+config.
        first, second = sweep.cells[0], sweep.cells[1]
        assert first.workload == second.workload
        assert first.config == second.config
        assert {first.protocol, second.protocol} == {
            "two-mode", "no-cache"
        }

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec.from_grid(
                "empty", protocols=[], workloads=[], configs=[]
            )

    def test_round_trip(self):
        sweep = SweepSpec.from_grid(
            "rt",
            protocols=["two-mode"],
            workloads=[make_workload()],
            configs=[SystemConfig(n_nodes=8)],
        )
        rebuilt = SweepSpec.from_dict(sweep.to_dict())
        assert rebuilt == sweep
        assert rebuilt.spec_hash == sweep.spec_hash

    def test_hash_sees_the_name(self):
        kwargs = dict(
            protocols=["two-mode"],
            workloads=[make_workload()],
            configs=[SystemConfig(n_nodes=8)],
        )
        assert (
            SweepSpec.from_grid("a", **kwargs).spec_hash
            != SweepSpec.from_grid("b", **kwargs).spec_hash
        )


class TestCompiledKnob:
    def test_default_is_compiled_and_hash_neutral(self):
        spec = make_spec()
        assert spec.compiled is True
        assert "compiled" not in spec.to_dict()
        # The knob default must not disturb hashes of pre-existing spec
        # dicts: explicit True serialises identically to the default.
        assert make_spec(compiled=True).spec_hash == spec.spec_hash

    def test_from_dict_defaults_to_compiled(self):
        data = make_spec().to_dict()
        data.pop("compiled", None)
        assert ExperimentSpec.from_dict(data).compiled is True

    def test_disabled_knob_round_trips(self):
        spec = make_spec(compiled=False)
        data = spec.to_dict()
        assert data["compiled"] is False
        rebuilt = ExperimentSpec.from_dict(data)
        assert rebuilt.compiled is False
        assert rebuilt == spec

    def test_build_compiled_matches_build(self):
        workload = make_workload()
        assert workload.build_compiled() == workload.build()
