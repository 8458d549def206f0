"""Tests for the declared grids and the parameter-sweep harness."""

import pytest

from repro.analysis.compare import default_factories
from repro.analysis.sweep import (
    fig8_grid,
    series_by_protocol,
    sharer_grid,
    sharer_sweep,
    sweep_records,
)
from repro.errors import ConfigurationError


class TestGrids:
    def test_cells_are_point_major_in_sorted_protocol_order(self):
        sweep = sharer_grid("g", [4, 2], 0.3, n_nodes=8, references=100)
        assert [cell.protocol for cell in sweep] == (
            sorted(default_factories()) * 2
        )
        assert [len(cell.workload.tasks) for cell in sweep] == (
            [4] * 6 + [2] * 6
        )

    def test_fig8_cells_carry_the_warmup_split(self):
        sweep = fig8_grid(
            "g", (0.1, 0.9), 4, n_nodes=8, references=300, warmup=50
        )
        assert {cell.warmup for cell in sweep} == {50}
        assert {cell.workload.n_references for cell in sweep} == {350}
        fractions = [c.workload.write_fraction for c in sweep.cells[::6]]
        assert fractions == [0.1, 0.9]

    def test_fig8_validation(self):
        with pytest.raises(ConfigurationError):
            fig8_grid("g", (0.5,), 0)
        with pytest.raises(ConfigurationError):
            fig8_grid("g", (0.5,), 4, references=0)
        with pytest.raises(ConfigurationError):
            fig8_grid("g", (0.5,), 4, warmup=-1)

    def test_sweep_records_reads_only_the_two_swept_parameters(self):
        with pytest.raises(KeyError):
            sweep_records([], "seed")


class TestSharerSweep:
    def test_one_record_per_point_and_protocol(self):
        records = sharer_sweep(
            [2, 4, 8], 0.3, n_nodes=8, references=100, seed=1
        )
        assert len(records) == 3 * len(default_factories())
        assert {record.protocol for record in records} == set(
            default_factories()
        )

    def test_records_carry_parameters_and_events(self):
        records = sharer_sweep([4], 0.3, n_nodes=8, references=50)
        record = next(r for r in records if r.protocol == "no-cache")
        assert record.parameter("n_sharers") == 4
        assert dict(record.events)["reads"] > 0
        with pytest.raises(KeyError):
            record.parameter("missing")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            sharer_sweep([0], 0.3)
        with pytest.raises(ConfigurationError):
            sharer_sweep([128], 0.3, n_nodes=64)

    def test_no_cache_cost_is_flat_in_n(self):
        records = sharer_sweep([2, 8, 32], 0.3, references=800, seed=3)
        costs = [
            record.cost_per_reference
            for record in records
            if record.protocol == "no-cache"
        ]
        assert max(costs) - min(costs) < 0.1 * max(costs)

    def test_dw_write_cost_grows_with_sharers(self):
        records = sharer_sweep([2, 8, 32], 0.5, references=1200, seed=4)
        series = series_by_protocol(records, "n_sharers")
        costs = [cost for _, cost in series["distributed-write"]]
        assert costs == sorted(costs)


class TestSeriesPivot:
    def test_series_are_sorted_by_parameter(self):
        records = sharer_sweep([8, 2, 4], 0.2, references=200, seed=5)
        series = series_by_protocol(records, "n_sharers")
        xs = [x for x, _ in series["no-cache"]]
        assert xs == [2, 4, 8]
