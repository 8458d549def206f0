"""Statistical fits of measured curves to the §4 functional forms."""

import pytest

from repro.analysis.compare import simulated_cost_curve
from repro.analysis.fitting import (
    fit_linear,
    max_relative_error,
    relative_error,
)
from repro.analysis.sweep import series_by_protocol, sharer_sweep
from repro.errors import ConfigurationError
from repro.protocol.write_once import WriteOnceProtocol


class TestFitLinear:
    def test_perfect_line(self):
        fit = fit_linear([(0, 1), (1, 3), (2, 5)])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_predict(self):
        fit = fit_linear([(0, 0), (2, 4)])
        assert fit.predict(5) == pytest.approx(10.0)

    def test_noise_lowers_r_squared(self):
        noisy = [(0, 0), (1, 2.5), (2, 3.5), (3, 6.5), (4, 7.5)]
        fit = fit_linear(noisy)
        assert 0.9 < fit.r_squared < 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            fit_linear([(1, 1)])
        with pytest.raises(ConfigurationError):
            fit_linear([(1, 1), (1, 2)])

    def test_relative_error(self):
        assert relative_error(110, 100) == pytest.approx(0.1)
        assert relative_error(0, 0) == 0.0
        assert relative_error(1, 0) == float("inf")

    def test_max_relative_error_requires_aligned_series(self):
        with pytest.raises(ConfigurationError):
            max_relative_error([(1, 1)], [(2, 1)])


class TestMeasuredCurvesFitTheModel:
    """The simulator's output has the functional forms §4 derives."""

    def test_no_cache_cost_is_affine_in_w(self):
        """Eq. 9: cost/CC1 = 2 - w -> slope -1, intercept 2."""
        curves = simulated_cost_curve(
            (0.1, 0.3, 0.5, 0.7, 0.9),
            n_sharers=4,
            n_nodes=8,
            references=2000,
            warmup=100,
            seed=1,
        )
        fit = fit_linear(curves["no-cache"])
        assert fit.r_squared > 0.999
        assert fit.slope == pytest.approx(-1.0, abs=0.05)
        assert fit.intercept == pytest.approx(2.0, abs=0.05)

    def test_write_once_cost_per_round_is_linear_in_sharers(self):
        """Eq. 10's structure: each shared->exclusive transition costs an
        invalidation to n caches plus n block reloads.  On a
        producer/consumer workload (every consumer re-reads each round,
        so all n copies exist at every invalidation) with scheme-1
        multicast (eq. 10's bound), the per-round traffic is linear in n.
        """
        from repro.network.multicast import MulticastScheme
        from repro.sim.engine import run_trace
        from repro.sim.system import System, SystemConfig
        from repro.workloads.sharing import producer_consumer_trace

        rounds = 30
        points = []
        for n in (2, 4, 8, 16):
            trace = producer_consumer_trace(
                32, 0, list(range(1, n + 1)), rounds,
                block_size_words=2,
            )
            system = System(
                SystemConfig(
                    n_nodes=32,
                    block_size_words=2,
                    multicast_scheme=MulticastScheme.UNICAST,
                )
            )
            report = run_trace(
                WriteOnceProtocol(system), trace, verify=True
            )
            points.append((n, report.network_total_bits / rounds))
        fit = fit_linear(points)
        assert fit.r_squared > 0.99
        assert fit.slope > 0

    def test_write_once_cost_saturates_in_sharers_under_sparse_reads(
        self,
    ):
        """With random (sparse) reads and the combined multicast, the
        measured write-once curve is *sub-linear* in n: only the caches
        that actually re-read between writes hold copies, and the tree
        multicast compresses the invalidations.  Eq. 10 is an upper
        bound, and the simulator shows how loose it can be."""
        records = sharer_sweep(
            (2, 8, 32),
            0.3,
            n_nodes=64,
            references=2500,
            seed=2,
        )
        series = series_by_protocol(records, "n_sharers")["write-once"]
        costs = dict(series)
        growth = costs[32] / costs[2]
        assert 1.0 < growth < 16  # grows, but far below the 16x of n

    def test_distributed_write_cost_is_linear_in_w(self):
        """Eq. 11: cost = w·CC4(n) -> linear through the origin in w."""
        curves = simulated_cost_curve(
            (0.1, 0.3, 0.5, 0.7, 0.9),
            n_sharers=8,
            n_nodes=16,
            references=2500,
            warmup=300,
            seed=3,
        )
        fit = fit_linear(curves["distributed-write"])
        assert fit.r_squared > 0.98
        assert fit.slope > 0
        # Through (near) the origin: no writes, no traffic.
        assert abs(fit.intercept) < 0.35 * fit.predict(1.0)

    def test_global_read_cost_is_linear_decreasing_in_w(self):
        """Eq. 12: cost = 2(1-w)·CC1 -> negative slope, zero at w=1."""
        curves = simulated_cost_curve(
            (0.1, 0.3, 0.5, 0.7, 0.9),
            n_sharers=8,
            n_nodes=16,
            references=2500,
            warmup=300,
            seed=4,
        )
        fit = fit_linear(curves["global-read"])
        assert fit.r_squared > 0.98
        assert fit.slope < 0
        assert abs(fit.predict(1.0)) < 0.3
