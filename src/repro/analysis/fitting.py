"""Statistical cross-validation: fit measured curves to the §4 forms.

The benchmarks already check *who wins where*; this module checks the
measured curves' *functional form*.  Eq. 10 says write-once traffic is
``w(1-w)(n+2)·CC1`` -- linear in ``n``; eq. 11 says distributed-write
traffic is linear in ``w``; eq. 9 says uncached traffic is affine in
``w`` with slope ``-CC1``.  :func:`fit_linear` (ordinary least squares on
numpy) recovers slope, intercept and R², and the tests assert the
simulator's measurements actually fit the predicted lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class LinearFit:
    """Ordinary-least-squares line through ``(x, y)`` points."""

    slope: float
    intercept: float
    r_squared: float
    n_points: int

    def predict(self, x: float) -> float:
        return self.slope * x + self.intercept


def fit_linear(points: Sequence[tuple[float, float]]) -> LinearFit:
    """Least-squares line fit with the coefficient of determination."""
    if len(points) < 2:
        raise ConfigurationError(
            f"need at least two points to fit a line, got {len(points)}"
        )
    # Imported here, not at module level: the runner and the CLI import
    # this package, so its import is on every process's cold-start path.
    try:
        import numpy as np
    except ImportError as error:
        raise ConfigurationError(
            "fit_linear needs numpy: install the 'analysis' extra "
            "(pip install repro[analysis])"
        ) from error
    xs = np.array([x for x, _ in points], dtype=float)
    ys = np.array([y for _, y in points], dtype=float)
    if np.allclose(xs, xs[0]):
        raise ConfigurationError("all x values identical; cannot fit")
    slope, intercept = np.polyfit(xs, ys, 1)
    predicted = slope * xs + intercept
    residual = float(np.sum((ys - predicted) ** 2))
    total = float(np.sum((ys - np.mean(ys)) ** 2))
    r_squared = 1.0 if total == 0.0 else 1.0 - residual / total
    return LinearFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        n_points=len(points),
    )


def relative_error(measured: float, predicted: float) -> float:
    """|measured - predicted| / |predicted| (0 when both are 0)."""
    if predicted == 0.0:
        return 0.0 if measured == 0.0 else float("inf")
    return abs(measured - predicted) / abs(predicted)


def max_relative_error(
    measured: Sequence[tuple[float, float]],
    predicted: Sequence[tuple[float, float]],
) -> float:
    """Worst pointwise relative error between two aligned series."""
    lookup = dict(predicted)
    worst = 0.0
    for x, y in measured:
        if x not in lookup:
            raise ConfigurationError(
                f"no predicted value at x={x}"
            )
        worst = max(worst, relative_error(y, lookup[x]))
    return worst
