"""Growth-exponent fitting for scaling experiments.

The reproduction cannot (and is not expected to) match the paper's constant
factors, so the scaling benchmarks validate *exponents*: measured round
counts over a sweep of ``n`` are fitted as ``rounds ≈ a · n^b`` and the
fitted ``b`` is compared to the theorem's exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import AnalysisError


@dataclass(frozen=True)
class PowerLawFit:
    """The result of fitting ``y ≈ a · x^b`` on a log–log scale."""

    exponent: float
    prefactor: float
    r_squared: float

    def predict(self, x: float) -> float:
        """Evaluate the fitted power law at ``x``."""
        return self.prefactor * x ** self.exponent


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Fit ``y ≈ a x^b`` by least squares on log-transformed data.

    Raises
    ------
    AnalysisError
        If fewer than two points are provided or any value is non-positive
        (a power law is undefined there).
    """
    if len(xs) != len(ys):
        raise AnalysisError(
            f"xs and ys must have the same length, got {len(xs)} and {len(ys)}"
        )
    if len(xs) < 2:
        raise AnalysisError("fitting a power law requires at least two points")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise AnalysisError("power-law fitting requires strictly positive data")
    log_x = np.log(np.asarray(xs, dtype=float))
    log_y = np.log(np.asarray(ys, dtype=float))
    slope, intercept = np.polyfit(log_x, log_y, 1)
    predictions = slope * log_x + intercept
    residual = float(np.sum((log_y - predictions) ** 2))
    total = float(np.sum((log_y - np.mean(log_y)) ** 2))
    r_squared = 1.0 if total == 0 else 1.0 - residual / total
    return PowerLawFit(
        exponent=float(slope), prefactor=float(math.exp(intercept)), r_squared=r_squared
    )
