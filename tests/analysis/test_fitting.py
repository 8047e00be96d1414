"""Tests for power-law fitting helpers."""

import pytest

from repro.analysis import fit_power_law
from repro.errors import AnalysisError


class TestFitPowerLaw:
    def test_exact_power_law_recovered(self):
        xs = [10, 20, 40, 80, 160]
        ys = [3.0 * x**0.75 for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(0.75, abs=1e-9)
        assert fit.prefactor == pytest.approx(3.0, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_linear_data(self):
        xs = [1, 2, 3, 4]
        ys = [2.0 * x for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(1.0)

    def test_noisy_data_reasonable_fit(self):
        xs = [16, 32, 64, 128, 256]
        ys = [x**0.5 * factor for x, factor in zip(xs, (1.1, 0.9, 1.05, 0.95, 1.0))]
        fit = fit_power_law(xs, ys)
        assert 0.4 < fit.exponent < 0.6

    def test_predict(self):
        fit = fit_power_law([2, 4, 8], [4, 16, 64])
        assert fit.predict(16) == pytest.approx(256, rel=1e-6)

    def test_constant_data_r_squared_one(self):
        fit = fit_power_law([1, 2, 4], [5.0, 5.0, 5.0])
        assert fit.exponent == pytest.approx(0.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_validation_errors(self):
        with pytest.raises(AnalysisError):
            fit_power_law([1, 2], [1])
        with pytest.raises(AnalysisError):
            fit_power_law([1], [1])
        with pytest.raises(AnalysisError):
            fit_power_law([0, 1], [1, 2])
        with pytest.raises(AnalysisError):
            fit_power_law([1, 2], [1, -2])
