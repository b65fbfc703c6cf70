"""Telemetry snapshots, latency smoothing, and the demand forecast."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from slosim.signals import (
    UTILIZATION_CAP,
    ForecastState,
    forecast_horizon,
    forecast_update,
    sample,
    utilization,
)
from slosim.sim import ServiceModel, observe_latency

MODEL = ServiceModel(per_replica_rate=10.0, base_latency=0.05, latency_cap=30.0)


class TestSample:
    def test_idle_cluster_snapshot(self):
        latency, util = sample(2, 0.0, 0, MODEL)
        assert latency == MODEL.base_latency
        assert util == 0

    def test_exact_saturation_utilization(self):
        _, util = sample(4, 0.0, 40, MODEL)
        assert util == pytest.approx(1.0)

    def test_no_ready_replicas_uses_finite_cap(self):
        latency, util = sample(0, 0.0, 10, MODEL)
        assert util == UTILIZATION_CAP
        assert latency == MODEL.latency_cap

    def test_zero_rate_zero_replicas_is_idle(self):
        assert utilization(0, 0, MODEL.per_replica_rate) == 0.0

    def test_smoothing_blends_previous_latency(self):
        latency, _ = sample(2, 0.0, 0, MODEL, prev_latency=0.15)
        assert latency == pytest.approx(0.5 * 0.05 + 0.5 * 0.15)

    @given(rates=st.lists(st.floats(0, 9.5), min_size=1, max_size=30))
    def test_smoothed_latency_stays_within_observed_range(self, rates):
        prev = None
        raws = []
        for rate in rates:
            raws.append(observe_latency(1, 0.0, rate, MODEL))
            prev, _ = sample(1, 0.0, rate, MODEL, prev)
            assert min(raws) - 1e-9 <= prev <= max(raws) + 1e-9


class TestForecastUpdate:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            forecast_update(ForecastState(), -1.0, 0.5, 0.3)

    def test_constant_input_converges_to_fixed_point(self):
        f = ForecastState()
        for _ in range(100):
            f = forecast_update(f, 42.0, 0.5, 0.3)
        assert f.level == pytest.approx(42.0)
        assert f.trend == pytest.approx(0.0, abs=1e-6)

    def test_degenerate_parameters_track_observation(self):
        f = ForecastState(level=10.0, trend=0.0, primed=True)
        f = forecast_update(f, 33.0, 1.0, 0.0)
        assert f.level == 33.0
        assert f.trend == 0.0

    def test_matches_direct_recurrence_evaluation(self):
        observations = [3.0 * i + 7.0 for i in range(60)]
        f = ForecastState()
        level, trend, primed = 0.0, 0.0, False
        for obs in observations:
            f = forecast_update(f, obs, 0.5, 0.3)
            if not primed:
                level, trend, primed = obs, 0.0, True
            else:
                new_level = 0.5 * obs + 0.5 * (level + trend)
                trend = 0.3 * (new_level - level) + 0.7 * trend
                level = new_level
            assert f.level == pytest.approx(level)
            assert f.trend == pytest.approx(trend)

    def test_linear_series_trend_converges_within_5pct_by_50_steps(self):
        slope = 4.0
        f = ForecastState()
        for i in range(50):
            f = forecast_update(f, slope * i, 0.5, 0.3)
        assert f.trend == pytest.approx(slope, rel=0.05)


class TestForecastHorizon:
    def test_zero_horizon_returns_level(self):
        f = ForecastState(level=100.0, trend=5.0, primed=True)
        assert forecast_horizon(f, 0, 1.0) == 100.0

    def test_zero_trend_is_flat(self):
        f = ForecastState(level=100.0, trend=0.0, primed=True)
        for h in (0, 10, 300):
            assert forecast_horizon(f, h, 1.0) == 100.0

    def test_linear_extrapolation(self):
        f = ForecastState(level=100.0, trend=5.0, primed=True)
        assert forecast_horizon(f, 3.0, 1.0) == 115.0

    def test_never_negative(self):
        f = ForecastState(level=10.0, trend=-50.0, primed=True)
        assert forecast_horizon(f, 5.0, 1.0) == 0.0

    def test_rejects_negative_horizon(self):
        with pytest.raises(ValueError):
            forecast_horizon(ForecastState(), -1.0, 1.0)
