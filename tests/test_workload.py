"""Arrival generators: shapes, determinism, and long-run means."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slosim.workload import (
    WorkloadSpec,
    analytic_mean_rate,
    arrivals_at,
    burst_onsets,
    in_burst,
)

BURSTY = WorkloadSpec(kind="bursty", base_rate=50, burst_amplitude=4,
                      burst_duration=60, burst_interval=600)


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(kind="sinusoid")

    @pytest.mark.parametrize("field,value", [
        ("base_rate", -1), ("burst_amplitude", 0.5),
        ("batch_fraction", 1.5), ("noise_std", -0.1),
    ])
    def test_out_of_range_fields_rejected(self, field, value):
        with pytest.raises(ValueError):
            WorkloadSpec(kind="bursty", **{field: value})


class TestBursty:
    def test_quiet_phase_yields_base_rate(self):
        t = 0.0
        assert not in_burst(BURSTY, t)
        assert arrivals_at(BURSTY, 0, t, 1.0) == 50

    def test_burst_phase_multiplies_rate(self):
        onset = burst_onsets(BURSTY, 600)[0]
        assert in_burst(BURSTY, onset)
        assert arrivals_at(BURSTY, 0, onset, 1.0) == 200

    def test_onsets_are_periodic_and_exclude_t0(self):
        onsets = burst_onsets(BURSTY, 3600)
        assert len(onsets) == 6
        assert onsets[0] > 0
        diffs = {b - a for a, b in zip(onsets, onsets[1:])}
        assert diffs == {600.0}

    def test_same_inputs_same_output(self):
        noisy = WorkloadSpec(kind="bursty", base_rate=50, noise_std=0.3)
        assert arrivals_at(noisy, 7, 123, 1.0) == arrivals_at(noisy, 7, 123, 1.0)

    @given(t=st.integers(0, 5000))
    def test_noiseless_generator_is_periodic(self, t):
        period = BURSTY.burst_interval
        assert arrivals_at(BURSTY, 0, t, 1.0) == arrivals_at(BURSTY, 0, t + period, 1.0)

    def test_empirical_mean_matches_analytic_mean(self):
        horizon = 6 * int(BURSTY.burst_interval)
        total = sum(arrivals_at(BURSTY, 0, t, 1.0) for t in range(horizon))
        assert total / horizon == pytest.approx(analytic_mean_rate(BURSTY),
                                                rel=0.01)


class TestQueueDriven:
    SPEC = WorkloadSpec(kind="queue_driven", base_rate=10,
                        ramps=((100, 200, 60), (300, 400, 25)))

    def test_base_rate_outside_ramps(self):
        assert arrivals_at(self.SPEC, 0, 50, 1.0) == 10
        assert arrivals_at(self.SPEC, 0, 250, 1.0) == 10

    def test_ramp_rate_inside_segment(self):
        assert arrivals_at(self.SPEC, 0, 150, 1.0) == 60
        assert arrivals_at(self.SPEC, 0, 350, 1.0) == 25


class TestMixed:
    SPEC = WorkloadSpec(kind="mixed", base_rate=40, batch_fraction=0.3,
                        burst_interval=600)

    def test_steady_stream_excludes_batch_share(self):
        assert arrivals_at(self.SPEC, 0, 0, 1.0) == 28

    def test_bulk_batch_lands_mid_period(self):
        bulk_tick = self.SPEC.burst_interval / 2
        expected = 0.3 * 40 * 600 + 28
        assert arrivals_at(self.SPEC, 0, bulk_tick, 1.0) == expected
        assert arrivals_at(self.SPEC, 0, bulk_tick + 1, 1.0) == 28

    def test_empirical_mean_restores_full_rate(self):
        horizon = 4 * int(self.SPEC.burst_interval)
        total = sum(arrivals_at(self.SPEC, 0, t, 1.0) for t in range(horizon))
        assert total / horizon == pytest.approx(analytic_mean_rate(self.SPEC),
                                                rel=0.01)


spec_strategy = st.builds(
    WorkloadSpec,
    kind=st.sampled_from(("bursty", "mixed")),
    base_rate=st.integers(0, 200),
    burst_amplitude=st.integers(1, 10),
    burst_duration=st.integers(1, 100),
    burst_interval=st.integers(120, 900),
    batch_fraction=st.floats(0, 1),
    noise_std=st.floats(0, 0.5),
)


@settings(deadline=None)
@given(spec=spec_strategy, seed=st.integers(0, 2**31 - 1),
       t=st.integers(0, 10_000))
def test_arrivals_nonnegative_and_deterministic(spec, seed, t):
    first = arrivals_at(spec, seed, t, 1.0)
    assert first >= 0
    assert first == arrivals_at(spec, seed, t, 1.0)
