"""Arrival generators: shapes, determinism, long-run means, the shared
blocks against the per-tick formula, and the noise contract against numpy's
own generator."""

import dataclasses
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slosim
from slosim import workload
from slosim.runner import run
from slosim.scenario import parse_scenario
from slosim.workload import (
    FIRST_BLOCK,
    NOISE_BLOCK,
    WorkloadSpec,
    _factors,
    arrivals_at,
    burst_onsets,
    in_burst,
    peak_arrivals,
)

from helpers import (
    analytic_mean_rate,
    arrivals_oracle,
    bundled_doc,
    noise_factor,
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
        assert not in_burst(BURSTY, 0.0)
        assert arrivals_at(BURSTY, 0, 0, 1.0) == 50

    def test_burst_phase_multiplies_rate(self):
        onset = burst_onsets(BURSTY, 600)[0]
        assert in_burst(BURSTY, onset)
        assert arrivals_at(BURSTY, 0, int(onset), 1.0) == 200

    def test_onsets_are_periodic_and_exclude_t0(self):
        onsets = burst_onsets(BURSTY, 3600)
        assert len(onsets) == 6
        assert onsets[0] > 0
        diffs = {b - a for a, b in zip(onsets, onsets[1:])}
        assert diffs == {600.0}

    def test_onsets_do_not_drift_over_a_day(self):
        spec = WorkloadSpec(kind="bursty", burst_duration=0.1,
                            burst_interval=0.3)
        off = (0.3 - 0.1) / 2
        onsets = burst_onsets(spec, 86_400)
        assert len(onsets) == 288_000
        assert onsets == [off + i * 0.3 for i in range(len(onsets))]

    def test_same_inputs_same_output(self):
        noisy = WorkloadSpec(kind="bursty", base_rate=50, noise_std=0.3)
        assert arrivals_at(noisy, 7, 123, 1.0) == arrivals_at(noisy, 7, 123, 1.0)

    @given(k=st.integers(0, 5000))
    def test_noiseless_generator_is_periodic(self, k):
        period = int(BURSTY.burst_interval)
        assert arrivals_at(BURSTY, 0, k, 1.0) == arrivals_at(BURSTY, 0, k + period, 1.0)

    def test_empirical_mean_matches_analytic_mean(self):
        horizon = 6 * int(BURSTY.burst_interval)
        total = sum(arrivals_at(BURSTY, 0, k, 1.0) for k in range(horizon))
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
        bulk_tick = int(self.SPEC.burst_interval / 2)
        expected = 0.3 * 40 * 600 + 28
        assert arrivals_at(self.SPEC, 0, bulk_tick, 1.0) == expected
        assert arrivals_at(self.SPEC, 0, bulk_tick + 1, 1.0) == 28

    def test_empirical_mean_restores_full_rate(self):
        horizon = 4 * int(self.SPEC.burst_interval)
        total = sum(arrivals_at(self.SPEC, 0, k, 1.0) for k in range(horizon))
        assert total / horizon == pytest.approx(analytic_mean_rate(self.SPEC),
                                                rel=0.01)

    # every request in a batch: a tick's arrivals are its batches alone
    BATCHES = dataclasses.replace(SPEC, batch_fraction=1)

    # 60 periods of 600 s: every tick start up to the last midpoint, 35 700 s
    @pytest.mark.parametrize("dt,n_ticks", [
        (0.1, 360_000), (0.3, 120_000), (0.6, 60_000), (0.7, 51_429),
        (700, 52),
    ])
    def test_one_batch_per_period_at_any_tick(self, dt, n_ticks):
        bulk = 40 * 600
        total = sum(arrivals_at(self.BATCHES, 0, k, dt)
                    for k in range(n_ticks))
        assert total == 60 * bulk

    def test_batch_lands_in_first_tick_at_or_after_midpoint(self):
        dt = 0.7
        landed = [k for k in range(1000)
                  if arrivals_at(self.BATCHES, 0, k, dt)]
        assert landed == [429]  # 428 * 0.7 < 300 <= 429 * 0.7


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
       k=st.integers(0, 10_000))
def test_arrivals_nonnegative_and_deterministic(spec, seed, k):
    first = arrivals_at(spec, seed, k, 1.0)
    assert first >= 0
    assert first == arrivals_at(spec, seed, k, 1.0)


class TestTickContract:
    @pytest.mark.parametrize("dt", [0.1, 2.5])
    def test_tick_index_counts_ticks_of_dt(self, dt):
        assert arrivals_at(BURSTY, 0, 3, dt) == round(50 * dt)

    def test_negative_k_and_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError, match="k must be"):
            arrivals_at(BURSTY, 0, -1, 1.0)
        with pytest.raises(ValueError, match="dt must be"):
            arrivals_at(BURSTY, 0, 1, 0)

    @pytest.mark.parametrize("k", [2.5, 3.0])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(TypeError):
            arrivals_at(BURSTY, 0, k, 1.0)


class TestSharedBlocks:
    def test_one_spec_at_two_tick_lengths(self):
        spec = WorkloadSpec(kind="bursty", base_rate=50, noise_std=0.3)
        for k in (0, 5, NOISE_BLOCK + 2):
            for dt in (0.5, 1.0):
                assert arrivals_at(spec, 4, k, dt) \
                    == arrivals_oracle(spec, 4, k, dt), (k, dt)

    def test_a_count_past_the_float_range_fails_only_its_tick(self):
        spec = WorkloadSpec(kind="bursty", base_rate=1e308 / 1.01,
                            burst_amplitude=1, noise_std=0.3)
        failed = 0
        for k in range(NOISE_BLOCK):
            try:
                want = arrivals_oracle(spec, 5, k, 1.0)
            except OverflowError:
                failed += 1
                with pytest.raises(OverflowError, match=f"t={float(k)!r}"):
                    arrivals_at(spec, 5, k, 1.0)
            else:
                assert arrivals_at(spec, 5, k, 1.0) == want
        assert 0 < failed < NOISE_BLOCK

    def test_share_is_keyed_on_the_spec_object(self):
        """An equal spec parsed again fills its blocks again."""
        specs = [WorkloadSpec(kind="bursty", base_rate=50) for _ in range(2)]
        with mock.patch.object(workload, "_fill",
                               wraps=workload._fill) as fill:
            for spec in (specs[0], specs[0], specs[1], specs[1]):
                for seed in (1, 2):  # noiseless: the seed is not read
                    arrivals_at(spec, seed, 7, 1.0)
        assert fill.call_count == 2

    def test_blocks_double_up_to_noise_block(self):
        spec = WorkloadSpec(kind="bursty", base_rate=50, noise_std=0.3)
        with mock.patch.object(workload, "_fill",
                               wraps=workload._fill) as fill:
            for k in range(120):
                arrivals_at(spec, 6, k, 1.0)
            # a 120-tick run fills 128 ticks
            assert [call.args[3:] for call in fill.call_args_list] \
                == [(0, FIRST_BLOCK), (FIRST_BLOCK, FIRST_BLOCK)]
            for k in range(120, 3000):
                arrivals_at(spec, 6, k, 1.0)
        assert [call.args[3:] for call in fill.call_args_list] \
            == [(0, 64), (64, 64), (128, 128), (256, 256), (512, 512),
                (1024, 1024), (2048, 1024)]


# the first and last tick of each of the first six blocks
BLOCK_EDGES = [0, 63, 64, 127, 128, 255, 256, 511, 512, 1023, 1024, 2047]


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(("bursty", "queue_driven", "mixed")),
       ramps=st.booleans(),
       dt=st.sampled_from([0.1, 0.5, 1, 2.5]),
       noise_std=st.sampled_from([0, 0.3]),
       seeds=st.lists(st.integers(0, 2**31 - 1), min_size=2, max_size=2,
                      unique=True),
       ticks=st.lists(st.sampled_from(BLOCK_EDGES)
                      | st.integers(0, 3 * NOISE_BLOCK), max_size=4))
def test_blocks_match_the_per_tick_formula(kind, ramps, dt, noise_std, seeds,
                                           ticks):
    """Calls alternate, call by call, between two equal but distinct specs
    and two seeds; every answer is the per-tick formula's, on both sides of
    a block boundary and elsewhere. `peak_arrivals` bounds each noiseless
    count."""
    fields = dict(kind=kind, base_rate=1e6, burst_duration=90,
                  burst_interval=700, noise_std=noise_std)
    if kind == "mixed":
        fields["batch_fraction"] = 0.3
    if kind == "queue_driven" and ramps:
        fields["ramps"] = ((100, 400, 3e6), (2000, 2100, 5e5))
    specs = (WorkloadSpec(**fields), WorkloadSpec(**fields))
    assert specs[0] == specs[1] and specs[0] is not specs[1]
    for k in [NOISE_BLOCK - 1, NOISE_BLOCK, *ticks]:
        for spec in specs:
            for seed in seeds:
                got = arrivals_at(spec, seed, k, dt)
                assert got == arrivals_oracle(spec, seed, k, dt), (k, seed)
                if not noise_std:
                    assert got <= peak_arrivals(spec, dt) + 0.5, k


class TestNoiseOracle:
    """Tick k's factor is draw `k % NOISE_BLOCK` of numpy's mean-one
    log-normal draws from `default_rng([seed, k // NOISE_BLOCK])`,
    exactly."""

    SIGMA = 0.3
    SPEC = WorkloadSpec(kind="bursty", base_rate=1e6, burst_amplitude=1,
                        noise_std=SIGMA)
    SEEDS = [0, 1, 2**31 - 1,
             *map(int, np.random.default_rng(2024).integers(0, 2**31, 3))]
    TICKS = [0, NOISE_BLOCK - 1, NOISE_BLOCK, 2 * NOISE_BLOCK - 1, 86_399,
             2**32 - 1, 2**32, 2**40 + 5, 2**41 + 5,
             *map(int, np.random.default_rng(2025).integers(0, 2**41, 6))]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_factor_equals_default_rng_draw(self, seed):
        """Each factor, read from the FIRST_BLOCK-aligned block that holds
        its tick, is the chunk draw."""
        for tick in self.TICKS:
            start = tick - tick % FIRST_BLOCK
            got = _factors(seed, self.SIGMA, start, FIRST_BLOCK)
            assert got[tick - start] \
                == noise_factor(seed, self.SIGMA, tick), tick

    def test_seeds_interleaved_call_by_call(self):
        seeds = (3, 2**31 - 1, 77)
        ticks = [*range(NOISE_BLOCK - 40, NOISE_BLOCK + 40),
                 *range(5 * NOISE_BLOCK - 3, 5 * NOISE_BLOCK + 3), 7, 86_399]
        for tick in ticks:
            for seed in seeds:
                got = arrivals_at(self.SPEC, seed, tick, 1.0)
                want = self.SPEC.base_rate * noise_factor(seed, self.SIGMA,
                                                          tick)
                assert got == round(want), (seed, tick)

    def test_fractional_tick_uses_the_tick_index(self):
        """A factor depends on the tick index, not on the tick length."""
        for dt in (0.1, 0.5, 2.5):
            for k in (0, 3, NOISE_BLOCK, 86_399):
                want = (self.SPEC.base_rate * dt
                        * noise_factor(9, self.SIGMA, k))
                assert arrivals_at(self.SPEC, 9, k, dt) == round(want), dt

    def test_a_shorter_run_reads_a_prefix_of_a_longer_one(self):
        """Horizons of 700 and 1500 s at half-second ticks: the shorter run
        ends inside the second chunk, the longer inside the third."""
        doc = bundled_doc("bursty")
        doc.update(tick=0.5, horizon=1500)
        doc["workload"]["noise_std"] = self.SIGMA
        longer = run(parse_scenario(doc), "proposed").arrivals
        doc["horizon"] = 700
        shorter = run(parse_scenario(doc), "proposed").arrivals
        assert len(shorter) == 1400 and len(longer) == 3000
        assert shorter == longer[:1400]

    def test_log_factors_have_the_stated_mean_and_spread(self):
        """Over 10**5 factors the log has mean -sigma**2 / 2 and standard
        deviation sigma. The standard errors are sigma / 316 = 0.00095 and
        sigma / 447 = 0.00067, so both tolerances are over seven of them."""
        n = 100_000
        logs = [math.log(f) for start in range(0, n, NOISE_BLOCK)
                for f in _factors(11, self.SIGMA, start,
                                  min(NOISE_BLOCK, n - start))]
        assert len(logs) == n
        mean = sum(logs) / n
        std = math.sqrt(sum((x - mean) ** 2 for x in logs) / (n - 1))
        assert mean == pytest.approx(-self.SIGMA ** 2 / 2, abs=0.007)
        assert std == pytest.approx(self.SIGMA, abs=0.005)


def test_noiseless_run_never_imports_numpy_random():
    """numpy.random costs interpreter start-up time; only noise needs it."""
    code = textwrap.dedent("""
        import sys
        from pathlib import Path
        import slosim
        from slosim import cli, metrics, runner, scenario
        scn = scenario.load_scenario(
            Path(slosim.__file__).parent / "scenarios" / "bursty.json")
        assert scn.workload.noise_std == 0
        for kind in scn.controllers:
            trace = runner.run(scn, kind)
            metrics.build_report(trace, scn.workload, scn.controller,
                                 scn.service.per_replica_rate)
        print("numpy.random" in sys.modules)
    """)
    src = str(Path(slosim.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
