"""Seedable arrival generators: bursty spikes, backlog ramps, mixed batch.

Every generator is a pure function of (spec, t), so the same spec replayed
against different controllers yields identical arrival streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KINDS = ("bursty", "queue_driven", "mixed")
SEED_LIMIT = 2**31  # seeds lie in [0, SEED_LIMIT)


@dataclass(frozen=True)
class WorkloadSpec:
    kind: str
    base_rate: float = 50.0          # requests/second
    burst_amplitude: float = 4.0     # rate multiplier inside a burst window
    burst_duration: float = 60.0     # seconds
    burst_interval: float = 600.0    # seconds between burst starts
    batch_fraction: float = 0.0      # mixed only: share of load arriving in bulk
    noise_std: float = 0.0           # multiplicative log-normal noise, 0 = exact
    seed: int = 0
    ramps: tuple = ()                # queue_driven: (start_t, end_t, rate) plateaus

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown workload kind {self.kind!r}")
        if self.base_rate < 0:
            raise ValueError("base_rate must be >= 0")
        if self.burst_amplitude < 1:
            raise ValueError("burst_amplitude must be >= 1")
        if self.burst_interval <= 0:
            raise ValueError("burst_interval must be > 0")
        if not 0 <= self.burst_duration <= self.burst_interval:
            raise ValueError("burst_duration must be in [0, burst_interval]")
        if not 0 <= self.batch_fraction <= 1:
            raise ValueError("batch_fraction must be in [0, 1]")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"seed must lie in [0, {SEED_LIMIT})")
        if self.ramps and self.kind != "queue_driven":
            raise ValueError("ramps apply only to queue_driven workloads")


def _burst_offset(spec: WorkloadSpec) -> float:
    # bursts sit mid-period so runs never start inside a spike
    return (spec.burst_interval - spec.burst_duration) / 2.0


def in_burst(spec: WorkloadSpec, t: float) -> bool:
    phase = t % spec.burst_interval
    off = _burst_offset(spec)
    return off <= phase < off + spec.burst_duration


def burst_onsets(spec: WorkloadSpec, horizon: float) -> list[float]:
    """Analytic burst start times within [0, horizon) for noiseless specs."""
    off = _burst_offset(spec)
    onsets = []
    t = off
    while t < horizon:
        onsets.append(t)
        t += spec.burst_interval
    return onsets


def _mean_rate(spec: WorkloadSpec, t: float) -> float:
    if spec.kind == "bursty":
        rate = spec.base_rate
        if in_burst(spec, t):
            rate *= spec.burst_amplitude
        return rate
    if spec.kind == "queue_driven":
        rate = spec.base_rate
        for start, end, seg_rate in spec.ramps:
            if start <= t < end:
                rate = seg_rate
        return rate
    # mixed: steady latency-sensitive stream; batches handled separately
    return (1.0 - spec.batch_fraction) * spec.base_rate


def _batch_bulk(spec: WorkloadSpec, t: float, dt: float) -> float:
    """Bulk requests injected once per batch period, mid-period like bursts."""
    if spec.kind != "mixed" or spec.batch_fraction == 0:
        return 0.0
    phase = t % spec.burst_interval
    mid = spec.burst_interval / 2.0
    if mid <= phase < mid + dt:
        return spec.batch_fraction * spec.base_rate * spec.burst_interval
    return 0.0


def _noise_factor(spec: WorkloadSpec, t: float, dt: float) -> float:
    if spec.noise_std == 0:
        return 1.0
    sigma = spec.noise_std
    tick = int(round(t / dt))
    rng = np.random.default_rng([spec.seed, tick])
    # mean-one log-normal so the noiseless analytic mean is preserved
    return float(rng.lognormal(mean=-sigma * sigma / 2.0, sigma=sigma))


def arrivals_at(spec: WorkloadSpec, t: float, dt: float) -> int:
    """Requests arriving in the tick [t, t+dt)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if dt <= 0:
        raise ValueError("dt must be > 0")
    count = _mean_rate(spec, t) * dt + _batch_bulk(spec, t, dt)
    count *= _noise_factor(spec, t, dt)
    return max(0, int(round(count)))


def analytic_mean_rate(spec: WorkloadSpec) -> float:
    """Long-run mean rate of the noiseless piecewise definition (per second)."""
    if spec.kind == "bursty":
        frac = spec.burst_duration / spec.burst_interval
        return spec.base_rate * ((1 - frac) + frac * spec.burst_amplitude)
    if spec.kind == "mixed":
        return spec.base_rate  # steady stream plus batches restores the full rate
    raise ValueError("analytic mean defined for periodic kinds only")
