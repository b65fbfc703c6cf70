"""Seedable arrival generators: bursty spikes, backlog ramps, mixed batch.

Every generator is a pure function of (spec, seed, tick index), so the
same spec and seed replayed against different controllers yield identical
arrival streams.

Blocks: `arrivals_at` answers a tick from a block of ticks, filled on
first use. Tick k's block is the power-of-two range, aligned to its own
size, that holds k, from `FIRST_BLOCK` to `NOISE_BLOCK` ticks long: [0,
64), [64, 128), [128, 256) and so on up to [512, 1024), then every 1024
ticks, so a short run fills few ticks past its end. The filled blocks are
shared by every later call on the same `WorkloadSpec` object, seed and
tick length: in practice, by every controller run on one parsed scenario.
The module keeps one slot, holding the spec itself, so a call on another
spec, seed or tick length empties it. Noiseless specs ignore the seed, so
all seeds share one column. The slot is keyed on identity rather than
equality so that a share lasts no longer than the parsed scenario it
serves: an experiment that parses its documents again computes its
arrivals again, as a fresh `slosim run` would. A block is a function of k
alone, and a call fills only the blocks of the slot it read, from its own
arguments, so calls from several threads may fill a block twice but never
read a wrong one. A caller that alternates between specs, seeds or tick
lengths refills a block at every switch.

Noise: ticks are drawn in chunks of NOISE_BLOCK. Tick k's factor is draw
`k % NOISE_BLOCK` of `numpy.random.default_rng([seed, k // NOISE_BLOCK])
.lognormal(-sigma**2 / 2, sigma, NOISE_BLOCK)`, a mean-one log-normal. It
depends on the seed, k and sigma alone, not on the tick length or the
horizon, so a shorter run reads a prefix of a longer one. No block spans
two chunks, so a block takes its factors from one call. numpy promises no
stream across its releases (NEP 19), so a numpy upgrade may change every
noisy output. `numpy.random` loads at the first noisy draw, not before.

Mixed batches: one per `burst_interval`, landing in the first tick that
starts at or after the period's midpoint, whatever the tick length.
"""

from __future__ import annotations

import math
import operator
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
        if self.ramps and self.kind != "queue_driven":
            raise ValueError("ramps apply only to queue_driven workloads")


def _burst_window(spec: WorkloadSpec) -> tuple[float, float]:
    """The burst's start and end within each period: mid-period, so runs
    never start inside a spike."""
    start = (spec.burst_interval - spec.burst_duration) / 2.0
    return start, start + spec.burst_duration


def in_burst(spec: WorkloadSpec, t: float) -> bool:
    start, end = _burst_window(spec)
    return start <= t % spec.burst_interval < end


def burst_onsets(spec: WorkloadSpec, horizon: float) -> list[float]:
    """Analytic burst start times within [0, horizon) for noiseless specs."""
    off = _burst_window(spec)[0]
    onsets = []
    while (t := off + len(onsets) * spec.burst_interval) < horizon:
        onsets.append(t)
    return onsets


FIRST_BLOCK = 64    # ticks in the block of tick 0; a power of two
NOISE_BLOCK = 1024  # ticks in each block from tick NOISE_BLOCK on; likewise


def _mean_counts(spec: WorkloadSpec, dt: float, ticks: range) -> list[float]:
    """The noiseless arrivals of `ticks`: the mean rate at each tick's
    start, times `dt`, plus, for `mixed`, the batches that land in the tick.

    A batch lands in the first tick that starts at or after its period's
    midpoint; counting the midpoints in [0, k * dt] makes the sum telescope
    to exactly one batch per period. Every count takes the float operations
    of the per-tick formula in `tests/helpers.py`, in its order, so it is
    that formula's to the bit; `+ 0.0` stands for the batch term of the
    other kinds, and turns an int product into a float as that term does.
    """
    base, period = spec.base_rate, spec.burst_interval
    if spec.kind == "bursty":
        start, end = _burst_window(spec)
        quiet = base * dt + 0.0
        loud = base * spec.burst_amplitude * dt + 0.0
        return [loud if start <= k * dt % period < end else quiet
                for k in ticks]
    if spec.kind == "queue_driven":
        # the last plateau that holds the tick's start sets its rate
        plateaus = [(lo, hi, rate * dt + 0.0)
                    for lo, hi, rate in reversed(spec.ramps)]
        quiet = base * dt + 0.0
        return [next((count for lo, hi, count in plateaus
                      if lo <= k * dt < hi), quiet) for k in ticks]
    steady = (1.0 - spec.batch_fraction) * base * dt
    if spec.batch_fraction == 0:
        return [steady + 0.0] * len(ticks)
    mid = period / 2.0
    # midpoints in [0, k * dt] for k from the tick before the first; none
    # lie before the run starts
    landed = [max(0, math.floor((k * dt - mid) / period) + 1)
              for k in range(ticks.start - 1, ticks.stop)]
    return [steady + (now - before) * spec.batch_fraction * base * period
            for before, now in zip(landed, landed[1:])]


def _factors(seed: int, sigma: float, start: int, size: int) -> list[float]:
    """The noise factors of ticks [start, start + size), which lie in one
    chunk of NOISE_BLOCK ticks: draws of that chunk's generator, mean one
    so that the noiseless analytic mean is kept."""
    offset = start % NOISE_BLOCK
    draws = np.random.default_rng([seed, start // NOISE_BLOCK]).lognormal(
        -sigma * sigma / 2.0, sigma, NOISE_BLOCK)
    return draws[offset:offset + size].tolist()


def _fill(spec: WorkloadSpec, seed: int | None, dt: float, start: int,
          size: int) -> list[int | None]:
    """The arrivals of ticks [start, start + size); `seed` is None when
    noiseless.

    A count past the float range is None: the block may reach past the
    run's horizon, so it fails only the run that reads it.
    """
    counts = _mean_counts(spec, dt, range(start, start + size))
    if seed is not None:
        counts = map(operator.mul, counts,
                     _factors(seed, spec.noise_std, start, size))
    return [max(0, round(count)) if count < math.inf else None
            for count in counts]


# (spec, seed or None, dt, {first tick: block}) of the last call; see above
_shared: tuple = (None, None, None, {})


def arrivals_at(spec: WorkloadSpec, seed: int, k: int, dt: float) -> int:
    """Requests arriving in tick `k >= 0`, the interval [k * dt, (k+1) * dt);
    `seed`, in [0, SEED_LIMIT), picks the noise stream.

    Calls on one spec object, seed and `dt` share filled blocks; a call on
    another refills the block it reads (see the module docstring).
    """
    global _shared
    k = operator.index(k)
    if k < 0:
        raise ValueError("k must be >= 0")
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if not spec.noise_std:
        seed = None
    held, held_seed, held_dt, blocks = _shared
    if held is not spec or held_seed != seed or held_dt != dt:
        blocks = {}
        _shared = (spec, seed, dt, blocks)
    # k's aligned power-of-two block: [2**j, 2**(j+1)) for k's top bit 2**j,
    # widened to FIRST_BLOCK and cut to NOISE_BLOCK
    size = NOISE_BLOCK if k >= NOISE_BLOCK else max(
        FIRST_BLOCK, 1 << k.bit_length() >> 1)
    start = k - k % size
    column = blocks.get(start)
    if column is None:
        column = blocks[start] = _fill(spec, seed, dt, start, size)
    count = column[k - start]
    if count is None:
        raise OverflowError(f"arrivals at t={k * dt!r} pass the float range")
    return count


def peak_arrivals(spec: WorkloadSpec, dt: float) -> float:
    """A bound on any tick's noiseless arrivals, as a float: the largest
    rate over a whole tick, plus every batch that can land in it."""
    base = float(spec.base_rate)
    if spec.kind == "bursty":
        if spec.burst_duration > 0:
            base *= spec.burst_amplitude
        return base * dt
    if spec.kind == "queue_driven":
        return max([base, *(rate for _, _, rate in spec.ramps)]) * dt
    # mixed: the steady stream, and at most dt / period + 1 batches
    period = spec.burst_interval
    bulk = spec.batch_fraction * base * period
    return (1.0 - spec.batch_fraction) * base * dt + (dt / period + 1) * bulk
