"""Seedable arrival generators: bursty spikes, backlog ramps, mixed batch.

Every generator is a pure function of (spec, seed, tick index), so the
same spec and seed replayed against different controllers yield identical
arrival streams.

Blocks: `arrivals_at` answers a tick from a block of ticks, filled on
first use by the per-tick formula. Tick k's block is the power-of-two
range, aligned to its own size, that holds k, from `FIRST_BLOCK` to
`NOISE_BLOCK` ticks long: [0, 64), [64, 128), [128, 256) and so on up to
[512, 1024), then every 1024 ticks, so a short run fills few ticks past
its end. The filled blocks are shared by every later call on the same
`WorkloadSpec` object, seed and tick length: in practice, by every
controller run on one parsed scenario. The module keeps one slot, holding
the spec itself, so a call on another spec, seed or tick length empties
it. Noiseless specs ignore the seed, so all seeds share one column. The
slot is keyed on identity rather than equality so that a share lasts no
longer than the parsed scenario it serves: an experiment that parses its
documents again computes its arrivals again, as a fresh `slosim run`
would. A block is a function of k alone, and a call fills only the
blocks of the slot it read, from its own arguments, so calls from several
threads may fill a block twice but never read a wrong one. A caller that
alternates between specs, seeds or tick lengths refills a block at every
switch.

Noise: tick k's factor is the first mean-one log-normal draw of
`numpy.random.default_rng([seed, k])`. `_seed_words` hashes the seeding
words of a block's generators at once, as a vectorised copy of numpy's
`SeedSequence` (kept stable by NEP 19), and numpy's own `PCG64` and
`Generator` draw from them, so every factor is numpy's to the bit.
`numpy.random` is imported at the first noisy draw, not before.

Mixed batches: one per `burst_interval`, landing in the first tick that
starts at or after the period's midpoint, whatever the tick length.
"""

from __future__ import annotations

import functools
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
    while (t := off + len(onsets) * spec.burst_interval) < horizon:
        onsets.append(t)
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


def _batch_bulk(spec: WorkloadSpec, k: int, dt: float) -> float:
    """Bulk requests injected in tick `k` of length `dt`, once per batch
    period, mid-period like bursts.

    A batch lands in the first tick that starts at or after its period's
    midpoint; counting from the tick index makes the sum telescope to
    exactly one batch per period.
    """
    if spec.kind != "mixed" or spec.batch_fraction == 0:
        return 0.0
    period = spec.burst_interval
    mid = period / 2.0

    def landed(k: int) -> int:
        # midpoints in [0, k * dt]; none lie before the run starts
        return max(0, math.floor((k * dt - mid) / period) + 1)

    batches = landed(k) - landed(k - 1)
    return batches * spec.batch_fraction * spec.base_rate * period


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4
FIRST_BLOCK = 64    # ticks in the block of tick 0; a power of two
NOISE_BLOCK = 1024  # ticks in each block from tick NOISE_BLOCK on; likewise


def _powers(init: int, mult: int, n: int) -> np.ndarray:
    """`init * mult**j mod 2**32` for j in [0, n], as a uint32 column."""
    return np.array([[init * pow(mult, j, 2**32) & 0xFFFFFFFF]
                     for j in range(n + 1)], np.uint32)


# numpy's hashmix calls, in order, xor with row j of a table and multiply
# by row j + 1: 4 for the pool, 3 for each source word, 8 for the output
_HASH_A = _powers(_INIT_A, _MULT_A, _POOL * _POOL)
_HASH_B = _powers(_INIT_B, _MULT_B, 2 * _POOL)
# the rows of the pool each source word mixes into
_OTHERS = [np.arange(_POOL) != src for src in range(_POOL)]


def _hash(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """numpy's hashmix of `words`, row i as the call that uses `consts[i]`
    and `consts[i + 1]`; a single row of words serves every call."""
    value = (words ^ consts[:-1]) * consts[1:]
    return value ^ (value >> 16)


def _seed_words(seed: int, ticks: np.ndarray) -> np.ndarray:
    """`SeedSequence([seed, tick]).generate_state(4, np.uint64)` for each
    uint64 tick in `ticks`, one row per tick."""
    # numpy's entropy is [seed, tick] as 32-bit words (a tick of 2**32 or
    # more takes two, low first); the pool of four is padded with zeros
    pool = np.zeros((_POOL, len(ticks)), np.uint32)
    pool[0] = seed
    pool[1] = ticks & 0xFFFFFFFF
    pool[2] = ticks >> 32
    pool = _hash(pool, _HASH_A[:_POOL + 1])
    # a source word changes only the other three, so it is hashed once for
    # each and mixed into all three at once
    for src, others in enumerate(_OTHERS):
        call = _POOL + 3 * src
        value = (_MIX_L * pool[others]
                 - _MIX_R * _hash(pool[src], _HASH_A[call:call + 4]))
        pool[others] = value ^ (value >> 16)
    state = _hash(np.tile(pool, (2, 1)), _HASH_B)
    # numpy pairs the 32-bit words little-endian first on every host
    pairs = state.T.astype("<u4", order="C").view("<u8")
    return pairs.astype(np.uint64, copy=False)


@functools.cache
def _lognormal_draws():
    """`draws(seed, sigma, ticks)`: for each uint64 tick in `ticks`, numpy's
    first mean-one log-normal draw from `default_rng([seed, tick])`.
    Imports `numpy.random` on first use."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        """The words `SeedSequence` would give PCG64, already hashed."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("holds PCG64's four uint64 words only")
            return self.words

    def draws(seed: int, sigma: float, ticks: np.ndarray) -> list[float]:
        # mean-one log-normal so the noiseless analytic mean is preserved
        mean = -sigma * sigma / 2.0
        return [float(Generator(PCG64(Words(words))).lognormal(mean, sigma))
                for words in _seed_words(seed, ticks)]

    return draws


def _fill(spec: WorkloadSpec, seed: int | None, dt: float, start: int,
          size: int) -> list[int | None]:
    """The arrivals of ticks [start, start + size); `seed` is None when
    noiseless.

    A count past the float range is None: the block may reach past the
    run's horizon, so it fails only the run that reads it.
    """
    counts = [_mean_rate(spec, k * dt) * dt + _batch_bulk(spec, k, dt)
              for k in range(start, start + size)]
    if seed is not None:
        ticks = np.arange(start, start + size, dtype=np.uint64)
        counts = map(operator.mul, counts,
                     _lognormal_draws()(seed, spec.noise_std, ticks))
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
