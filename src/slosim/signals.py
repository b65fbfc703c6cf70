"""Controller-facing telemetry: the per-tick latency and utilization
sample, the (latency, queue, utilization, pending) snapshot a controller
decides on, and Holt linear demand forecasting.

`sample` runs on every tick and returns plain floats. The run loop builds a
`SignalSnapshot` from them only on the ticks where a controller decides.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sim import ServiceModel, observe_latency

UTILIZATION_CAP = 1e6  # stands in for infinity when no replica is ready
LATENCY_SMOOTHING = 0.5  # EWMA weight of the newest latency observation


@dataclass(frozen=True)
class SignalSnapshot:
    t: float
    latency: float          # smoothed latency, the SLO (p95 proxy) signal
    queue: float            # request backlog
    utilization: float      # offered load / ready capacity, unbounded above
    pending: int            # replicas that could not be scheduled
    arrival_rate: float     # requests/second observed this interval
    ready_replicas: int


def utilization(arrival_rate: float, ready_replicas: int, mu: float) -> float:
    if ready_replicas == 0:
        return UTILIZATION_CAP if arrival_rate > 0 else 0.0
    return arrival_rate / (ready_replicas * mu)


def sample(ready: int, queue_depth: float, arrival_rate: float,
           model: ServiceModel,
           prev_latency: float | None = None) -> tuple[float, float]:
    """The tick's (latency, utilization) for `ready` ready pods and a
    `queue_depth` backlog, EWMA-smoothing latency against the previous
    sample."""
    raw = observe_latency(ready, queue_depth, arrival_rate, model)
    if prev_latency is None:
        lat = raw
    else:
        w = LATENCY_SMOOTHING
        lat = w * raw + (1.0 - w) * prev_latency
    return lat, utilization(arrival_rate, ready, model.per_replica_rate)


@dataclass(frozen=True)
class ForecastState:
    """Holt linear (double exponential) smoothing state."""

    level: float = 0.0
    trend: float = 0.0   # rate change per update step
    primed: bool = False


def forecast_update(f: ForecastState, observed_rate: float, alpha: float,
                    beta: float) -> ForecastState:
    """Fold `observed_rate` into `f` with level gain `alpha` and trend gain
    `beta`, both in [0, 1]."""
    if observed_rate < 0:
        raise ValueError("observed_rate must be >= 0")
    if not f.primed:
        return ForecastState(level=observed_rate, primed=True)
    level = alpha * observed_rate + (1.0 - alpha) * (f.level + f.trend)
    trend = beta * (level - f.level) + (1.0 - beta) * f.trend
    return ForecastState(level, trend, primed=True)


def forecast_horizon(f: ForecastState, h: float, dt: float) -> float:
    """Rate expected h seconds ahead; dt is the update-step length."""
    if h < 0:
        raise ValueError("h must be >= 0")
    return max(0.0, f.level + f.trend * (h / dt))
