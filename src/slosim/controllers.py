"""Autoscaling policies: ratio-rule HPA baselines, an HPA+VPA variant, and
the five-stage SLO- and cost-aware pipeline.

Every decision produces a DecisionRecord carrying the intermediate stage
outputs and every guardrail that fired, so a run's audit log fully explains
each replica change.
"""

from __future__ import annotations

import bisect
import math
import sys
from collections import deque
from dataclasses import dataclass, field, replace

from .signals import ForecastState, SignalSnapshot, forecast_horizon, forecast_update
from .sim import ClusterState, nodes_for

CONTROLLER_KINDS = ("default_hpa", "tuned_hpa", "hpa_vpa", "proposed")

# constraint tags recorded in DecisionRecord.constraints_applied
BOUND_CLAMP = "bound_clamp"
STEP_LIMIT = "step_limit"
STABILIZATION_HOLD = "stabilization_hold"
COOLDOWN_HOLD = "cooldown_hold"
COST_FLOOR = "cost_floor"
TOLERANCE_SKIP = "tolerance_skip"


@dataclass(frozen=True)
class ControllerConfig:
    min_replicas: int = 1
    max_replicas: int = 50
    control_interval: float = 15.0
    slo_latency_target: float = 0.2
    tolerance_band: float = 0.10
    max_step_up: int = 20
    max_step_down: int = 20
    scale_up_stabilization: float = 0.0
    scale_down_stabilization: float = 120.0
    cooldown_after_scale_up: float = 60.0
    drain_window: float = 30.0
    target_utilization: float = 0.7      # SLO headroom for the capacity floor
    cost_per_replica_hour: float = 0.1
    cost_per_node_hour: float = 1.0
    forecast_alpha: float = 0.5
    forecast_beta: float = 0.3

    def __post_init__(self):
        if self.min_replicas < 1:
            raise ValueError("min_replicas must be >= 1")
        if self.max_replicas < self.min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")
        if self.control_interval <= 0:
            raise ValueError("control_interval must be > 0")
        for name in ("tolerance_band", "max_step_up", "max_step_down",
                     "scale_up_stabilization", "scale_down_stabilization",
                     "cooldown_after_scale_up", "cost_per_replica_hour",
                     "cost_per_node_hour"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        # each of these divides a demand estimate
        for name in ("slo_latency_target", "target_utilization",
                     "drain_window"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("forecast_alpha", "forecast_beta"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must be in [0, 1]")


@dataclass(frozen=True)
class ScalingAction:
    target_replicas: int
    node_capacity_hint: int | None = None   # slots needed beyond current capacity
    vpa_recommendation: float | None = None  # advisory resource request, never applied


@dataclass(frozen=True)
class DecisionRecord:
    snapshot: SignalSnapshot  # its `t` is the decision's time
    slo_demand: int
    backlog_adjusted: int
    constraints_applied: tuple[str, ...]
    action: ScalingAction
    reason: str


# --------------------------------------------------------------------------
# stage formulas (pure functions; also exercised directly by tests)
# --------------------------------------------------------------------------

def hpa_desired(current: int, metric: float, target: float,
                tolerance: float) -> int:
    """Standard ratio rule: scale replicas by metric/target outside the band."""
    if current < 1:
        raise ValueError("current must be >= 1")
    if target <= 0:
        raise ValueError("target must be > 0")
    ratio = metric / target
    if abs(ratio - 1.0) <= tolerance:
        return current
    return math.ceil(current * ratio)


def replicas_for(demand: float) -> int:
    """Whole replicas covering `demand`. A demand past the float range (the
    largest accepted rates over the smallest accepted service rates) reads
    as the largest float, which exceeds every replica bound, so the
    guardrails clamp it like any other."""
    return math.ceil(min(demand, sys.float_info.max))


def estimate_slo_demand(s: SignalSnapshot, cfg: ControllerConfig,
                        predicted_rate: float, mu: float) -> int:
    """Stage 2: replica requirement from forecast capacity and SLO severity."""
    n_cap = replicas_for(predicted_rate / (mu * cfg.target_utilization))
    if s.latency > cfg.slo_latency_target:
        # a correctly rounded x / y with x > y > 0 is at least 1.0
        severity = s.latency / cfg.slo_latency_target
        return max(n_cap, replicas_for(s.ready_replicas * severity))
    return n_cap


def adjust_for_backlog(n: int, s: SignalSnapshot, cfg: ControllerConfig,
                       mu: float) -> int:
    """Stage 3: enough replicas to drain the backlog within drain_window."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if s.queue <= 0:
        return n
    n_drain = replicas_for(s.arrival_rate / mu
                           + s.queue / (mu * cfg.drain_window))
    return max(n, n_drain)


@dataclass
class GuardrailState:
    """Stabilization window and cooldown bookkeeping for one controller.

    Candidates are recorded in time order and kept for `keep` seconds, so a
    window of any length up to `keep` sees every candidate inside it.
    """

    # (t, candidate replicas), filled by `record_candidate` only
    candidates: deque = field(default_factory=deque, init=False)
    last_scale_up_t: float = -math.inf

    def record_candidate(self, t: float, candidate: int, keep: float):
        self.candidates.append((t, candidate))
        while self.candidates[0][0] < t - keep:
            self.candidates.popleft()

    def window(self, t: float, length: float) -> list[int]:
        """Candidates recorded in [t - length, t], newest first."""
        return [c for ct, c in reversed(self.candidates) if ct >= t - length]


def enforce_guardrails(candidate: int, current: int, cfg: ControllerConfig,
                       history: GuardrailState, now: float
                       ) -> tuple[int, list[str]]:
    """Stage 4: cooldown, stabilization window, step limit, hard bounds."""
    if candidate < 0:
        raise ValueError("candidate must be >= 0")
    constraints: list[str] = []
    # no window reaches back further than the longer one
    keep = max(cfg.scale_up_stabilization, cfg.scale_down_stabilization)
    history.record_candidate(now, candidate, keep)
    # each window below ends at `now` and is >= 0 long, so it holds the
    # candidate just recorded and is never empty
    value = candidate

    if value < current and now - history.last_scale_up_t < cfg.cooldown_after_scale_up:
        value = current
        constraints.append(COOLDOWN_HOLD)
    elif value > current:
        damped = min(history.window(now, cfg.scale_up_stabilization))
        if damped != value:
            constraints.append(STABILIZATION_HOLD)
        value = max(damped, current)  # never turn a scale-up into a scale-down
    elif value < current:
        damped = max(history.window(now, cfg.scale_down_stabilization))
        if damped != value:
            constraints.append(STABILIZATION_HOLD)
        value = min(damped, current)

    if value > current and value - current > cfg.max_step_up:
        value = current + cfg.max_step_up
        constraints.append(STEP_LIMIT)
    elif value < current and current - value > cfg.max_step_down:
        value = current - cfg.max_step_down
        constraints.append(STEP_LIMIT)

    clamped = min(max(value, cfg.min_replicas), cfg.max_replicas)
    if clamped != value:
        constraints.append(BOUND_CLAMP)
    if clamped > current:
        history.last_scale_up_t = now
    return clamped, constraints


def coordinate_actuation(target: int, cluster: ClusterState,
                         node_capacity: int) -> tuple[int | None, str]:
    """Stage 5: emit a node capacity hint when the target is unschedulable."""
    # starting replicas already hold slots, so they count toward the target
    shortfall = target - cluster.total_replicas - cluster.free_slots
    if shortfall <= 0:
        return None, ""
    if cluster.live_nodes >= cluster.params.max_nodes:
        return None, "capacity shortfall but node limit reached"
    whole_nodes = nodes_for(shortfall, node_capacity)
    return whole_nodes * node_capacity, f"hinting {whole_nodes} node(s)"


def vpa_recommend(usage_history: list[float]) -> float | None:
    """Recommend p90 observed usage with a 15% safety margin; advisory only.

    `usage_history` must be in ascending order; the p90 is read by index.
    """
    if not usage_history:
        return None
    idx = math.ceil(0.9 * len(usage_history)) - 1
    return usage_history[idx] * 1.15


# --------------------------------------------------------------------------
# controllers
# --------------------------------------------------------------------------

def cpu_metric(s: SignalSnapshot, mu: float, interval: float) -> float:
    """Busy-fraction CPU proxy the baselines scale on.

    Replicas stay busy while a backlog exists, and measured CPU cannot
    exceed 100%, so the signal saturates at 1.0 under overload.
    """
    if s.ready_replicas == 0:
        return 1.0
    demand = s.arrival_rate + s.queue / interval
    return min(1.0, demand / (s.ready_replicas * mu))


class HpaController:
    """Ratio-rule autoscaler on the CPU proxy (default and tuned variants)."""

    emits_node_hints = False

    def __init__(self, cfg: ControllerConfig, cpu_target: float, mu: float,
                 with_vpa: bool = False):
        self.cfg = cfg
        self.cpu_target = cpu_target
        self.mu = mu
        self.history = GuardrailState()
        # every CPU metric so far, ascending; kept only for the VPA advisor
        self.usage: list[float] | None = [] if with_vpa else None

    def decide(self, s: SignalSnapshot, cluster: ClusterState) -> DecisionRecord:
        cfg = self.cfg
        # the replicas in force, as the Kubernetes HPA reads them from its
        # scale target: the run loop schedules each target right after its
        # decision, and before the first the cluster holds `min_replicas`
        current = cluster.total_replicas + cluster.pending_replicas
        metric = cpu_metric(s, self.mu, cfg.control_interval)
        # a new value lands after equal ones, where a stable sort of the
        # samples in arrival order puts it, so the p90 is unchanged
        usage = self.usage
        if usage is not None:
            bisect.insort(usage, metric)
        cpu_target = self.cpu_target
        desired = hpa_desired(current, metric, cpu_target, cfg.tolerance_band)
        constraints: list[str] = []
        if abs(metric / cpu_target - 1.0) <= cfg.tolerance_band \
                and metric != cpu_target:
            constraints.append(TOLERANCE_SKIP)
        final, guard = enforce_guardrails(desired, current, cfg, self.history, s.t)
        constraints.extend(guard)
        vpa = vpa_recommend(usage) if usage is not None else None
        reason = _describe(final, current, constraints,
                           f"cpu {metric:.2f} vs target {cpu_target:.2f}")
        return DecisionRecord(
            snapshot=s, slo_demand=desired, backlog_adjusted=desired,
            constraints_applied=tuple(constraints),
            action=ScalingAction(final, vpa_recommendation=vpa),
            reason=reason)


class SloCostController:
    """The five-stage SLO- and cost-aware decision pipeline."""

    emits_node_hints = True

    def __init__(self, cfg: ControllerConfig, mu: float, node_capacity: int):
        self.cfg = cfg
        self.mu = mu
        self.node_capacity = node_capacity
        self.history = GuardrailState()
        self.forecast = ForecastState()

    def decide(self, s: SignalSnapshot, cluster: ClusterState) -> DecisionRecord:
        cfg = self.cfg
        current = cluster.total_replicas + cluster.pending_replicas

        # stage 1 is the snapshot itself; fold the observation into the forecast
        self.forecast = forecast_update(self.forecast, s.arrival_rate,
                                        cfg.forecast_alpha, cfg.forecast_beta)
        predicted = forecast_horizon(self.forecast,
                                     cluster.params.pod_start_delay,
                                     cfg.control_interval)
        predicted = max(predicted, s.arrival_rate)  # never plan below what we see

        slo_demand = estimate_slo_demand(s, cfg, predicted, self.mu)
        backlog_adjusted = adjust_for_backlog(slo_demand, s, cfg, self.mu)
        candidate = backlog_adjusted

        constraints: list[str] = []
        if candidate != current \
                and abs(candidate / current - 1.0) <= cfg.tolerance_band:
            candidate = current
            constraints.append(TOLERANCE_SKIP)

        final, guard = enforce_guardrails(candidate, current, cfg,
                                          self.history, s.t)
        constraints.extend(guard)
        if final < current:
            constraints.append(COST_FLOOR)  # settling on the cheapest SLO-safe size

        hint, hint_note = coordinate_actuation(final, cluster,
                                               self.node_capacity)
        reason = _describe(
            final, current, constraints,
            f"latency {s.latency:.3f}s vs SLO {cfg.slo_latency_target:.3f}s, "
            f"queue {s.queue:.0f}, predicted {predicted:.1f} rps")
        if hint_note:
            reason += f"; {hint_note}"
        return DecisionRecord(
            snapshot=s, slo_demand=slo_demand,
            backlog_adjusted=backlog_adjusted,
            constraints_applied=tuple(constraints),
            action=ScalingAction(final, node_capacity_hint=hint),
            reason=reason)


def _describe(final: int, current: int, constraints: list[str],
              signal_note: str) -> str:
    if final > current:
        verb = f"scale up {current}->{final}"
    elif final < current:
        verb = f"scale down {current}->{final}"
    else:
        verb = f"hold at {current}"
    if constraints:
        verb += " (" + ", ".join(constraints) + ")"
    return f"{verb}: {signal_note}"


def baseline_config(kind: str, cfg: ControllerConfig
                    ) -> tuple[ControllerConfig, float]:
    """Fixed baseline parameterizations layered over the shared config, and
    the CPU target the baseline scales on."""
    unlimited = cfg.max_replicas  # effectively no step limit
    if kind == "default_hpa" or kind == "hpa_vpa":
        return replace(cfg, scale_up_stabilization=0.0,
                       scale_down_stabilization=300.0,
                       cooldown_after_scale_up=0.0,
                       max_step_up=unlimited, max_step_down=unlimited), 0.5
    if kind == "tuned_hpa":
        # hand-tuned for responsiveness: lower CPU threshold scales earlier,
        # shorter scale-down window releases burst overshoot sooner
        return replace(cfg, scale_up_stabilization=0.0,
                       scale_down_stabilization=120.0,
                       cooldown_after_scale_up=0.0,
                       max_step_up=8, max_step_down=unlimited), 0.35
    raise ValueError(f"unknown controller kind {kind!r}")


def make_controller(kind: str, cfg: ControllerConfig, mu: float,
                    node_capacity: int):
    if kind == "proposed":
        return SloCostController(cfg, mu, node_capacity)
    return HpaController(*baseline_config(kind, cfg), mu,
                         with_vpa=(kind == "hpa_vpa"))
