"""Per-run metrics (SLO adherence, responsiveness, cost, stability) and
cross-controller comparison tables."""

from __future__ import annotations

import io
import math
import statistics
from dataclasses import asdict, dataclass, fields

from .controllers import ControllerConfig, replicas_for
from .runner import RunTrace
from .workload import WorkloadSpec, burst_onsets

OSCILLATION_WINDOW = 120.0  # seconds within which a direction flip counts


@dataclass(frozen=True)
class MetricsReport:
    controller: str
    slo_violation_count: int
    slo_violation_duration: float
    mean_time_to_scale: float | None   # None when not applicable (non-bursty)
    node_hours: float
    replica_hours: float
    cost: float
    scale_event_count: int
    oscillation_count: int
    replica_churn: int


# each reduction `compare` adds to a row -> the MetricsReport field it reduces
REDUCTIONS = {
    "slo_duration_reduction": "slo_violation_duration",
    "time_to_scale_reduction": "mean_time_to_scale",
    "node_hours_reduction": "node_hours",
    "cost_reduction": "cost",
}

# the comparison CSV's column for each key of a `compare` row, in order:
# every MetricsReport field, then every reduction
CSV_COLUMNS = {
    "controller": "controller",
    "slo_violation_count": "slo_count",
    "slo_violation_duration": "slo_duration_s",
    "mean_time_to_scale": "ttscale_s",
    "node_hours": "node_hours",
    "replica_hours": "replica_hours",
    "cost": "cost",
    "scale_event_count": "events",
    "oscillation_count": "oscillations",
    "replica_churn": "churn",
    "slo_duration_reduction": "slo_duration_red",
    "time_to_scale_reduction": "ttscale_red",
    "node_hours_reduction": "node_hours_red",
    "cost_reduction": "cost_red",
}


def slo_violations(trace: RunTrace, slo_latency_target: float
                   ) -> tuple[int, float]:
    """Count maximal runs of consecutive ticks with latency above target."""
    count = 0
    violating = 0
    in_episode = False
    for latency in trace.latency:
        if latency > slo_latency_target:
            if not in_episode:
                count += 1
                in_episode = True
            violating += 1
        else:
            in_episode = False
    # one product: a running sum of `tick` drifts, ten rows of 0.1 summing
    # to 0.9999999999999999
    return count, float(violating * trace.tick)


def time_to_scale(trace: RunTrace, wspec: WorkloadSpec, mu: float,
                  target_utilization: float) -> float | None:
    """Mean delay from burst onset until ready capacity meets burst demand.

    Only meaningful for bursty workloads with analytically known onsets;
    returns None otherwise. A burst whose demand is never met contributes
    its full duration.

    Onsets ascend and row k starts at `k * tick`, so one forward index finds
    each burst's first row and the whole trace is walked once.
    """
    if wspec.kind != "bursty":
        return None
    demand = replicas_for(wspec.base_rate * wspec.burst_amplitude
                          / (mu * target_utilization))
    ready, tick = trace.ready, trace.tick
    n = len(ready)
    first = 0  # first row at or after the current onset
    times = []
    for onset in burst_onsets(wspec, trace.horizon):
        while first < n and first * tick < onset:
            first += 1
        end = onset + wspec.burst_duration
        reached = None
        for k in range(first, n):
            t = k * tick
            if t >= end:
                break
            if ready[k] >= demand:
                reached = t - onset
                break
        times.append(reached if reached is not None else wspec.burst_duration)
    return sum(times) / len(times) if times else None


def cost_metrics(trace: RunTrace, cfg: ControllerConfig
                 ) -> tuple[float, float, float]:
    node_hours = sum(trace.nodes_active) * trace.tick / 3600.0
    replica_hours = sum(trace.ready) * trace.tick / 3600.0
    cost = (node_hours * cfg.cost_per_node_hour
            + replica_hours * cfg.cost_per_replica_hour)
    return node_hours, replica_hours, cost


def scale_events(trace: RunTrace) -> list[tuple[float, int]]:
    """(time, delta) for every change of the applied replica target."""
    events = []
    applied = trace.initial_replicas
    for k, rec in zip(trace.decision_rows, trace.decisions):
        target = rec.action.target_replicas
        if target != applied:
            events.append((k * trace.tick, target - applied))
            applied = target
    return events


def stability_metrics(trace: RunTrace) -> tuple[int, int, int]:
    events = scale_events(trace)
    churn = sum(abs(d) for _, d in events)
    oscillations = 0
    for (t_prev, d_prev), (t_cur, d_cur) in zip(events, events[1:]):
        if d_prev * d_cur < 0 and t_cur - t_prev <= OSCILLATION_WINDOW:
            oscillations += 1
    return len(events), oscillations, churn


def build_report(trace: RunTrace, wspec: WorkloadSpec,
                 cfg: ControllerConfig, mu: float) -> MetricsReport:
    """The metrics of one run; a trace without rows has none."""
    if not trace.arrivals:
        raise ValueError("empty trace")
    count, duration = slo_violations(trace, cfg.slo_latency_target)
    node_hours, replica_hours, cost = cost_metrics(trace, cfg)
    events, oscillations, churn = stability_metrics(trace)
    return MetricsReport(
        controller=trace.controller,
        slo_violation_count=count,
        slo_violation_duration=duration,
        mean_time_to_scale=time_to_scale(trace, wspec, mu,
                                         cfg.target_utilization),
        node_hours=node_hours,
        replica_hours=replica_hours,
        cost=cost,
        scale_event_count=events,
        oscillation_count=oscillations,
        replica_churn=churn,
    )


def aggregate_reports(reports: list[MetricsReport]) -> MetricsReport:
    """Mean over repeated seeds of one controller."""
    if not reports:
        raise ValueError("no reports to aggregate")
    if len(reports) == 1:
        return reports[0]
    means = {}
    for f in fields(MetricsReport):
        if f.name == "controller":
            continue
        values = [getattr(r, f.name) for r in reports]
        means[f.name] = (None if any(v is None for v in values)
                         else statistics.fmean(values))
    return MetricsReport(controller=reports[0].controller, **means)


def _reduction(base, value):
    if base is None or value is None or base == 0:
        return None
    return (base - value) / base


def compare(reports: list[MetricsReport]) -> list[dict]:
    """Rows of absolute metrics plus reductions versus the first report."""
    if len(reports) < 2:
        raise ValueError("need at least a baseline and one comparison report")
    base = reports[0]
    rows = []
    for rep in reports:
        row = asdict(rep)
        for key, name in REDUCTIONS.items():
            row[key] = _reduction(getattr(base, name), getattr(rep, name))
        rows.append(row)
    return rows


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def comparison_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    buf.write(",".join(CSV_COLUMNS.values()) + "\n")
    for row in rows:
        buf.write(",".join(_csv_cell(row[key]) for key in CSV_COLUMNS) + "\n")
    return buf.getvalue()
