"""Per-run metrics (SLO adherence, responsiveness, cost, stability) and
cross-controller comparison tables."""

from __future__ import annotations

import io
import math
import statistics
from dataclasses import asdict, dataclass, fields

from .controllers import ControllerConfig
from .runner import RunTrace
from .workload import WorkloadSpec, burst_onsets

OSCILLATION_WINDOW = 120.0  # seconds within which a direction flip counts

CSV_HEADER = ("controller,slo_count,slo_duration_s,ttscale_s,node_hours,"
              "replica_hours,cost,events,oscillations,churn")


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


def slo_violations(trace: RunTrace, slo_latency_target: float
                   ) -> tuple[int, float]:
    """Count maximal runs of consecutive ticks with latency above target."""
    if not trace.rows:
        raise ValueError("empty trace")
    count = 0
    duration = 0.0
    in_episode = False
    for row in trace.rows:
        if row["latency"] > slo_latency_target:
            if not in_episode:
                count += 1
                in_episode = True
            duration += trace.tick
        else:
            in_episode = False
    return count, duration


def time_to_scale(trace: RunTrace, wspec: WorkloadSpec, mu: float,
                  target_utilization: float) -> float | None:
    """Mean delay from burst onset until ready capacity meets burst demand.

    Only meaningful for bursty workloads with analytically known onsets;
    returns None otherwise. A burst whose demand is never met contributes
    its full duration.

    Onsets ascend and rows ascend in `t`, so one forward index finds each
    burst's first row and the whole trace is walked once.
    """
    if wspec.kind != "bursty":
        return None
    demand = math.ceil(wspec.base_rate * wspec.burst_amplitude
                       / (mu * target_utilization))
    rows = trace.rows
    first = 0  # first row at or after the current onset
    times = []
    for onset in burst_onsets(wspec, trace.horizon):
        while first < len(rows) and rows[first]["t"] < onset:
            first += 1
        end = onset + wspec.burst_duration
        reached = None
        for i in range(first, len(rows)):
            row = rows[i]
            if row["t"] >= end:
                break
            if row["ready"] >= demand:
                reached = row["t"] - onset
                break
        times.append(reached if reached is not None else wspec.burst_duration)
    return sum(times) / len(times) if times else None


def cost_metrics(trace: RunTrace, cfg: ControllerConfig
                 ) -> tuple[float, float, float]:
    if not trace.rows:
        raise ValueError("empty trace")
    node_hours = sum(r["nodes_active"] for r in trace.rows) * trace.tick / 3600.0
    replica_hours = sum(r["ready"] for r in trace.rows) * trace.tick / 3600.0
    cost = (node_hours * cfg.cost_per_node_hour
            + replica_hours * cfg.cost_per_replica_hour)
    return node_hours, replica_hours, cost


def scale_events(trace: RunTrace) -> list[tuple[float, int]]:
    """(time, delta) for every change of the applied replica target."""
    events = []
    applied = trace.initial_replicas
    for row in trace.rows:
        action = row["action"]
        if action is not None and action["target_replicas"] != applied:
            events.append((row["t"], action["target_replicas"] - applied))
            applied = action["target_replicas"]
    return events


def stability_metrics(trace: RunTrace,
                      window: float = OSCILLATION_WINDOW
                      ) -> tuple[int, int, int]:
    if not trace.rows:
        raise ValueError("empty trace")
    events = scale_events(trace)
    churn = sum(abs(d) for _, d in events)
    oscillations = 0
    for (t_prev, d_prev), (t_cur, d_cur) in zip(events, events[1:]):
        if d_prev * d_cur < 0 and t_cur - t_prev <= window:
            oscillations += 1
    return len(events), oscillations, churn


def build_report(trace: RunTrace, wspec: WorkloadSpec,
                 cfg: ControllerConfig, mu: float) -> MetricsReport:
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
        row["slo_duration_reduction"] = _reduction(
            base.slo_violation_duration, rep.slo_violation_duration)
        row["time_to_scale_reduction"] = _reduction(
            base.mean_time_to_scale, rep.mean_time_to_scale)
        row["node_hours_reduction"] = _reduction(base.node_hours, rep.node_hours)
        row["cost_reduction"] = _reduction(base.cost, rep.cost)
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
    buf.write(CSV_HEADER + ",slo_duration_red,ttscale_red,node_hours_red,"
              "cost_red\n")
    for row in rows:
        cells = [row["controller"], row["slo_violation_count"],
                 row["slo_violation_duration"], row["mean_time_to_scale"],
                 row["node_hours"], row["replica_hours"], row["cost"],
                 row["scale_event_count"], row["oscillation_count"],
                 row["replica_churn"], row["slo_duration_reduction"],
                 row["time_to_scale_reduction"], row["node_hours_reduction"],
                 row["cost_reduction"]]
        buf.write(",".join(_csv_cell(c) for c in cells) + "\n")
    return buf.getvalue()
