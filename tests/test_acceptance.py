"""Acceptance gate.

One test per acceptance criterion (directional result reproduction,
invariant property suites, analytic and metric oracles), each emitting a
single PASS/FAIL line with the measured values.
"""

import itertools
import math
import random
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slosim import metrics
from slosim.controllers import (
    ControllerConfig,
    GuardrailState,
    adjust_for_backlog,
    enforce_guardrails,
    estimate_slo_demand,
    hpa_desired,
)
from slosim.runner import RunTrace, run
from slosim.signals import ForecastState, SignalSnapshot, forecast_horizon, forecast_update
from slosim.sim import Cluster, ClusterParams, ServiceModel, observe_latency

from helpers import make_decision

SUITE = settings(max_examples=1000, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow,
                                        HealthCheck.filter_too_much])


def gate(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def reports_for(all_runs, scenarios, name):
    scn = scenarios[name]
    return {
        kind: metrics.build_report(all_runs[(name, kind)], scn.workload,
                                   scn.controller, scn.service.per_replica_rate)
        for kind in scn.controllers
    }


# --------------------------------------------------------------------------
# 1-4: directional reproduction of the comparison results
# --------------------------------------------------------------------------

def test_criterion_1_burst_violation_duration(all_runs, scenarios):
    reps = reports_for(all_runs, scenarios, "bursty")
    default = reps["default_hpa"].slo_violation_duration
    tuned = reps["tuned_hpa"].slo_violation_duration
    proposed = reps["proposed"].slo_violation_duration
    start = time.perf_counter()
    run(scenarios["bursty"], "proposed")
    elapsed = time.perf_counter() - start
    ok = (proposed <= 0.80 * default
          and proposed < tuned < default
          and elapsed < 10.0)
    gate("criterion 1 (burst SLO violation duration)", ok,
         f"default={default:.0f}s tuned={tuned:.0f}s proposed={proposed:.0f}s "
         f"(reduction {1 - proposed / default:.1%}, need >=20% and strict "
         f"ordering), runtime {elapsed:.2f}s/run")


def test_criterion_2_time_to_scale(all_runs, scenarios):
    reps = reports_for(all_runs, scenarios, "bursty")
    default = reps["default_hpa"].mean_time_to_scale
    proposed = reps["proposed"].mean_time_to_scale
    ok = proposed <= 0.85 * default
    gate("criterion 2 (burst time-to-scale)", ok,
         f"default={default:.1f}s proposed={proposed:.1f}s "
         f"(reduction {1 - proposed / default:.1%}, need >=15%)")


def test_criterion_3_mixed_node_hours_and_slo(all_runs, scenarios):
    reps = reports_for(all_runs, scenarios, "mixed")
    default = reps["default_hpa"]
    proposed = reps["proposed"]
    nh_ok = proposed.node_hours <= 0.90 * default.node_hours
    slo_ok = (proposed.slo_violation_duration
              <= 0.80 * default.slo_violation_duration)
    gate("criterion 3 (mixed node-hours with SLO bound)", nh_ok and slo_ok,
         f"node_hours {proposed.node_hours:.2f} vs {default.node_hours:.2f} "
         f"(ratio {proposed.node_hours / default.node_hours:.2f}, need <=0.90); "
         f"violation {proposed.slo_violation_duration:.0f}s vs "
         f"{default.slo_violation_duration:.0f}s in the same run")


def test_criterion_4_stability_parity(all_runs, scenarios):
    details = []
    ok = True
    for name in scenarios:
        reps = reports_for(all_runs, scenarios, name)
        tuned = reps["tuned_hpa"].oscillation_count
        proposed = reps["proposed"].oscillation_count
        ok = ok and proposed <= 1.10 * tuned
        details.append(f"{name} {proposed} vs {tuned}")
    gate("criterion 4 (oscillation parity with tuned baseline)", ok,
         "proposed vs tuned oscillations: " + "; ".join(details)
         + " (need <=1.10x)")


# --------------------------------------------------------------------------
# 5: invariant property suites
# --------------------------------------------------------------------------

guardrail_cfg = st.builds(
    lambda mn, span, up, down, up_stab, down_stab, cooldown: ControllerConfig(
        min_replicas=mn, max_replicas=mn + span, max_step_up=up,
        max_step_down=down, scale_up_stabilization=up_stab,
        scale_down_stabilization=down_stab, cooldown_after_scale_up=cooldown),
    mn=st.integers(1, 5), span=st.integers(0, 60), up=st.integers(1, 60),
    down=st.integers(1, 60), up_stab=st.floats(0, 120),
    down_stab=st.floats(0, 300), cooldown=st.floats(0, 120),
)

guardrail_case = st.tuples(
    guardrail_cfg,
    st.integers(0, 120),                      # candidate
    st.floats(0, 1),                          # current, as a bound fraction
    st.lists(st.tuples(st.floats(0, 500), st.integers(0, 120)), max_size=8),
    st.floats(500, 1000),                     # decision time
    st.floats(0, 1000),                       # last scale-up time
)


def _apply_guardrails(case):
    cfg, candidate, frac, prior, now, last_up = case
    current = cfg.min_replicas + round(frac * (cfg.max_replicas
                                               - cfg.min_replicas))
    history = GuardrailState(last_scale_up_t=last_up)
    for t, cand in sorted(prior):
        history.record_candidate(t, cand, math.inf)
    final, _ = enforce_guardrails(candidate, current, cfg, history, now)
    return cfg, current, final


@SUITE
@given(case=guardrail_case)
def test_criterion_5_bound_safety(case):
    cfg, _, final = _apply_guardrails(case)
    assert cfg.min_replicas <= final <= cfg.max_replicas


@SUITE
@given(case=guardrail_case)
def test_criterion_5_step_safety(case):
    cfg, current, final = _apply_guardrails(case)
    assert final - current <= cfg.max_step_up
    assert current - final <= cfg.max_step_down
    assert abs(final - current) <= max(cfg.max_step_up, cfg.max_step_down)


def test_criterion_5_cooldown_blocks_scale_down(all_runs, scenarios):
    checked = 0
    for name, scn in scenarios.items():
        cooldown = scn.controller.cooldown_after_scale_up
        trace = all_runs[(name, "proposed")]
        applied = trace.initial_replicas
        last_up = -math.inf
        for rec in trace.decisions:
            target = rec.action.target_replicas
            if target < applied:
                assert rec.snapshot.t - last_up >= cooldown, \
                    f"{name}: scale-down at t={rec.snapshot.t} inside cooldown"
                checked += 1
            elif target > applied:
                last_up = rec.snapshot.t
            applied = target
    gate("criterion 5 (cooldown no-scale-down)", True,
         f"all scenario sweeps clean ({checked} scale-downs audited)")


cluster_ops = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(0, 30)),
        st.tuples(st.just("provision"), st.integers(1, 8)),
        st.tuples(st.just("step"), st.integers(0, 300)),
    ),
    min_size=1, max_size=8,
)

MODEL = ServiceModel(10.0, 0.05, 30.0)


def _run_ops(ops, nodes, capacity, initial):
    params = ClusterParams(initial_nodes=nodes, node_capacity=capacity,
                           max_nodes=6, pod_start_delay=5.0,
                           node_provision_delay=20.0, node_idle_timeout=40.0)
    cluster = Cluster(params, initial_replicas=initial)
    for op, arg in ops:
        if op == "schedule":
            cluster.schedule(arg)
        elif op == "provision":
            cluster.provision_node(arg)
        else:
            cluster.step(arg, MODEL, 1.0)
    return cluster


@SUITE
@given(ops=cluster_ops, nodes=st.integers(1, 3), capacity=st.integers(1, 8),
       initial=st.integers(0, 8))
def test_criterion_5_request_conservation(ops, nodes, capacity, initial):
    cluster = _run_ops(ops, nodes, capacity, initial)
    assert abs(cluster.cumulative_arrived - cluster.cumulative_served
               - cluster.queue_depth) < 1e-6


@SUITE
@given(ops=cluster_ops, nodes=st.integers(1, 3), capacity=st.integers(1, 8),
       initial=st.integers(0, 8))
def test_criterion_5_placement_soundness(ops, nodes, capacity, initial):
    cluster = _run_ops(ops, nodes, capacity, initial)
    # the pods fill the busy nodes, all full but the last, and every other
    # active node is idle in one run of the two deques; each deque holds
    # non-empty runs in strictly increasing time order
    assert sum(rep.count for rep in cluster.replicas) == cluster.total_replicas
    idle = [run.count for run in (*cluster.emptied, *cluster.fresh)]
    assert all(count > 0 for count in idle)
    assert math.ceil(cluster.total_replicas / capacity) + sum(idle) \
        == cluster.active_nodes
    for runs in (cluster.emptied, cluster.fresh):
        times = [run.t for run in runs]
        assert all(a < b for a, b in zip(times, times[1:]))
    assert cluster.live_nodes <= cluster.params.max_nodes


def test_criterion_5_determinism(all_runs, scenarios):
    pairs = 0
    for (name, kind), trace in all_runs.items():
        again = run(scenarios[name], kind)
        assert trace.to_jsonl() == again.to_jsonl()
        assert trace.decisions_to_jsonl() == again.decisions_to_jsonl()
        pairs += 1
    gate("criterion 5 (determinism double-run byte equality)", True,
         f"{pairs} scenario/controller pairs byte-identical")


demand_case = st.tuples(
    st.floats(0.01, 1.0),    # latency
    st.floats(0, 5000),      # queue
    st.floats(0, 500),       # arrival rate
    st.integers(0, 50),      # ready replicas
    st.floats(0, 500),       # predicted rate
    st.floats(0.05, 0.5),    # slo target
    st.floats(0.3, 0.9),     # utilization headroom
    st.floats(5, 60),        # drain window
    st.floats(1, 20),        # mu
)


@SUITE
@given(case=demand_case)
def test_criterion_5_cost_floor_minimality(case):
    lat, queue, rate, ready, predicted, slo, util, drain, mu = case
    cfg = ControllerConfig(slo_latency_target=slo, target_utilization=util,
                           drain_window=drain)
    s = SignalSnapshot(t=0, latency=lat, queue=queue, utilization=0,
                       pending=0, arrival_rate=rate, ready_replicas=ready)
    demand = estimate_slo_demand(s, cfg, predicted, mu)
    adjusted = adjust_for_backlog(demand, s, cfg, mu)
    assert adjusted >= demand >= 0

    floors = [math.ceil(predicted / (mu * util))]
    if lat > slo:
        floors.append(math.ceil(ready * max(1.0, lat / slo)))
    if queue > 0:
        floors.append(math.ceil(rate / mu + queue / (mu * drain)))
    # the stage output is the exact maximum of its floors: one replica fewer
    # would violate whichever floor binds
    assert adjusted == max(floors)
    if adjusted > 0:
        assert adjusted - 1 < max(floors)


def test_criterion_5_explainability_completeness(all_runs):
    changes = 0
    for trace in all_runs.values():
        applied = trace.initial_replicas
        seen_ids = set()
        for row in trace.rows:
            action = row["action"]
            if action is None:
                continue
            rec_id = row["decision_id"]
            assert rec_id is not None and rec_id not in seen_ids
            seen_ids.add(rec_id)
            rec = trace.decisions[rec_id]
            assert rec.action.target_replicas == action["target_replicas"]
            if action["target_replicas"] != applied:
                changes += 1
                applied = action["target_replicas"]
        assert len(seen_ids) == len(trace.decisions)
    gate("criterion 5 (explainability completeness)", True,
         f"every replica change matched by exactly one decision record "
         f"({changes} changes audited)")


# --------------------------------------------------------------------------
# 6: analytic oracles
# --------------------------------------------------------------------------

def test_criterion_6_ratio_rule_grid_oracle():
    grid = [round(0.05 * k, 2) for k in range(1, 21)]
    checked = 0
    for current, metric, target in itertools.product(range(1, 51), grid, grid):
        ratio = metric / target
        expected = current if abs(ratio - 1.0) <= 0.10 \
            else math.ceil(current * ratio)
        assert hpa_desired(current, metric, target, 0.10) == expected
        checked += 1
    gate("criterion 6 (ratio-rule grid oracle)", True,
         f"{checked} grid points match the direct ceil-ratio oracle")


# (rate, ready, queue, L0, cap, expected latency) evaluated by hand
LATENCY_CASES = [
    (0, 4, 0, 0.05, 30.0, 0.05),
    (20, 4, 0, 0.05, 30.0, 0.1),
    (60, 4, 80, 0.05, 30.0, 2.075),
    (10, 0, 0, 0.05, 30.0, 30.0),
    (30, 4, 10, 0.05, 30.0, 0.45),
    (10, 1, 0, 0.05, 30.0, 0.15),
    (10, 2, 0, 0.05, 30.0, 0.1),
    (0, 1, 5, 0.05, 30.0, 0.55),
    (100, 2, 0, 0.05, 30.0, 0.1),
    (100, 2, 1000, 0.05, 30.0, 30.0),
    (5, 1, 0, 0.1, 30.0, 0.2),
    (9, 1, 0, 0.1, 30.0, 1.0),
    (0, 10, 100, 0.05, 30.0, 1.05),
    (50, 10, 50, 0.05, 30.0, 0.6),
    (80, 10, 0, 0.05, 30.0, 0.25),
    (99, 10, 0, 0.05, 30.0, 5.0),
    (40, 4, 0, 0.05, 30.0, 0.075),
    (0, 3, 30, 0.05, 30.0, 1.05),
    (60, 4, 80, 0.05, 0.4, 0.4),
    (30, 2, 10, 0.05, 30.0, 0.6),
]


def test_criterion_6_latency_closed_form_oracle():
    mu = 10.0
    for rate, ready, queue, base, cap, expected in LATENCY_CASES:
        model = ServiceModel(mu, base, cap)
        got = observe_latency(ready, queue, rate, model)
        assert abs(got - expected) < 1e-9, (rate, ready, queue, got, expected)
    gate("criterion 6 (latency closed-form oracle)", True,
         f"{len(LATENCY_CASES)} hand-evaluated cases match")


def test_criterion_6_forecast_linear_convergence():
    slope, intercept = 2.5, 40.0
    f = ForecastState()
    for i in range(50):
        f = forecast_update(f, intercept + slope * i, 0.5, 0.3)
    trend_err = abs(f.trend - slope) / slope
    predicted = forecast_horizon(f, 10.0, 1.0)
    truth = intercept + slope * (49 + 10)
    pred_err = abs(predicted - truth) / truth
    ok = trend_err < 0.05 and pred_err < 0.05
    gate("criterion 6 (linear-series forecast convergence)", ok,
         f"trend error {trend_err:.2%}, 10-step-ahead error {pred_err:.2%} "
         f"after 50 steps (need <5%)")


# --------------------------------------------------------------------------
# 7: metric oracles on randomized traces
# --------------------------------------------------------------------------

def random_trace(seed):
    """A trace of random rows whose decisions fall on random ticks."""
    rng = random.Random(seed)
    tick = rng.choice([1.0, 2.0])
    n = rng.randint(20, 120)
    initial = rng.randint(1, 5)
    trace = RunTrace(controller="proposed", tick=tick,
                     horizon=n * tick, initial_replicas=initial)
    for k in range(n):
        decision = None
        if rng.random() < 0.25:
            decision = make_decision(rng.randint(1, 12), k * tick)
        trace.append(rng.randint(0, 50), rng.randint(0, 20), 0, 0,
                     rng.randint(0, 5), float(rng.randint(0, 100)),
                     rng.uniform(0.05, 0.4), 0.0, decision)
    return trace


def walk_episodes(rows, target, tick):
    flags = [row["latency"] > target for row in rows]
    runs = [len(list(group)) for flag, group in itertools.groupby(flags) if flag]
    return len(runs), float(sum(runs)) * tick


def walk_cost(rows, tick, node_price, replica_price):
    node_hours = 0.0
    replica_hours = 0.0
    for row in rows:
        node_hours += row["nodes_active"] * tick / 3600.0
        replica_hours += row["ready"] * tick / 3600.0
    return node_hours, replica_hours, (node_hours * node_price
                                       + replica_hours * replica_price)


def walk_stability(rows, initial, window):
    events = []
    applied = initial
    for row in rows:
        action = row["action"]
        if action and action["target_replicas"] != applied:
            events.append((row["t"], action["target_replicas"] - applied))
            applied = action["target_replicas"]
    oscillations = sum(
        1 for i in range(1, len(events))
        if events[i][1] * events[i - 1][1] < 0
        and events[i][0] - events[i - 1][0] <= window)
    return len(events), oscillations, sum(abs(d) for _, d in events)


def test_criterion_7_metric_trace_walker_oracle():
    cfg = ControllerConfig(slo_latency_target=0.2, cost_per_replica_hour=0.1,
                           cost_per_node_hour=1.0)
    for seed in range(10):
        trace = random_trace(seed)
        assert metrics.slo_violations(trace, 0.2) == \
            walk_episodes(trace.rows, 0.2, trace.tick)
        got = metrics.cost_metrics(trace, cfg)
        want = walk_cost(trace.rows, trace.tick, 1.0, 0.1)
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-9
        assert metrics.stability_metrics(trace) == \
            walk_stability(trace.rows, trace.initial_replicas, 120.0)
    gate("criterion 7 (metric oracles on randomized traces)", True,
         "slo/cost/stability metrics match the independent trace walker "
         "on 10 random traces")
