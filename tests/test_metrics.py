"""Run metrics: violation episodes, responsiveness, cost, stability, tables."""

from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from slosim.controllers import ControllerConfig
from slosim.metrics import (
    CSV_COLUMNS,
    REDUCTIONS,
    MetricsReport,
    aggregate_reports,
    build_report,
    compare,
    comparison_to_csv,
    cost_metrics,
    scale_events,
    slo_violations,
    stability_metrics,
    time_to_scale,
)
from slosim.runner import RunTrace
from slosim.workload import WorkloadSpec

from helpers import make_decision, nested_time_to_scale

SLO = 0.2
DATA = Path(__file__).parent / "data"


def make_trace(n_ticks, latency=0.1, nodes=1, ready=1, actions=None,
               initial=1, tick=1.0):
    """Hand-built trace; latency/nodes/ready may be scalars or sequences."""
    actions = actions or {}

    def at(value, k):
        return value[k] if isinstance(value, (list, tuple)) else value

    trace = RunTrace(controller="default_hpa", tick=tick,
                     horizon=n_ticks * tick, initial_replicas=initial)
    for k in range(n_ticks):
        t = k * tick
        decision = make_decision(actions[t], t) if t in actions else None
        trace.append(0, at(ready, k), 0, 0, at(nodes, k), 0.0, at(latency, k),
                     0.0, decision)
    return trace


def report(controller="default_hpa", duration=0.0, tts=None, node_hours=0.0,
           cost=0.0, oscillations=0):
    return MetricsReport(
        controller=controller, slo_violation_count=0,
        slo_violation_duration=duration, mean_time_to_scale=tts,
        node_hours=node_hours, replica_hours=0.0, cost=cost,
        scale_event_count=0, oscillation_count=oscillations, replica_churn=0)


class TestSloViolations:
    def test_compliant_trace_has_none(self):
        assert slo_violations(make_trace(100, latency=0.1), SLO) == (0, 0)

    def test_single_episode_counts_its_ticks(self):
        lats = [0.1] * 5 + [0.3] * 10 + [0.1] * 5
        assert slo_violations(make_trace(20, latency=lats), SLO) == (1, 10)

    def test_separate_episodes_stay_distinct(self):
        lats = [0.1, 0.3, 0.3, 0.1, 0.3]
        assert slo_violations(make_trace(5, latency=lats), SLO) == (2, 3)

    def test_latency_equal_to_target_is_compliant(self):
        assert slo_violations(make_trace(5, latency=SLO), SLO) == (0, 0)

    def test_fractional_tick_duration_does_not_drift(self):
        trace = make_trace(10, latency=0.3, tick=0.1)
        assert slo_violations(trace, SLO) == (1, 1.0)

    @given(st.lists(st.floats(0.01, 0.5), min_size=1, max_size=200))
    def test_duration_bounded_by_horizon_and_counts(self, lats):
        trace = make_trace(len(lats), latency=lats)
        count, duration = slo_violations(trace, SLO)
        assert 0 <= duration <= trace.horizon
        assert count <= duration / trace.tick or count == 0


class TestTimeToScale:
    # one burst: interval 100, duration 20, offset (100-20)/2 = 40
    WSPEC = WorkloadSpec(kind="bursty", base_rate=7, burst_amplitude=10,
                         burst_duration=20, burst_interval=100)
    DEMAND = 10  # ceil(70 / (10 * 0.7))

    def test_prescaled_fleet_scores_zero(self):
        trace = make_trace(100, ready=self.DEMAND)
        assert time_to_scale(trace, self.WSPEC, 10.0, 0.7) == 0

    def test_three_tick_reaction(self):
        ready = [1] * 43 + [self.DEMAND] * 57
        trace = make_trace(100, ready=ready)
        assert time_to_scale(trace, self.WSPEC, 10.0, 0.7) == 3

    def test_unmet_demand_contributes_full_burst(self):
        trace = make_trace(100, ready=1)
        assert time_to_scale(trace, self.WSPEC, 10.0, 0.7) == 20

    def test_not_applicable_off_bursty_workloads(self):
        wspec = WorkloadSpec(kind="mixed", base_rate=10)
        assert time_to_scale(make_trace(100), wspec, 10.0, 0.7) is None

    # interval 100 s and duration 19 s put the onset at 40.5 s: after the
    # last row of a 41-tick trace, and a burst running past a 42.5 s horizon
    @given(tick=st.sampled_from([1.0, 0.5]), n_ticks=st.integers(1, 120),
           half_interval=st.integers(2, 100),
           duration_share=st.floats(0, 1),
           ready=st.lists(st.integers(0, 12), min_size=120, max_size=120))
    @example(tick=1.0, n_ticks=41, half_interval=200, duration_share=0.19,
             ready=[0] * 120)
    @example(tick=0.5, n_ticks=85, half_interval=200, duration_share=0.19,
             ready=[0] * 84 + [12] * 36)
    def test_matches_nested_scan_oracle(self, tick, n_ticks, half_interval,
                                        duration_share, ready):
        interval = half_interval / 2
        duration = round(duration_share * half_interval) / 2
        wspec = WorkloadSpec(kind="bursty", base_rate=7, burst_amplitude=10,
                             burst_duration=duration, burst_interval=interval)
        trace = make_trace(n_ticks, ready=ready[:n_ticks], tick=tick)
        assert time_to_scale(trace, wspec, 10.0, 0.7) == \
            nested_time_to_scale(trace, wspec, 10.0, 0.7)


class TestCostMetrics:
    CFG = ControllerConfig(cost_per_replica_hour=0.1, cost_per_node_hour=1.0)

    def test_one_node_for_an_hour(self):
        nh, _, _ = cost_metrics(make_trace(3600, nodes=1), self.CFG)
        assert nh == pytest.approx(1.0)

    def test_no_nodes_no_hours(self):
        nh, _, cost = cost_metrics(make_trace(100, nodes=0, ready=0), self.CFG)
        assert nh == 0 and cost == 0

    def test_piecewise_node_usage(self):
        nodes = [2] * 3600 + [4] * 3600
        nh, _, _ = cost_metrics(make_trace(7200, nodes=nodes), self.CFG)
        assert nh == pytest.approx(6.0)

    @given(scale=st.floats(0.1, 10))
    def test_cost_linear_in_each_price(self, scale):
        trace = make_trace(600, nodes=2, ready=5)
        cfg = ControllerConfig(cost_per_replica_hour=0.1, cost_per_node_hour=1.0)
        scaled = ControllerConfig(cost_per_replica_hour=0.1 * scale,
                                  cost_per_node_hour=1.0 * scale)
        _, _, base_cost = cost_metrics(trace, cfg)
        _, _, scaled_cost = cost_metrics(trace, scaled)
        assert scaled_cost == pytest.approx(base_cost * scale)


class TestStabilityMetrics:
    def test_constant_replicas(self):
        assert stability_metrics(make_trace(100)) == (0, 0, 0)

    def test_direction_flip_within_window_is_oscillation(self):
        trace = make_trace(200, actions={10.0: 3, 60.0: 1}, initial=1)
        events, oscillations, churn = stability_metrics(trace)
        assert (events, oscillations, churn) == (2, 1, 4)

    def test_same_direction_changes_are_not_oscillation(self):
        trace = make_trace(200, actions={10.0: 3, 60.0: 6}, initial=1)
        events, oscillations, churn = stability_metrics(trace)
        assert (events, oscillations, churn) == (2, 0, 5)

    def test_flip_outside_window_is_not_oscillation(self):
        trace = make_trace(400, actions={10.0: 3, 300.0: 1}, initial=1)
        assert stability_metrics(trace)[1] == 0

    def test_action_restating_current_target_is_not_an_event(self):
        trace = make_trace(100, actions={10.0: 1, 50.0: 1}, initial=1)
        assert scale_events(trace) == []

    @given(st.lists(st.integers(1, 20), min_size=1, max_size=30))
    def test_churn_dominates_net_change(self, targets):
        actions = {float(10 * (i + 1)): tgt for i, tgt in enumerate(targets)}
        trace = make_trace(10 * len(targets) + 20, actions=actions, initial=1)
        _, _, churn = stability_metrics(trace)
        assert churn >= abs(targets[-1] - 1)


class TestBuildReport:
    def test_empty_trace_rejected(self):
        wspec = WorkloadSpec(kind="bursty", base_rate=5)
        with pytest.raises(ValueError, match="^empty trace$"):
            build_report(make_trace(0), wspec, ControllerConfig(), 10.0)


class TestCompare:
    def test_reduction_column_against_published_style_numbers(self):
        rows = compare([report(duration=1280.0), report("proposed", 870.0)])
        assert rows[1]["slo_duration_reduction"] == pytest.approx(0.3203, abs=1e-4)

    def test_node_hours_reduction(self):
        rows = compare([report(node_hours=420.0),
                        report("proposed", node_hours=345.0)])
        assert rows[1]["node_hours_reduction"] == pytest.approx(0.1786, abs=1e-4)

    def test_identical_reports_show_zero_reduction(self):
        rows = compare([report(duration=100, node_hours=5, cost=3),
                        report("proposed", 100, None, 5, 3)])
        assert rows[1]["slo_duration_reduction"] == 0
        assert rows[1]["node_hours_reduction"] == 0
        assert rows[1]["cost_reduction"] == 0

    def test_zero_baseline_marks_reduction_undefined(self):
        rows = compare([report(duration=0.0), report("proposed", 10.0)])
        assert rows[1]["slo_duration_reduction"] is None

    def test_appending_a_controller_leaves_existing_rows_unchanged(self):
        reports = [report(duration=100.0), report("tuned_hpa", 80.0)]
        short = compare(reports)
        longer = compare(reports + [report("proposed", 60.0)])
        assert longer[:2] == short

    def test_needs_a_baseline_and_a_comparand(self):
        with pytest.raises(ValueError):
            compare([report()])


class TestAggregate:
    def test_single_report_passthrough(self):
        rep = report(duration=10)
        assert aggregate_reports([rep]) is rep

    def test_mean_over_seeds(self):
        agg = aggregate_reports([report(duration=10, tts=4.0),
                                 report(duration=20, tts=6.0)])
        assert agg.slo_violation_duration == 15
        assert agg.mean_time_to_scale == 5.0

    def test_not_applicable_metric_stays_not_applicable(self):
        agg = aggregate_reports([report(tts=None), report(tts=3.0)])
        assert agg.mean_time_to_scale is None


class TestCsv:
    HEADER = ("controller,slo_count,slo_duration_s,ttscale_s,node_hours,"
              "replica_hours,cost,events,oscillations,churn,"
              "slo_duration_red,ttscale_red,node_hours_red,cost_red")

    def test_header_is_exact(self):
        rows = compare([report(), report("proposed")])
        assert comparison_to_csv(rows).splitlines()[0] == self.HEADER

    def test_comparison_csv_adds_reduction_columns(self):
        for duration, tts, base_row in [
            (100.0, 4.0, "default_hpa,0,100,4,"),
            (12.5, None, "default_hpa,0,12.5,,"),  # None renders as empty
        ]:
            rows = compare([report(duration=duration, tts=tts),
                            report("proposed", duration * 0.8)])
            lines = comparison_to_csv(rows).splitlines()
            assert lines[0] == self.HEADER
            assert lines[1].startswith(base_row)
            assert "0.2" in lines[2]

    def test_every_compare_key_has_one_column(self):
        row = compare([report(), report("proposed")])[0]
        assert list(CSV_COLUMNS) == list(row)
        assert list(row) == [f.name for f in fields(MetricsReport)] \
            + list(REDUCTIONS)

    @pytest.mark.parametrize("name", ["bursty", "mixed"])
    def test_bundled_comparison_bytes_are_unchanged(self, all_runs, scenarios,
                                                    name):
        """`slosim run` on a bundled scenario, seed as bundled, one repeat;
        the expected file is that command's comparison.csv."""
        scn = scenarios[name]
        reports = [build_report(all_runs[(name, kind)], scn.workload,
                                scn.controller, scn.service.per_replica_rate)
                   for kind in scn.controllers]
        assert comparison_to_csv(compare(reports)) == \
            (DATA / f"{name}_comparison.csv").read_text()
