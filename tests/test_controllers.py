"""Scaling policies: ratio rule, demand stages, guardrails, actuation."""

import math
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from slosim.controllers import (
    BOUND_CLAMP,
    COOLDOWN_HOLD,
    STABILIZATION_HOLD,
    STEP_LIMIT,
    ControllerConfig,
    GuardrailState,
    HpaController,
    SloCostController,
    adjust_for_backlog,
    baseline_config,
    coordinate_actuation,
    cpu_metric,
    enforce_guardrails,
    estimate_slo_demand,
    hpa_desired,
    make_controller,
    vpa_recommend,
)
from slosim.signals import SignalSnapshot
from slosim.sim import nodes_for

from helpers import make_cluster

MU = 10.0


def snap(t=15.0, latency=0.1, queue=0.0, util=0.5, pending=0,
         rate=0.0, ready=4):
    return SignalSnapshot(t=t, latency=latency, queue=queue, utilization=util,
                          pending=pending, arrival_rate=rate,
                          ready_replicas=ready)


class TestHpaDesired:
    @pytest.mark.parametrize("current,metric,target,expected", [
        (4, 0.80, 0.50, 7),    # ceil(4 * 1.6)
        (5, 0.50, 0.50, 5),    # inside the tolerance band
        (6, 0.10, 0.50, 2),    # ceil(6 * 0.2)
    ])
    def test_ratio_rule_examples(self, current, metric, target, expected):
        assert hpa_desired(current, metric, target, 0.10) == expected

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            hpa_desired(0, 0.5, 0.5, 0.1)
        with pytest.raises(ValueError):
            hpa_desired(1, 0.5, 0, 0.1)


class TestEstimateSloDemand:
    CFG = ControllerConfig()

    def test_compliant_latency_uses_capacity_floor(self):
        n = estimate_slo_demand(snap(latency=0.1), self.CFG, 28.0, MU)
        assert n == math.ceil(28 / (MU * 0.7))  # 4

    def test_violation_scales_by_severity(self):
        n = estimate_slo_demand(snap(latency=0.3, ready=4), self.CFG, 28.0, MU)
        assert n == max(4, math.ceil(4 * 1.5))  # 6

    def test_latency_exactly_at_target_stays_on_floor(self):
        n = estimate_slo_demand(snap(latency=0.2, ready=50), self.CFG, 28.0, MU)
        assert n == 4

    @pytest.mark.parametrize("latency,ready,predicted", [
        (0.1, 4, 1e300),        # 1e300 rps over 1e-9 rps per replica
        (1e300, 10**9, 0.0),    # a 1e300 s latency over a 0.2 s target
    ])
    def test_demand_past_the_float_range_reads_as_the_largest_float(
            self, latency, ready, predicted):
        n = estimate_slo_demand(snap(latency=latency, ready=ready), self.CFG,
                                predicted, 1e-9)
        assert n == int(sys.float_info.max)
        got, constraints = enforce_guardrails(n, 4, ControllerConfig(
            max_step_up=10**400), GuardrailState(), 0.0)
        assert got == ControllerConfig().max_replicas
        assert constraints == [BOUND_CLAMP]


class TestAdjustForBacklog:
    CFG = ControllerConfig(drain_window=25.0)

    def test_empty_queue_is_passthrough(self):
        assert adjust_for_backlog(3, snap(queue=0), self.CFG, MU) == 3

    def test_drain_formula(self):
        s = snap(queue=500, rate=40)
        assert adjust_for_backlog(2, s, self.CFG, MU) == 6  # 4 + 2

    def test_tiny_queue_still_ceils_to_one(self):
        s = snap(queue=1, rate=0)
        assert adjust_for_backlog(0, s, self.CFG, MU) == 1

    def test_rejects_negative_input(self):
        with pytest.raises(ValueError):
            adjust_for_backlog(-1, snap(), self.CFG, MU)

    def test_backlog_past_the_float_range_reads_as_the_largest_float(self):
        s = snap(queue=1e300, rate=1e300)
        assert adjust_for_backlog(0, s, self.CFG, 1e-9) == \
            int(sys.float_info.max)


class TestEnforceGuardrails:
    def test_matching_candidate_is_noop(self):
        cfg = ControllerConfig()
        got, constraints = enforce_guardrails(4, 4, cfg, GuardrailState(), 100.0)
        assert (got, constraints) == (4, [])

    def test_step_limit_clamps_scale_up(self):
        cfg = ControllerConfig(max_step_up=6, max_replicas=50)
        got, constraints = enforce_guardrails(20, 4, cfg, GuardrailState(), 0.0)
        assert got == 10
        assert constraints == [STEP_LIMIT]

    def test_cooldown_blocks_scale_down(self):
        cfg = ControllerConfig(cooldown_after_scale_up=60.0)
        history = GuardrailState(last_scale_up_t=100.0)
        got, constraints = enforce_guardrails(1, 8, cfg, history, 110.0)
        assert got == 8
        assert constraints == [COOLDOWN_HOLD]

    def test_bounds_clamp_and_tag(self):
        cfg = ControllerConfig(min_replicas=2, max_replicas=10,
                               max_step_up=50, max_step_down=50)
        got, constraints = enforce_guardrails(0, 5, cfg, GuardrailState(), 0.0)
        assert got == 2
        assert BOUND_CLAMP in constraints

    def test_scale_down_held_at_window_maximum(self):
        cfg = ControllerConfig(scale_down_stabilization=60.0,
                               cooldown_after_scale_up=0.0)
        history = GuardrailState()
        history.record_candidate(10.0, 9)
        got, constraints = enforce_guardrails(3, 9, cfg, history, 40.0)
        assert got == 9
        assert STABILIZATION_HOLD in constraints

    def test_scale_down_window_longer_than_an_hour_is_kept_whole(self):
        cfg = ControllerConfig(scale_down_stabilization=5400.0,
                               cooldown_after_scale_up=0.0,
                               max_step_down=50)
        history = GuardrailState()
        assert enforce_guardrails(30, 30, cfg, history, 0.0) == (30, [])
        for t in range(15, 5401, 15):
            got, constraints = enforce_guardrails(5, 30, cfg, history, float(t))
            assert (t, got, constraints) == (t, 30, [STABILIZATION_HOLD])
        assert enforce_guardrails(5, 30, cfg, history, 5415.0) == (5, [])

    def test_candidates_are_kept_for_the_longest_window_only(self):
        cfg = ControllerConfig(scale_up_stabilization=0.0,
                               scale_down_stabilization=120.0)
        history = GuardrailState()
        enforce_guardrails(4, 4, cfg, history, 0.0)
        enforce_guardrails(4, 4, cfg, history, 135.0)
        # no window reaches back past 120 s, so the candidate at t=0 is gone
        assert list(history.candidates) == [(135.0, 4)]

    def test_scale_up_damped_to_window_minimum(self):
        cfg = ControllerConfig(scale_up_stabilization=60.0)
        history = GuardrailState()
        history.record_candidate(10.0, 5)
        got, constraints = enforce_guardrails(12, 4, cfg, history, 40.0)
        assert got == 5
        assert STABILIZATION_HOLD in constraints


class TestCoordinateActuation:
    def test_schedulable_target_needs_no_hint(self):
        cluster = make_cluster(ready=4, nodes=1, node_capacity=8)
        hint, _ = coordinate_actuation(8, cluster, 8)
        assert hint is None

    def test_shortfall_rounds_up_to_whole_node(self):
        cluster = make_cluster(ready=4, nodes=1, node_capacity=6)
        hint, note = coordinate_actuation(12, cluster, 8)
        assert hint == 8  # shortfall 6 -> one 8-slot node
        assert "1 node" in note

    def test_node_limit_suppresses_hint_with_reason(self):
        cluster = make_cluster(ready=4, nodes=1, node_capacity=4,
                               max_nodes=1)
        hint, note = coordinate_actuation(12, cluster, 4)
        assert hint is None
        assert "node limit" in note

    def test_starting_replicas_count_toward_target(self):
        cluster = make_cluster(ready=0, nodes=1, node_capacity=8)
        cluster.schedule(8)  # all eight starting, zero ready
        hint, _ = coordinate_actuation(8, cluster, 8)
        assert hint is None

    def test_hint_is_the_exact_ceiling_past_two_to_the_53(self):
        # a float ceiling of (2**53 + 1) / 2**40 gives 8192 nodes
        cluster = make_cluster(nodes=0, node_capacity=2**40, max_nodes=10**6)
        hint, note = coordinate_actuation(2**53 + 1, cluster, 2**40)
        assert hint == 8193 * 2**40
        assert note == "hinting 8193 node(s)"

    @given(shortfall=st.integers(1, 2**64),
           node_capacity=st.integers(1, 2**64))
    @example(shortfall=2**64, node_capacity=3)
    @example(shortfall=2**63 + 1, node_capacity=2)
    def test_hinted_nodes_are_nodes_for_the_shortfall(self, shortfall,
                                                      node_capacity):
        cluster = make_cluster(nodes=0, max_nodes=1)  # no slot free
        hint, note = coordinate_actuation(shortfall, cluster, node_capacity)
        whole_nodes = nodes_for(shortfall, node_capacity)
        assert hint == whole_nodes * node_capacity
        assert note == f"hinting {whole_nodes} node(s)"
        # the fewest whole nodes that hold the shortfall
        assert hint - node_capacity < shortfall <= hint


class TestVpaRecommend:
    def test_constant_usage(self):
        assert vpa_recommend([0.4] * 10) == pytest.approx(0.46)

    def test_single_sample(self):
        assert vpa_recommend([0.8]) == pytest.approx(0.8 * 1.15)

    def test_empty_history_gives_nothing(self):
        assert vpa_recommend([]) is None

    @given(st.lists(st.floats(0, 2), min_size=1, max_size=200))
    def test_matches_sorted_percentile_oracle(self, usage):
        ordered = sorted(usage)
        idx = min(len(ordered) - 1, math.ceil(0.9 * len(ordered)) - 1)
        assert vpa_recommend(ordered) == pytest.approx(ordered[idx] * 1.15)


class TestCpuMetric:
    def test_saturates_at_one(self):
        assert cpu_metric(snap(rate=500, ready=2), MU, 15.0) == 1.0

    def test_queue_counts_as_demand(self):
        s = snap(rate=10, queue=150, ready=4)
        assert cpu_metric(s, MU, 15.0) == pytest.approx((10 + 10) / 40)

    def test_no_ready_replicas_reads_full(self):
        assert cpu_metric(snap(ready=0), MU, 15.0) == 1.0


class TestHpaController:
    def cfg(self, **kw):
        base = dict(tolerance_band=0.10,
                    scale_up_stabilization=0.0, scale_down_stabilization=60.0,
                    cooldown_after_scale_up=0.0, max_step_up=50,
                    max_step_down=50)
        base.update(kw)
        return ControllerConfig(**base)

    def test_metric_at_target_holds(self):
        cluster = make_cluster(ready=3)
        ctrl = HpaController(self.cfg(), 0.5, MU)
        rec = ctrl.decide(snap(rate=15, ready=3), cluster)
        assert rec.action.target_replicas == 3

    def test_double_metric_doubles_replicas(self):
        cluster = make_cluster(ready=3)
        ctrl = HpaController(self.cfg(), 0.5, MU)
        rec = ctrl.decide(snap(rate=30, ready=3), cluster)
        assert rec.action.target_replicas == 6

    def test_idle_load_descends_after_stabilization_window(self):
        cluster = make_cluster(ready=5)
        ctrl = HpaController(self.cfg(), 0.5, MU)
        targets = []
        # one on-target decision seeds the window with a high candidate
        targets.append(ctrl.decide(snap(t=15, rate=25, ready=5),
                                   cluster).action.target_replicas)
        for t in (30, 45, 60, 75, 90):
            rec = ctrl.decide(snap(t=t, rate=0, ready=5), cluster)
            targets.append(rec.action.target_replicas)
        assert targets == [5, 5, 5, 5, 5, 1]

    def test_vpa_variant_attaches_recommendation(self):
        cluster = make_cluster(ready=3)
        ctrl = HpaController(self.cfg(), 0.5, MU, with_vpa=True)
        rec = ctrl.decide(snap(rate=15, ready=3), cluster)
        assert rec.action.vpa_recommendation == pytest.approx(0.5 * 1.15)

    def test_plain_variant_keeps_no_usage_history(self):
        cluster = make_cluster(ready=3)
        ctrl = HpaController(self.cfg(), 0.5, MU)
        rec = ctrl.decide(snap(rate=15, ready=3), cluster)
        assert rec.action.vpa_recommendation is None
        assert ctrl.usage is None

    # rates of 0, repeated values and overload give metrics of 0.0, ties and 1.0
    @given(st.lists(st.tuples(st.sampled_from([0.0, 5.0, 15.0, 200.0])
                              | st.floats(0, 100),
                              st.integers(0, 6)),
                    min_size=1, max_size=60))
    def test_vpa_recommendation_is_p90_of_every_metric(self, observations):
        cluster = make_cluster(ready=3)
        cfg = self.cfg()
        ctrl = HpaController(cfg, 0.5, MU, with_vpa=True)
        seen = []
        for i, (rate, ready) in enumerate(observations):
            s = snap(t=15.0 * (i + 1), rate=rate, ready=ready)
            seen.append(cpu_metric(s, MU, cfg.control_interval))
            rec = ctrl.decide(s, cluster)
            ordered = sorted(seen)
            p90 = ordered[math.ceil(0.9 * len(ordered)) - 1]
            assert rec.action.vpa_recommendation == p90 * 1.15


class TestSloCostController:
    def test_quiet_path_settles_on_capacity_floor(self):
        cluster = make_cluster(ready=4)
        ctrl = SloCostController(ControllerConfig(), MU, node_capacity=8)
        rec = ctrl.decide(snap(latency=0.1, rate=28, ready=4), cluster)
        assert rec.slo_demand == 4
        assert rec.backlog_adjusted == 4
        assert rec.action.target_replicas == 4
        assert rec.constraints_applied == ()

    def test_backlog_stage_never_lowers_demand(self):
        cluster = make_cluster(ready=4)
        ctrl = SloCostController(ControllerConfig(), MU, node_capacity=8)
        rec = ctrl.decide(snap(latency=0.3, queue=600, rate=40, ready=4),
                          cluster)
        assert rec.slo_demand <= rec.backlog_adjusted

    def test_capacity_shortfall_emits_node_hint(self):
        cluster = make_cluster(ready=4, nodes=1, node_capacity=4)
        ctrl = SloCostController(
            ControllerConfig(cooldown_after_scale_up=0.0), MU, node_capacity=4)
        rec = ctrl.decide(snap(latency=0.4, queue=2000, rate=60, ready=4),
                          cluster)
        assert rec.action.target_replicas > 4
        assert rec.action.node_capacity_hint is not None
        assert rec.action.node_capacity_hint % 4 == 0

    def test_reason_names_the_signals(self):
        cluster = make_cluster(ready=4)
        ctrl = SloCostController(ControllerConfig(), MU, node_capacity=8)
        rec = ctrl.decide(snap(latency=0.1, rate=28, ready=4), cluster)
        assert "latency" in rec.reason and "queue" in rec.reason


class TestControllerFactory:
    def test_all_kinds_constructible(self):
        for kind in ("default_hpa", "tuned_hpa", "hpa_vpa", "proposed"):
            ctrl = make_controller(kind, ControllerConfig(), MU, 8)
            assert hasattr(ctrl, "decide")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_controller("rl_agent", ControllerConfig(), MU, 8)

    def test_tuned_baseline_is_more_eager_than_default(self):
        base = ControllerConfig()
        default, default_cpu_target = baseline_config("default_hpa", base)
        tuned, tuned_cpu_target = baseline_config("tuned_hpa", base)
        assert tuned_cpu_target < default_cpu_target
        assert tuned.scale_down_stabilization < default.scale_down_stabilization
        assert tuned.max_step_up < default.max_step_up
