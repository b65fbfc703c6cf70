"""The run loop's trace: its columns, its row view, its writers, the node
requests it makes, and the arrivals its runs share."""

import contextlib
import dataclasses
import math
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slosim import runner, workload
from slosim.controllers import (DecisionRecord, GuardrailState, HpaController,
                                ScalingAction, SloCostController)
from slosim.runner import RunTrace, TraceRows, run
from slosim.scenario import parse_scenario
from slosim.signals import SignalSnapshot
from slosim.sim import Cluster, ClusterState, nodes_for

from helpers import (bundled_doc, json_decision_lines, json_trace_lines,
                     make_cluster, make_decision)


def small_trace():
    """Four rows at half-second ticks, with decisions on rows 1 and 2."""
    trace = RunTrace(controller="proposed", tick=0.5, horizon=2.0,
                     initial_replicas=1)
    trace.append(2, 0, 0, 1, 0, 2.0, 5, 1e6)
    trace.append(3, 1, 0, 0, 1, 0.0, 0.3, 0.6, make_decision(2, 1.0))
    trace.append(4, 1, 1, 0, 1, 1.5, 0.2, 0.8, make_decision(3, 1.5))
    trace.append(0, 2, 0, 0, 1, 0.0, 0.1, 0.0)
    return trace


class TestRows:
    def test_rows_carry_the_columns_and_the_decisions(self):
        rows = small_trace().rows
        assert rows[0] == {
            "t": 0.0, "arrivals": 2, "ready": 0, "starting": 0, "pending": 1,
            "nodes_active": 0, "queue": 2.0, "latency": 5,
            "utilization": 1e6, "action": None, "decision_id": None}
        assert rows[2]["t"] == 1.0
        assert rows[2]["action"] == {"target_replicas": 3,
                                     "node_capacity_hint": None,
                                     "vpa_recommendation": None}
        assert rows[2]["decision_id"] == 1
        assert [row["decision_id"] for row in rows] == [None, 0, 1, None]
        assert rows[-1] == rows[3]
        assert rows[1:3] == [rows[1], rows[2]]
        with pytest.raises(IndexError):
            rows[4]

    def test_length_builds_no_row(self, monkeypatch):
        trace = small_trace()

        def refuse(view, k):
            raise AssertionError("a row was built")

        monkeypatch.setattr(TraceRows, "__getitem__", refuse)
        assert len(trace.rows) == 4
        assert not len(RunTrace("proposed", 1.0, 1.0, 1).rows)

    def test_run_rows_follow_the_tick_and_the_control_interval(self, all_runs,
                                                              scenarios):
        scn = scenarios["bursty"]
        trace = all_runs[("bursty", "proposed")]
        per_decision = int(scn.controller.control_interval / scn.tick)
        assert len(trace.rows) == int(scn.horizon / scn.tick)
        assert trace.decision_rows == list(range(per_decision - 1,
                                                 len(trace.rows),
                                                 per_decision))


class TestWriters:
    def test_writers_match_json_on_a_hand_built_trace(self):
        trace = small_trace()
        assert trace.to_jsonl() == json_trace_lines(trace)
        assert trace.decisions_to_jsonl() == json_decision_lines(trace)
        assert '"latency": 5, ' in trace.to_jsonl().splitlines()[0]

    def test_non_finite_floats_are_written_as_json_writes_them(self):
        trace = small_trace()
        trace.queue[1] = math.nan
        trace.latency[2] = math.inf
        trace.utilization[3] = -math.inf
        snapshot = SignalSnapshot(t=2.0, latency=math.nan, queue=math.inf,
                                  utilization=-math.inf, pending=0,
                                  arrival_rate=0.0, ready_replicas=0)
        trace.append(1, 2, 0, 0, 1, math.inf, math.nan, math.nan, DecisionRecord(
            snapshot=snapshot, slo_demand=1, backlog_adjusted=1,
            constraints_applied=("bound_clamp",),
            action=ScalingAction(1, vpa_recommendation=math.inf), reason="x"))
        text = trace.to_jsonl()
        assert text == json_trace_lines(trace)
        lines = text.splitlines()
        assert '"queue": NaN, ' in lines[1]
        assert '"latency": Infinity, ' in lines[2]
        assert '"utilization": -Infinity, ' in lines[3]
        assert '"vpa_recommendation": Infinity}' in lines[4]
        decisions = trace.decisions_to_jsonl()
        assert decisions == json_decision_lines(trace)
        assert '"latency": NaN, "queue": Infinity, ' in decisions

    def test_an_int_beyond_the_float_range_is_written_whole(self):
        trace = RunTrace(controller="proposed", tick=1, horizon=1,
                         initial_replicas=1)
        trace.append(10**400, 0, 0, 1, 0, 0.0, 10**400, 0.0)
        assert trace.to_jsonl() == json_trace_lines(trace)
        assert '"t": 0, "arrivals": 1000' in trace.to_jsonl()

    def test_decisions_on_the_first_and_the_last_row(self):
        trace = RunTrace(controller="proposed", tick=2.5, horizon=7.5,
                         initial_replicas=1)
        trace.append(1, 1, 0, 0, 1, 0.0, 0.1, 0.5, make_decision(2, 0.0))
        trace.append(2, 1, 1, 0, 1, 0.5, 0.2, 0.9)
        trace.append(3, 2, 0, 0, 1, 0.0, 0.1, 0.7, make_decision(1, 5.0))
        assert trace.to_jsonl() == json_trace_lines(trace)
        assert [row["decision_id"] for row in trace.rows] == [0, None, 1]

    def test_streamed_rows_hold_no_trace_text(self, tmp_path):
        """Writing 6 h of rows one by one peaks far below the 10.5 MB that
        writing the joined text needs."""
        doc = bundled_doc("bursty")
        doc.update(horizon=6 * 3600, seed=1)
        doc["workload"]["noise_std"] = 0.3
        trace = run(parse_scenario(doc), "proposed")
        path = tmp_path / "trace.jsonl"
        tracemalloc.start()
        try:
            with path.open("w") as fh:
                fh.writelines(trace.jsonl_rows())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert path.read_text() == trace.to_jsonl()

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(["bursty", "mixed", "queue_driven"]),
           tick=st.sampled_from([1, 0.5]),
           integer_cap=st.booleans(), no_nodes=st.booleans(),
           base_rate=st.sampled_from([None, 1e300]),
           noise_std=st.sampled_from([0, 0.3]),
           seed=st.integers(0, 2**31 - 1))
    @example(name="bursty", tick=0.5, integer_cap=True, no_nodes=True,
             base_rate=None, noise_std=0, seed=42)
    @example(name="mixed", tick=1, integer_cap=False, no_nodes=False,
             base_rate=1e300, noise_std=0.3, seed=7)
    def test_writers_match_json_on_accepted_documents(
            self, name, tick, integer_cap, no_nodes, base_rate, noise_std,
            seed):
        doc = bundled_doc(name)
        doc.update(horizon=120, tick=tick, seed=seed)
        doc["workload"]["noise_std"] = noise_std
        if base_rate is not None:
            doc["workload"]["base_rate"] = base_rate
        if integer_cap:
            doc["service"]["latency_cap"] = 5
        if no_nodes:
            doc["cluster"]["initial_nodes"] = 0
        scn = parse_scenario(doc)
        for kind in scn.controllers:
            trace = run(scn, kind)
            assert trace.to_jsonl() == json_trace_lines(trace)
            assert trace.decisions_to_jsonl() == json_decision_lines(trace)
            if base_rate is not None:
                assert max(trace.arrivals) > 2**63
            if integer_cap and no_nodes:
                assert trace.latency[0] == 5 and type(trace.latency[0]) is int


class TestSharedArrivals:
    """Runs on one parsed scenario share its arrivals; which run fills them,
    and what runs in between, changes no output."""

    @staticmethod
    def parsed(name, noise_std):
        doc = bundled_doc(name)
        doc.update(horizon=1200, tick=0.5)  # 2400 ticks: seven blocks
        doc["workload"]["noise_std"] = noise_std
        return parse_scenario(doc)

    @staticmethod
    def outputs(trace):
        return trace.to_jsonl(), trace.decisions_to_jsonl()

    @pytest.mark.parametrize("noise_std", [0, 0.3])
    def test_reversed_interleaved_runs_equal_fresh_runs(self, noise_std):
        names = ("bursty", "mixed")
        seeds = (3, 4)
        # a freshly parsed scenario per run shares nothing
        fresh = {}
        for name in names:
            for kind in self.parsed(name, noise_std).controllers:
                for seed in seeds:
                    scn = self.parsed(name, noise_std)
                    fresh[name, kind, seed] = self.outputs(
                        run(scn, kind, seed=seed))
        a, b = (self.parsed(name, noise_std) for name in names)
        shared = {}

        def run_all(jobs):
            for name, scn, kind, seed in jobs:
                shared[name, kind, seed] = self.outputs(
                    run(scn, kind, seed=seed))

        with mock.patch.object(workload, "_fill",
                               wraps=workload._fill) as fill:
            # seed 3: each scenario's controllers back to back, reversed
            run_all([("bursty", a, kind, 3) for kind in reversed(a.controllers)])
            run_all([("mixed", b, kind, 3) for kind in reversed(b.controllers)])
            assert fill.call_count == 2 * 7  # each block filled once
            # seed 4: the two scenarios' runs alternate
            run_all([job for kind_a, kind_b in zip(reversed(a.controllers),
                                                   b.controllers)
                     for job in (("bursty", a, kind_a, 4),
                                 ("mixed", b, kind_b, 4))])
        assert shared.keys() == fresh.keys()
        for key, value in fresh.items():
            assert shared[key] == value, key


class TestProvisionNodes:
    def test_grants_what_max_nodes_allows_in_one_call(self, monkeypatch):
        cluster = make_cluster(nodes=2, max_nodes=3)
        calls = []
        original = Cluster.provision_node

        def counted(self, count):
            calls.append(original(self, count))
            return calls[-1]

        monkeypatch.setattr(Cluster, "provision_node", counted)
        runner._provision_nodes(cluster, 1000 * 8)  # 1000 nodes' worth
        assert calls == [1]
        assert cluster.live_nodes == 3

    def test_ten_thousand_nodes_are_one_call_and_one_cohort(self,
                                                            monkeypatch):
        cluster = make_cluster(nodes=2, node_capacity=1, max_nodes=10**5,
                               node_provision_delay=60.0)
        calls = []
        original = Cluster.provision_node

        def counted(self, count):
            calls.append(count)
            return original(self, count)

        monkeypatch.setattr(Cluster, "provision_node", counted)
        runner._provision_nodes(cluster, 10**4)
        assert calls == [10**4]
        assert [(c.t, c.count) for c in cluster.provisioning] == \
            [(60.0, 10**4)]
        # the nodes on their way count against the next request
        runner._provision_nodes(cluster, 10**4 + 5)
        assert calls == [10**4, 5]
        assert cluster.live_nodes == 2 + 10**4 + 5

    def test_one_refused_request_per_trigger_at_max_nodes(self, monkeypatch):
        """bundled `bursty` with its fleet held at `initial_nodes`: every
        pending-pod trigger wants several nodes, and each is refused once."""
        scn = parse_scenario(bundled_doc("bursty"))
        scn = dataclasses.replace(scn, cluster=dataclasses.replace(
            scn.cluster, max_nodes=scn.cluster.initial_nodes))
        wanted, refused = [], []
        provision_nodes, provision_node = (runner._provision_nodes,
                                           Cluster.provision_node)

        def counted_nodes(cluster, pods):
            wanted.append(nodes_for(pods, cluster.params.node_capacity)
                          - (cluster.live_nodes - cluster.active_nodes))
            return provision_nodes(cluster, pods)

        def counted_node(self, count):
            granted = provision_node(self, count)
            refused.append(granted == 0)
            return granted

        monkeypatch.setattr(runner, "_provision_nodes", counted_nodes)
        monkeypatch.setattr(Cluster, "provision_node", counted_node)
        run(scn, "default_hpa")
        assert max(wanted) > 1
        assert refused == [True] * len(wanted)

    @pytest.mark.parametrize("controller", ["default_hpa", "proposed"])
    def test_each_trigger_makes_at_most_one_call(self, monkeypatch,
                                                 controller):
        """Single-slot nodes and room for 10**5 of them: both triggers ask
        for thousands of nodes, each in one call that adds one cohort,
        however many nodes it grants."""
        doc = bundled_doc("bursty")
        doc.update(horizon=600)
        doc["workload"]["base_rate"] = 1e5
        doc["cluster"].update(node_capacity=1, max_nodes=10**5)
        doc["controller"].update(max_replicas=10**6, max_step_up=10**6,
                                 max_step_down=10**6)
        triggers, requests, added = [], [], []
        provision_nodes, provision_node = (runner._provision_nodes,
                                           Cluster.provision_node)

        def counted_nodes(cluster, pods):
            triggers.append(pods)
            return provision_nodes(cluster, pods)

        def counted_node(self, count):
            requests.append(count)
            before = len(self.provisioning)
            granted = provision_node(self, count)
            added.append(len(self.provisioning) - before)
            return granted

        monkeypatch.setattr(runner, "_provision_nodes", counted_nodes)
        monkeypatch.setattr(Cluster, "provision_node", counted_node)
        trace = run(parse_scenario(doc), controller)
        assert len(requests) <= len(triggers)
        assert max(requests) > 1000
        assert set(added) <= {0, 1} and 1 in added  # 0 when refused
        assert max(trace.nodes_active) > 1000


@contextlib.contextmanager
def recorded_walks():
    """Record what a fresh `ClusterState.ready_replicas` walk reads where
    each controller decides and where each tick's invariants are checked.

    Yields two lists. `at_decide` gets (time, ready, queue, pending) of the
    state a controller is handed; `at_check` gets (ready, placed) of the
    state the tick's trace row is written from.
    """
    at_decide, at_check = [], []
    check = Cluster.check_invariants

    def checked(self):
        at_check.append((self.ready_replicas, self.total_replicas))
        return check(self)

    def recording(decide):
        def decided(self, snap, state):
            at_decide.append((state.time, state.ready_replicas,
                              state.queue_depth, state.pending_replicas))
            return decide(self, snap, state)
        return decided

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(Cluster, "check_invariants",
                                              checked))
        for cls in (HpaController, SloCostController):
            stack.enter_context(mock.patch.object(cls, "decide",
                                                  recording(cls.decide)))
        yield at_decide, at_check


class TestReadyCount:
    """`step` returns the ready count a tick serves with; the run loop reads
    it again only after `schedule`, the one call that places or removes pods
    within a tick."""

    @settings(max_examples=25, deadline=None)
    @given(name=st.sampled_from(["bursty", "mixed", "queue_driven"]),
           pod_start_delay=st.sampled_from([0, 0, 5]),
           node_capacity=st.sampled_from([2, 8]),
           initial_nodes=st.sampled_from([0, 2]),
           scale_down_stabilization=st.sampled_from([0, 120]),
           noise_std=st.sampled_from([0, 0.3]),
           seed=st.integers(0, 2**31 - 1))
    @example(name="bursty", pod_start_delay=0, node_capacity=8,
             initial_nodes=2, scale_down_stabilization=0, noise_std=0,
             seed=42)
    def test_recorded_ready_counts_match_a_fresh_walk(
            self, name, pod_start_delay, node_capacity, initial_nodes,
            scale_down_stabilization, noise_std, seed):
        doc = bundled_doc(name)
        doc.update(horizon=1200, seed=seed,
                   controllers=["default_hpa", "proposed"])
        doc["workload"]["noise_std"] = noise_std
        doc["cluster"].update(pod_start_delay=pod_start_delay,
                              node_capacity=node_capacity,
                              initial_nodes=initial_nodes)
        doc["controller"]["scale_down_stabilization"] = \
            scale_down_stabilization
        scn = parse_scenario(doc)
        for kind in scn.controllers:
            with recorded_walks() as (at_decide, at_check):
                trace = run(scn, kind)
            assert trace.ready == [ready for ready, _ in at_check]
            assert trace.starting == [placed - ready
                                      for ready, placed in at_check]
            assert [rec.snapshot.ready_replicas for rec in trace.decisions] \
                == [ready for _, ready, _, _ in at_decide]


class TestDecisionSnapshot:
    def test_snapshot_carries_the_state_the_controller_decides_on(
            self, scenarios):
        scn = scenarios["bursty"]
        for kind in ("default_hpa", "proposed"):
            with recorded_walks() as (at_decide, _):
                trace = run(scn, kind)
            assert len(at_decide) == len(trace.decisions) > 0
            for k, rec, (t, ready, queue, pending) in zip(
                    trace.decision_rows, trace.decisions, at_decide):
                snap = rec.snapshot
                assert (snap.t, snap.ready_replicas, snap.queue,
                        snap.pending) == (t, ready, queue, pending)
                # the row holds the same tick's sample; schedule moves no
                # request, so the row's queue is the snapshot's
                assert (snap.latency, snap.utilization, snap.queue) == (
                    trace.latency[k], trace.utilization[k], trace.queue[k])
                assert snap.arrival_rate == trace.arrivals[k] / scn.tick

    def test_idle_cluster_snapshot(self):
        doc = bundled_doc("bursty")
        doc.update(horizon=60, controllers=["default_hpa", "proposed"])
        doc["workload"]["base_rate"] = 0
        scn = parse_scenario(doc)
        for kind in scn.controllers:
            trace = run(scn, kind)
            assert trace.decisions
            for rec in trace.decisions:
                snap = rec.snapshot
                assert snap.latency == scn.service.base_latency
                assert snap.queue == 0
                assert snap.utilization == 0
                assert snap.pending == 0
                assert snap.ready_replicas == scn.controller.min_replicas


def test_state_constructors_take_only_what_callers_set():
    # rows enter a trace through `append`, and a cluster's state and the
    # guardrails' candidates through their own operations
    assert {cls.__name__: [f.name for f in dataclasses.fields(cls) if f.init]
            for cls in (RunTrace, ClusterState, GuardrailState)} == {
        "RunTrace": ["controller", "tick", "horizon", "initial_replicas"],
        "ClusterState": ["params"],
        "GuardrailState": ["last_scale_up_t"],
    }
    # the call the benchmark's set-up makes still builds a cluster
    scn = parse_scenario(bundled_doc("bursty"))
    cluster = Cluster(scn.cluster, initial_replicas=3)
    assert (cluster.params, cluster.ready_replicas) == (scn.cluster, 3)
