"""Cluster engine: serving arithmetic, latency curve, scheduling, nodes."""

import ast
import dataclasses
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import slosim
from slosim.controllers import SloCostController
from slosim.runner import SimulationError, run
from slosim.scenario import parse_scenario
from slosim.sim import (
    Cluster,
    ClusterParams,
    ClusterState,
    Cohort,
    ServiceModel,
    nodes_for,
    observe_latency,
)

from helpers import ReferenceCluster, bundled_doc, make_cluster

MODEL = ServiceModel(per_replica_rate=10.0, base_latency=0.05, latency_cap=30.0)


def runs(cohorts):
    """Cohorts as (t, count) pairs, left to right."""
    return [(cohort.t, cohort.count) for cohort in cohorts]


class TestServiceModel:
    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            ServiceModel(0, 0.05, 5.0)

    def test_rejects_cap_below_base_latency(self):
        with pytest.raises(ValueError):
            ServiceModel(10, 0.5, 0.4)


class TestStep:
    def test_empty_system_stays_empty(self):
        c = make_cluster(ready=2)
        c.step(0, MODEL, 1.0)
        assert c.queue_depth == 0
        assert c.cumulative_served == 0

    def test_excess_arrivals_accumulate_in_queue(self):
        c = make_cluster(ready=2)
        c.step(30, MODEL, 1.0)  # capacity 2*10*1 = 20
        assert c.cumulative_served == 20
        assert c.queue_depth == 10

    def test_backlog_drains_when_capacity_allows(self):
        c = make_cluster(ready=10, queue=50)
        c.step(50, MODEL, 1.0)  # capacity 100 >= 50 + 50 offered
        assert c.cumulative_served == 100
        assert c.queue_depth == 0

    def test_returns_the_ready_count_it_served_with(self):
        # two pending pods land on a node that activates this tick and,
        # with no start delay, serve in it
        c = make_cluster(ready=2, nodes=1, node_capacity=2,
                         pod_start_delay=0.0, node_provision_delay=1.0)
        c.schedule(4)
        assert c.pending_replicas == 2
        assert c.provision_node(1) == 1
        assert c.step(50, MODEL, 1.0) == 4
        assert c.cumulative_served == 40

    def test_rejects_bad_inputs(self):
        c = make_cluster(ready=1)
        with pytest.raises(ValueError):
            c.step(float("nan"), MODEL, 1.0)
        with pytest.raises(ValueError):
            c.step(-1, MODEL, 1.0)
        with pytest.raises(ValueError):
            c.step(0, MODEL, 0)

    def test_starting_replica_becomes_ready_after_delay(self):
        c = make_cluster(ready=0, pod_start_delay=15.0)
        c.schedule(1)
        assert c.ready_replicas == 0
        for _ in range(15):
            c.step(0, MODEL, 1.0)
        assert c.ready_replicas == 1

    def test_idle_node_retires_after_timeout(self):
        c = make_cluster(ready=0, nodes=1, node_idle_timeout=10.0)
        for _ in range(10):
            c.step(0, MODEL, 1.0)
        assert c.active_nodes == 1
        c.step(0, MODEL, 1.0)
        assert c.active_nodes == 0
        # a retired node is dropped
        assert not c.fresh and not c.emptied

    def test_time_is_a_whole_number_of_ticks(self):
        # a running sum of 0.1 reads 600.0000000000679 after 6000 ticks
        c = make_cluster(ready=1)
        for _ in range(6000):
            c.step(0, MODEL, 0.1)
        assert c.ticks == 6000
        assert c.time == 600.0


class TestObserveLatency:
    def test_unloaded_cluster_reports_base_latency(self):
        assert observe_latency(4, 0.0, 0, MODEL) == MODEL.base_latency

    def test_half_loaded_doubles_base_latency(self):
        assert observe_latency(4, 0.0, 20, MODEL) == pytest.approx(0.1)

    def test_saturated_branch_adds_backlog_term(self):
        lat = observe_latency(4, 80.0, 60, MODEL)
        assert lat == pytest.approx(0.05 + 81 / 40)

    def test_no_ready_replicas_reports_cap(self):
        assert observe_latency(0, 0.0, 10, MODEL) == MODEL.latency_cap

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            observe_latency(1, 0.0, -1, MODEL)

    # The response curve has two branches that meet discontinuously at
    # saturation, so monotonicity in replica count holds within each branch:
    # once the smaller fleet is subcritical, and separately while both
    # fleets stay saturated.
    @given(
        rate=st.floats(0, 500),
        queue=st.floats(0, 5000),
        smaller=st.integers(1, 40),
        extra=st.integers(1, 40),
    )
    def test_more_replicas_never_raises_subcritical_latency(
            self, rate, queue, smaller, extra):
        assume(rate < smaller * MODEL.per_replica_rate)
        few = observe_latency(smaller, queue, rate, MODEL)
        many = observe_latency(smaller + extra, queue, rate, MODEL)
        assert many <= few + 1e-12

    @given(
        rate=st.floats(0, 500),
        queue=st.floats(0, 5000),
        smaller=st.integers(1, 40),
        extra=st.integers(1, 40),
    )
    def test_more_replicas_never_raises_saturated_latency(
            self, rate, queue, smaller, extra):
        assume(rate >= (smaller + extra) * MODEL.per_replica_rate)
        few = observe_latency(smaller, queue, rate, MODEL)
        many = observe_latency(smaller + extra, queue, rate, MODEL)
        assert many <= few + 1e-12

    @given(rate=st.floats(0, 500), queue=st.floats(0, 5000),
           ready=st.integers(0, 40))
    def test_latency_positive_and_capped(self, rate, queue, ready):
        lat = observe_latency(ready, queue, rate, MODEL)
        assert 0 < lat <= MODEL.latency_cap


class TestSchedule:
    def test_matching_desired_is_noop(self):
        c = make_cluster(ready=4)
        before = runs(c.replicas)
        c.schedule(4)
        assert runs(c.replicas) == before
        assert c.active_nodes == 2
        assert runs(c.fresh) == [(0.0, 1)] and not c.emptied

    def test_scale_up_within_free_slots(self):
        c = make_cluster(ready=4, nodes=1, node_capacity=6, pod_start_delay=15.0)
        c.schedule(6)
        assert c.pending_replicas == 0
        # one entry per pod, expanded from the cohorts
        starting = [r.t for r in c.replicas
                    for _ in range(r.count) if r.t > c.time]
        assert starting == [15.0, 15.0]

    def test_overflow_becomes_pending(self):
        c = make_cluster(ready=4, nodes=1, node_capacity=6)
        c.schedule(10)
        assert c.total_replicas == 6
        assert c.pending_replicas == 4

    def test_scale_down_removes_newest_first(self):
        c = make_cluster(ready=2, nodes=2, node_capacity=2)
        c.schedule(4)  # two more, newest land on node 1
        assert not c.fresh and not c.emptied
        c.schedule(2)
        assert runs(c.replicas) == [(0.0, 2)]
        assert runs(c.emptied) == [(0.0, 1)]  # node 1

    def test_scale_down_drops_pending_before_placed(self):
        c = make_cluster(ready=4, nodes=1, node_capacity=4)
        c.schedule(6)
        assert c.pending_replicas == 2
        c.schedule(4)
        assert c.pending_replicas == 0
        assert c.total_replicas == 4

    def test_first_fit_fills_lowest_node_id_first(self):
        c = make_cluster(ready=0, nodes=3, node_capacity=4)
        c.schedule(5)
        assert runs(c.fresh) == [(0.0, 1)]  # node 2
        c.schedule(8)  # node 1 fills before node 2 takes a pod
        assert runs(c.fresh) == [(0.0, 1)]
        c.schedule(9)
        assert not c.fresh and not c.emptied
        assert c.free_slots == 3

    def test_placements_at_one_time_share_a_cohort(self):
        c = make_cluster(ready=0, nodes=3, node_capacity=4, pod_start_delay=5.0)
        c.schedule(3)
        c.schedule(6)  # spans nodes 0 and 1, same ready time
        c.step(0, MODEL, 1.0)
        c.schedule(7)
        assert runs(c.replicas) == \
            [(5.0, 6), (6.0, 1)]
        assert runs(c.fresh) == [(0.0, 1)]  # node 2

    def test_idle_nodes_fill_in_id_order_not_idle_order(self):
        c = make_cluster(ready=3, nodes=3, node_capacity=1)
        c.step(0, MODEL, 1.0)
        c.schedule(2)  # node 2 empties at t=1
        c.step(0, MODEL, 1.0)
        c.schedule(1)  # node 1 empties at t=2
        assert runs(c.emptied) == [(1.0, 1), (2.0, 1)]  # nodes 2, 1
        c.schedule(2)  # node 1, the newest emptied, is the lowest idle id
        assert runs(c.emptied) == [(1.0, 1)]

    def test_node_activated_after_a_retirement_fills_last(self):
        c = make_cluster(ready=2, nodes=2, node_capacity=2,
                         node_idle_timeout=2.0, node_provision_delay=1.0)
        for _ in range(3):
            c.step(0, MODEL, 1.0)
        assert not c.fresh  # node 1 retired at t=3
        assert c.active_nodes == 1
        c.provision_node(1)
        c.schedule(1)  # node 0 has a free slot
        c.step(0, MODEL, 1.0)
        assert runs(c.fresh) == [(4.0, 1)]  # node 2, not node 1 again
        c.schedule(4)  # node 0's free slot first, then node 2
        assert not c.fresh and c.active_nodes == 2
        assert c.free_slots == 0
        assert runs(c.replicas) == \
            [(0.0, 1), (19.0, 3)]

    def test_fresh_nodes_fill_oldest_first(self):
        c = make_cluster(ready=0, nodes=1, node_capacity=1,
                         node_provision_delay=1.0)
        c.provision_node(1)
        c.step(0, MODEL, 1.0)
        assert runs(c.fresh) == [(0.0, 1), (1.0, 1)]  # nodes 0 and 1
        c.schedule(1)  # node 0, the lowest id, has been idle longest
        assert runs(c.fresh) == [(1.0, 1)]

    def test_emptied_node_fills_before_a_longer_idle_fresh_one(self):
        params = ClusterParams(initial_nodes=3, node_capacity=1,
                               node_idle_timeout=2.0)
        c = Cluster(params, initial_replicas=2)
        ref = ReferenceCluster(params, initial_replicas=2)

        def step():
            c.step(0, MODEL, 1.0)
            ref.step(0, MODEL.per_replica_rate, 1.0)

        def schedule(desired):
            c.schedule(desired)
            ref.schedule(desired)

        step()
        schedule(1)  # node 1 empties at t=1; node 2 is idle since t=0
        schedule(2)  # node 1 fills again, not node 2
        assert not c.emptied and runs(c.fresh) == [(0.0, 1)]
        assert [n.used for n in ref.nodes] == [1, 1, 0]
        schedule(1)  # node 1 empties again at t=1
        step()
        step()  # node 2 times out first, at t=3
        assert runs(c.emptied) == [(1.0, 1)] and not c.fresh
        assert [n.retired for n in ref.nodes] == [False, False, True]


class TestIdleRuns:
    """Idle nodes that went idle at one time are stored as one run."""

    def test_fill_takes_part_of_a_run(self):
        params = ClusterParams(initial_nodes=3, node_capacity=1,
                               node_provision_delay=1.0)
        c = Cluster(params)
        ref = ReferenceCluster(params)

        def step():
            c.step(0, MODEL, 1.0)
            ref.step(0, MODEL.per_replica_rate, 1.0)

        def schedule(desired):
            c.schedule(desired)
            ref.schedule(desired)

        assert c.provision_node(2) == 2
        assert ref.provision_node() and ref.provision_node()
        step()
        assert runs(c.fresh) == [(0.0, 3), (1.0, 2)]
        schedule(2)  # nodes 0 and 1, two of the oldest fresh run
        assert runs(c.fresh) == [(0.0, 1), (1.0, 2)]
        schedule(4)  # node 2, then node 3 of the next run
        assert runs(c.fresh) == [(1.0, 1)]
        step()
        schedule(3)  # node 3 empties at t=2
        step()
        schedule(1)  # nodes 2 and 1 empty at t=3
        assert runs(c.emptied) == [(2.0, 1), (3.0, 2)]
        schedule(2)  # node 1, one of the newest emptied run
        assert runs(c.emptied) == [(2.0, 1), (3.0, 1)]
        assert_same(c, ref, look=True)

    def test_one_fill_spans_two_emptied_runs_then_a_fresh_run(self):
        params = ClusterParams(initial_nodes=5, node_capacity=1)
        c = Cluster(params, initial_replicas=3)
        ref = ReferenceCluster(params, initial_replicas=3)
        for desired in (2, 1):
            c.step(0, MODEL, 1.0)
            ref.step(0, MODEL.per_replica_rate, 1.0)
            c.schedule(desired)
            ref.schedule(desired)
        assert runs(c.emptied) == [(1.0, 1), (2.0, 1)]
        assert runs(c.fresh) == [(0.0, 2)]
        c.schedule(4)  # nodes 1 and 2, then the lower fresh node 3
        ref.schedule(4)
        assert not c.emptied and runs(c.fresh) == [(0.0, 1)]
        assert_same(c, ref, look=True)

    def test_run_of_k_nodes_retires_in_one_step(self):
        c = make_cluster(ready=4, nodes=4, node_capacity=1,
                         node_idle_timeout=2.0)
        c.step(0, MODEL, 1.0)
        c.schedule(0)
        assert runs(c.emptied) == [(1.0, 4)]
        c.step(0, MODEL, 1.0)
        c.step(0, MODEL, 1.0)
        assert c.active_nodes == 4
        c.step(0, MODEL, 1.0)  # idle for 3 s > 2 s
        assert c.active_nodes == 0 and not c.emptied
        c.check_invariants()

    def test_activations_in_one_tick_merge_into_one_fresh_run(self):
        c = make_cluster(ready=0, nodes=1, node_provision_delay=1.0)
        assert c.provision_node(1) == 1 and c.provision_node(1) == 1
        assert runs(c.provisioning) == [(1.0, 2)]
        c.step(0, MODEL, 1.0)
        assert runs(c.fresh) == [(0.0, 1), (1.0, 2)]
        assert c.active_nodes == 3
        c.check_invariants()

    def test_scale_downs_at_one_time_merge_into_one_emptied_run(self):
        c = make_cluster(ready=4, nodes=4, node_capacity=1)
        c.step(0, MODEL, 1.0)
        c.schedule(3)
        c.schedule(1)
        assert runs(c.emptied) == [(1.0, 3)]
        c.check_invariants()


class TestProvisionNode:
    def test_node_activates_after_delay(self):
        c = make_cluster(ready=0, nodes=1, node_provision_delay=60.0)
        c.provision_node(1)
        assert c.active_nodes == 1
        for _ in range(60):
            c.step(0, MODEL, 1.0)
        assert c.active_nodes == 2

    def test_pending_replicas_placed_on_activation(self):
        c = make_cluster(ready=0, nodes=1, node_capacity=4,
                         node_provision_delay=10.0)
        c.schedule(8)
        assert c.pending_replicas == 4
        c.provision_node(1)
        for _ in range(10):
            c.step(0, MODEL, 1.0)
        assert c.pending_replicas == 0
        assert c.total_replicas == 8

    def test_refused_at_max_nodes(self):
        c = make_cluster(ready=0, nodes=2, max_nodes=2)
        assert c.provision_node(1) == 0
        assert c.live_nodes == 2
        assert not c.provisioning

    def test_grants_up_to_max_nodes_as_one_cohort(self):
        c = make_cluster(ready=0, nodes=2, max_nodes=10**4,
                         node_provision_delay=3.0)
        assert c.provision_node(10**6) == 10**4 - 2
        assert runs(c.provisioning) == [(3.0, 10**4 - 2)]
        assert c.live_nodes == 10**4
        for _ in range(3):
            c.step(0, MODEL, 1.0)
        assert not c.provisioning
        assert runs(c.fresh) == [(0.0, 2), (3.0, 10**4 - 2)]
        c.check_invariants()

    def test_nodes_for_is_the_exact_ceiling(self):
        # a float ceiling of the quotient gives 8192 here
        assert nodes_for(2**53 + 1, 2**40) == 8193
        assert nodes_for(2**40, 2**40) == 1 and nodes_for(0, 2**40) == 0


class TestClusterIsItsState:
    def test_cluster_is_a_hashable_cluster_state(self):
        c = make_cluster(ready=3)
        assert isinstance(c, ClusterState)
        assert not hasattr(c, "state")
        # equality is identity, so two equal-looking clusters stay apart
        assert c != make_cluster(ready=3) and {c: 1}[c] == 1

    def test_decide_reads_the_run_cluster(self, monkeypatch):
        stepped, read = set(), []
        step, decide = Cluster.step, SloCostController.decide

        def recording_step(self, *args):
            stepped.add(self)
            return step(self, *args)

        def recording_decide(self, snap, cluster):
            read.append(cluster)
            return decide(self, snap, cluster)

        monkeypatch.setattr(Cluster, "step", recording_step)
        monkeypatch.setattr(SloCostController, "decide", recording_decide)
        scn = dataclasses.replace(parse_scenario(bundled_doc("bursty")),
                                  horizon=120)
        trace = run(scn, "proposed")
        assert len(stepped) == 1 and len(read) == len(trace.decisions) > 0
        assert all(cluster is read[0] for cluster in read)
        assert read[0] in stepped

    def test_a_property_patched_on_the_base_counts_cluster_reads(
            self, monkeypatch):
        """A counter patched onto `ClusterState.ready_replicas`, as a
        profiler patches it, sees each read: one per tick, one per
        decision."""
        ready_replicas = ClusterState.ready_replicas
        reads = []

        def counted(self):
            reads.append(None)
            return ready_replicas.fget(self)

        monkeypatch.setattr(ClusterState, "ready_replicas", property(counted))
        scn = dataclasses.replace(parse_scenario(bundled_doc("bursty")),
                                  horizon=600)
        for kind in ("default_hpa", "proposed"):
            reads.clear()
            trace = run(scn, kind)
            assert len(reads) == len(trace.arrivals) + len(trace.decisions)


# Random operation sequences; every intermediate state must stay sound.
op_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(0, 40)),
        st.tuples(st.just("provision"), st.integers(1, 12)),
        st.tuples(st.just("step"), st.integers(0, 400)),
    ),
    min_size=1, max_size=14,
)


@settings(deadline=None)
@given(
    ops=op_strategy,
    nodes=st.integers(1, 4),
    capacity=st.integers(1, 10),
    max_nodes=st.integers(4, 8),
    initial=st.integers(0, 10),
)
def test_random_operations_keep_cluster_sound(ops, nodes, capacity, max_nodes,
                                              initial):
    params = ClusterParams(initial_nodes=nodes, node_capacity=capacity,
                           max_nodes=max(max_nodes, nodes),
                           pod_start_delay=5.0, node_provision_delay=20.0,
                           node_idle_timeout=50.0)
    cluster = Cluster(params, initial_replicas=initial)
    for op, arg in ops:
        if op == "schedule":
            cluster.schedule(arg)
        elif op == "provision":
            room = params.max_nodes - cluster.live_nodes
            assert cluster.provision_node(arg) == min(arg, room)
        else:
            cluster.step(arg, MODEL, 1.0)
            # backlog conservation holds at every tick boundary
            assert cluster.cumulative_arrived == pytest.approx(
                cluster.cumulative_served + cluster.queue_depth)
            # pending replicas only exist when no node has room
            if cluster.pending_replicas > 0:
                assert cluster.free_slots == 0
        cluster.check_invariants()
        assert cluster.live_nodes <= params.max_nodes


# The cohort model against the per-pod reference: same operations, same
# answers. A step op advances `ticks` ticks with `arrivals` each; `look`
# reads ready_replicas afterwards, so skipped reads check that no state
# depends on when it is read.
diff_ops = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(0, 30), st.just(0),
                  st.booleans()),
        st.tuples(st.just("provision"), st.integers(1, 8), st.just(0),
                  st.booleans()),
        st.tuples(st.just("step"), st.integers(1, 30), st.integers(0, 200),
                  st.booleans()),
    ),
    min_size=1, max_size=20,
)


def assert_same(cluster, ref, look):
    if look:
        assert cluster.ready_replicas == ref.ready_replicas
    assert cluster.time == ref.time
    assert cluster.total_replicas == ref.total_replicas
    assert cluster.pending_replicas == ref.pending_replicas
    assert cluster.active_nodes == ref.active_nodes
    assert cluster.live_nodes == ref.live_nodes
    assert cluster.free_slots == ref.free_slots
    assert cluster.queue_depth == ref.queue_depth
    # the reference keeps every node it ever requested, retired ones too.
    # Rebuild each active node's (pods, idle_since) in id order: the busy
    # nodes, full but the last, then the emptied nodes newest first, then
    # the fresh ones oldest first, each run expanded into its nodes
    cap = cluster.params.node_capacity
    busy, last = divmod(cluster.total_replicas, cap)
    nodes = [(cap, None)] * busy + [(last, None)] * (last > 0)
    nodes += [(0, run.t) for run in reversed(cluster.emptied)
              for _ in range(run.count)]
    nodes += [(0, run.t) for run in cluster.fresh for _ in range(run.count)]
    assert nodes == [(n.used, n.idle_since) for n in ref.nodes if n.active]
    # and the nodes on their way, by activation time
    assert [run.t for run in cluster.provisioning
            for _ in range(run.count)] == \
        [n.provisioned_at for n in ref.nodes if not n.active and not n.retired]
    cluster.check_invariants()


@settings(deadline=None)
@given(
    ops=diff_ops,
    nodes=st.integers(0, 3),
    extra_nodes=st.integers(0, 3),
    capacity=st.integers(1, 6),
    initial=st.integers(0, 12),
    pod_start_delay=st.sampled_from([0.0, 5.0]),
    dt=st.sampled_from([1.0, 0.1]),
    provision_delay=st.sampled_from([0.0, 0.5, 3.0]),
    idle_timeout=st.sampled_from([0.0, 0.5, 4.0]),
)
def test_cohorts_match_per_pod_reference(ops, nodes, extra_nodes, capacity,
                                         initial, pod_start_delay, dt,
                                         provision_delay, idle_timeout):
    params = ClusterParams(initial_nodes=nodes, node_capacity=capacity,
                           max_nodes=nodes + extra_nodes,
                           pod_start_delay=pod_start_delay,
                           node_provision_delay=provision_delay,
                           node_idle_timeout=idle_timeout)
    cluster = Cluster(params, initial_replicas=initial)
    ref = ReferenceCluster(params, initial_replicas=initial)
    assert_same(cluster, ref, look=True)
    for op, arg, arrivals, look in ops:
        if op == "schedule":
            cluster.schedule(arg)
            ref.schedule(arg)
        elif op == "provision":
            granted = sum(ref.provision_node() for _ in range(arg))
            assert cluster.provision_node(arg) == granted
        else:
            for _ in range(arg):
                ready = cluster.step(arrivals, MODEL, dt)
                ref.step(arrivals, MODEL.per_replica_rate, dt)
                assert ready == ref.ready_replicas
                assert_same(cluster, ref, look)
        assert_same(cluster, ref, look)
    assert_same(cluster, ref, look=True)


# One corruption per fact check_invariants guards, with the message that
# names it. Each applies to any state, busy nodes or not.
def add_idle_node(idle, since):
    """One more node idle since `since` at the right of `idle`, merged into
    the last run as the cluster merges it."""
    if idle and idle[-1].t == since:
        idle[-1].count += 1
    else:
        idle.append(Cohort(since, 1))


def used_off_by_one(s):
    s.replicas[-1].count += 1


def deactivate_busy_node(s):
    s.active_nodes -= 1


def overfill(s):
    s.params.node_capacity -= 1


def break_conservation(s):
    s.cumulative_served += 1.0


def misorder_cohorts(s):
    s.replicas.insert(0, Cohort(s.time + 100.0, 1))


def add_empty_cohort(s):
    s.replicas.insert(0, Cohort(0.0, 0))


def drift_total_replicas(s):
    s.total_replicas += 1


def track_busy_node_as_idle(s):
    add_idle_node(s.fresh, s.time)


def keep_idle_node_busy(s):
    # a node's worth of pods placed without taking a node off idle
    s.replicas[-1].count += s.params.node_capacity
    s.total_replicas += s.params.node_capacity


def idle_node_with_cohorts(s):
    add_idle_node(s.emptied, s.time)


def misorder_provisioning(s):
    s.provisioning.extend((Cohort(s.time + 2.0, 1), Cohort(s.time + 1.0, 1)))


def empty_provisioning_run(s):
    s.provisioning.append(Cohort(s.time + 1.0, 0))


def negative_queue(s):
    s.queue_depth = -1.0


def negative_pending(s):
    s.pending_replicas = -1


def untrack_empty_node(s):
    s.active_nodes += 1


def misorder_idle(s):
    s.emptied.extend((Cohort(s.time, 1), Cohort(s.time - 1.0, 1)))
    s.active_nodes += 2


def misorder_fresh(s):
    s.fresh.extend((Cohort(s.time, 1), Cohort(s.time - 1.0, 1)))
    s.active_nodes += 2


def split_idle_run(s):
    # two adjacent runs with one time: the count fits, the merge is missing
    s.emptied.extend((Cohort(s.time, 1), Cohort(s.time, 1)))
    s.active_nodes += 2


def empty_emptied_run(s):
    s.emptied.append(Cohort(s.time, 0))


def empty_fresh_run(s):
    s.fresh.append(Cohort(s.time, 0))


def pend_beside_a_free_node(s):
    s.pending_replicas += 1
    add_idle_node(s.fresh, s.time)
    s.active_nodes += 1


def exceed_max_nodes(s):
    last = s.provisioning[-1].t if s.provisioning else s.time
    s.provisioning.append(Cohort(last + 1.0,
                                 s.params.max_nodes - s.live_nodes + 1))


NODE_COUNT = "node count does not fit the busy and idle nodes"
CORRUPTIONS = [
    (used_off_by_one, "replica counter drifted"),
    (deactivate_busy_node, NODE_COUNT),
    (idle_node_with_cohorts, NODE_COUNT),
    (overfill, NODE_COUNT),
    (break_conservation, "request conservation violated"),
    (misorder_cohorts, "cohorts out of ready_at order"),
    (add_empty_cohort, "empty cohort"),
    (drift_total_replicas, "replica counter drifted"),
    (track_busy_node_as_idle, NODE_COUNT),
    (keep_idle_node_busy, NODE_COUNT),
    (misorder_provisioning, "provisioning nodes out of order"),
    (empty_provisioning_run, "empty provisioning run"),
    (negative_queue, "negative queue"),
    (negative_pending, "negative pending"),
    (untrack_empty_node, NODE_COUNT),
    (misorder_idle, "emptied nodes out of order"),
    (misorder_fresh, "fresh nodes out of order"),
    (split_idle_run, "emptied nodes out of order"),
    (empty_emptied_run, "empty emptied run"),
    (empty_fresh_run, "empty fresh run"),
    (pend_beside_a_free_node, "pending pods while a slot is free"),
    (exceed_max_nodes, "more live nodes than max_nodes"),
]
corruption_params = pytest.mark.parametrize(
    "corrupt,message", CORRUPTIONS, ids=[c.__name__ for c, _ in CORRUPTIONS])


def test_every_invariant_has_a_corruption():
    source = textwrap.dedent(inspect.getsource(Cluster.check_invariants))
    tree = ast.parse(source)
    # every check raises AssertionError(message) itself; nothing asserts,
    # so `python -O` strips none of them
    assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree))
    raises = [node for node in ast.walk(tree) if isinstance(node, ast.Raise)]
    assert all(isinstance(node.exc, ast.Call)
               and node.exc.func.id == "AssertionError"
               and len(node.exc.args) == 1
               and isinstance(node.exc.args[0], ast.Constant)
               for node in raises)
    checked = {node.exc.args[0].value for node in raises}
    assert len(checked) == len(raises)
    assert checked == {message for _, message in CORRUPTIONS}


def healthy_cluster():
    """Two busy nodes, cohorts with two ready times, one node on its way."""
    c = make_cluster(ready=6, nodes=2, node_capacity=4, pod_start_delay=5.0)
    c.step(0, MODEL, 1.0)
    c.schedule(8)
    c.provision_node(1)
    assert c.ready_replicas == 6
    return c


@corruption_params
def test_check_invariants_catches_each_corruption(corrupt, message):
    c = healthy_cluster()
    c.check_invariants()
    corrupt(c)
    with pytest.raises(AssertionError, match=message):
        c.check_invariants()


@corruption_params
def test_run_reports_each_corruption(monkeypatch, corrupt, message):
    scn = dataclasses.replace(parse_scenario(bundled_doc("bursty")),
                              horizon=600)
    step = Cluster.step
    ticks = []

    def corrupting_step(self, *args):
        ready = step(self, *args)
        ticks.append(None)
        if len(ticks) == 400:
            corrupt(self)
        return ready

    monkeypatch.setattr(Cluster, "step", corrupting_step)
    with pytest.raises(SimulationError, match=rf"t=399: {message}"):
        run(scn, "proposed")


def test_optimized_python_still_reports_a_corruption():
    """`python -O` strips assert statements; the checks must not be ones."""
    code = textwrap.dedent("""
        import dataclasses
        from slosim.runner import SimulationError, run
        from pathlib import Path
        import slosim
        from slosim.scenario import load_scenario
        from slosim.sim import Cluster
        step = Cluster.step
        ticks = []
        def corrupting_step(self, *args):
            ready = step(self, *args)
            ticks.append(None)
            if len(ticks) == 400:
                self.pending_replicas = -1
            return ready
        Cluster.step = corrupting_step
        scn = load_scenario(
            Path(slosim.__file__).parent / "scenarios" / "bursty.json")
        scn = dataclasses.replace(scn, horizon=600)
        try:
            run(scn, "proposed")
        except SimulationError as exc:
            print(exc)
    """)
    src = str(Path(slosim.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out == "invariant breach at t=399: negative pending\n"
