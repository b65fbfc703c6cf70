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
from slosim.runner import SimulationError, run
from slosim.scenario import bundled_scenario
from slosim.sim import (
    Cluster,
    ClusterParams,
    Cohort,
    IdleRun,
    ServiceModel,
    observe_latency,
)

from helpers import ReferenceCluster, make_cluster, state_with

MODEL = ServiceModel(per_replica_rate=10.0, base_latency=0.05, latency_cap=30.0)


def runs(idle):
    """An idle deque as (since, count) pairs, left to right."""
    return [(run.since, run.count) for run in idle]


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
        assert c.state.queue_depth == 0
        assert c.state.cumulative_served == 0

    def test_excess_arrivals_accumulate_in_queue(self):
        c = make_cluster(ready=2)
        c.step(30, MODEL, 1.0)  # capacity 2*10*1 = 20
        assert c.state.cumulative_served == 20
        assert c.state.queue_depth == 10

    def test_backlog_drains_when_capacity_allows(self):
        c = make_cluster(ready=10, queue=50)
        c.step(50, MODEL, 1.0)  # capacity 100 >= 50 + 50 offered
        assert c.state.cumulative_served == 100
        assert c.state.queue_depth == 0

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
        assert c.state.ready_replicas == 0
        for _ in range(15):
            c.step(0, MODEL, 1.0)
        assert c.state.ready_replicas == 1

    def test_idle_node_retires_after_timeout(self):
        c = make_cluster(ready=0, nodes=1, node_idle_timeout=10.0)
        for _ in range(10):
            c.step(0, MODEL, 1.0)
        assert c.state.active_nodes == 1
        c.step(0, MODEL, 1.0)
        assert c.state.active_nodes == 0
        # a retired node is dropped
        assert not c.state.fresh and not c.state.emptied

    def test_time_is_a_whole_number_of_ticks(self):
        # a running sum of 0.1 reads 600.0000000000679 after 6000 ticks
        c = make_cluster(ready=1)
        for _ in range(6000):
            c.step(0, MODEL, 0.1)
        assert c.state.ticks == 6000
        assert c.state.time == 600.0


class TestObserveLatency:
    def test_unloaded_cluster_reports_base_latency(self):
        assert observe_latency(state_with(ready=4), 0, MODEL) == MODEL.base_latency

    def test_half_loaded_doubles_base_latency(self):
        assert observe_latency(state_with(ready=4), 20, MODEL) == pytest.approx(0.1)

    def test_saturated_branch_adds_backlog_term(self):
        lat = observe_latency(state_with(ready=4, queue=80), 60, MODEL)
        assert lat == pytest.approx(0.05 + 81 / 40)

    def test_no_ready_replicas_reports_cap(self):
        assert observe_latency(state_with(ready=0), 10, MODEL) == MODEL.latency_cap

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            observe_latency(state_with(ready=1), -1, MODEL)

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
        few = observe_latency(state_with(ready=smaller, queue=queue), rate, MODEL)
        many = observe_latency(
            state_with(ready=smaller + extra, queue=queue), rate, MODEL)
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
        few = observe_latency(state_with(ready=smaller, queue=queue), rate, MODEL)
        many = observe_latency(
            state_with(ready=smaller + extra, queue=queue), rate, MODEL)
        assert many <= few + 1e-12

    @given(rate=st.floats(0, 500), queue=st.floats(0, 5000),
           ready=st.integers(0, 40))
    def test_latency_positive_and_capped(self, rate, queue, ready):
        lat = observe_latency(state_with(ready=ready, queue=queue), rate, MODEL)
        assert 0 < lat <= MODEL.latency_cap


class TestSchedule:
    def test_matching_desired_is_noop(self):
        c = make_cluster(ready=4)
        before = [(r.ready_at, r.count) for r in c.state.replicas]
        c.schedule(4)
        assert [(r.ready_at, r.count) for r in c.state.replicas] == before
        assert c.state.active_nodes == 2
        assert runs(c.state.fresh) == [(0.0, 1)] and not c.state.emptied

    def test_scale_up_within_free_slots(self):
        c = make_cluster(ready=4, nodes=1, node_capacity=6, pod_start_delay=15.0)
        c.schedule(6)
        assert c.state.pending_replicas == 0
        # one entry per pod, expanded from the cohorts
        starting = [r.ready_at for r in c.state.replicas
                    for _ in range(r.count) if r.ready_at > c.state.time]
        assert starting == [15.0, 15.0]

    def test_overflow_becomes_pending(self):
        c = make_cluster(ready=4, nodes=1, node_capacity=6)
        c.schedule(10)
        assert c.state.total_replicas == 6
        assert c.state.pending_replicas == 4

    def test_scale_down_removes_newest_first(self):
        c = make_cluster(ready=2, nodes=2, node_capacity=2)
        c.schedule(4)  # two more, newest land on node 1
        assert not c.state.fresh and not c.state.emptied
        c.schedule(2)
        assert [(r.ready_at, r.count) for r in c.state.replicas] == [(0.0, 2)]
        assert runs(c.state.emptied) == [(0.0, 1)]  # node 1

    def test_scale_down_drops_pending_before_placed(self):
        c = make_cluster(ready=4, nodes=1, node_capacity=4)
        c.schedule(6)
        assert c.state.pending_replicas == 2
        c.schedule(4)
        assert c.state.pending_replicas == 0
        assert c.state.total_replicas == 4

    def test_first_fit_fills_lowest_node_id_first(self):
        c = make_cluster(ready=0, nodes=3, node_capacity=4)
        c.schedule(5)
        assert runs(c.state.fresh) == [(0.0, 1)]  # node 2
        c.schedule(8)  # node 1 fills before node 2 takes a pod
        assert runs(c.state.fresh) == [(0.0, 1)]
        c.schedule(9)
        assert not c.state.fresh and not c.state.emptied
        assert c.state.free_slots == 3

    def test_placements_at_one_time_share_a_cohort(self):
        c = make_cluster(ready=0, nodes=3, node_capacity=4, pod_start_delay=5.0)
        c.schedule(3)
        c.schedule(6)  # spans nodes 0 and 1, same ready time
        c.step(0, MODEL, 1.0)
        c.schedule(7)
        assert [(r.ready_at, r.count) for r in c.state.replicas] == \
            [(5.0, 6), (6.0, 1)]
        assert runs(c.state.fresh) == [(0.0, 1)]  # node 2

    def test_idle_nodes_fill_in_id_order_not_idle_order(self):
        c = make_cluster(ready=3, nodes=3, node_capacity=1)
        c.step(0, MODEL, 1.0)
        c.schedule(2)  # node 2 empties at t=1
        c.step(0, MODEL, 1.0)
        c.schedule(1)  # node 1 empties at t=2
        assert runs(c.state.emptied) == [(1.0, 1), (2.0, 1)]  # nodes 2, 1
        c.schedule(2)  # node 1, the newest emptied, is the lowest idle id
        assert runs(c.state.emptied) == [(1.0, 1)]

    def test_node_activated_after_a_retirement_fills_last(self):
        c = make_cluster(ready=2, nodes=2, node_capacity=2,
                         node_idle_timeout=2.0, node_provision_delay=1.0)
        for _ in range(3):
            c.step(0, MODEL, 1.0)
        assert not c.state.fresh  # node 1 retired at t=3
        assert c.state.active_nodes == 1
        c.provision_node()
        c.schedule(1)  # node 0 has a free slot
        c.step(0, MODEL, 1.0)
        assert runs(c.state.fresh) == [(4.0, 1)]  # node 2, not node 1 again
        c.schedule(4)  # node 0's free slot first, then node 2
        assert not c.state.fresh and c.state.active_nodes == 2
        assert c.state.free_slots == 0
        assert [(r.ready_at, r.count) for r in c.state.replicas] == \
            [(0.0, 1), (19.0, 3)]

    def test_fresh_nodes_fill_oldest_first(self):
        c = make_cluster(ready=0, nodes=1, node_capacity=1,
                         node_provision_delay=1.0)
        c.provision_node()
        c.step(0, MODEL, 1.0)
        assert runs(c.state.fresh) == [(0.0, 1), (1.0, 1)]  # nodes 0 and 1
        c.schedule(1)  # node 0, the lowest id, has been idle longest
        assert runs(c.state.fresh) == [(1.0, 1)]

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
        assert not c.state.emptied and runs(c.state.fresh) == [(0.0, 1)]
        assert [n.used for n in ref.nodes] == [1, 1, 0]
        schedule(1)  # node 1 empties again at t=1
        step()
        step()  # node 2 times out first, at t=3
        assert runs(c.state.emptied) == [(1.0, 1)] and not c.state.fresh
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

        assert c.provision_node() and ref.provision_node()
        assert c.provision_node() and ref.provision_node()
        step()
        assert runs(c.state.fresh) == [(0.0, 3), (1.0, 2)]
        schedule(2)  # nodes 0 and 1, two of the oldest fresh run
        assert runs(c.state.fresh) == [(0.0, 1), (1.0, 2)]
        schedule(4)  # node 2, then node 3 of the next run
        assert runs(c.state.fresh) == [(1.0, 1)]
        step()
        schedule(3)  # node 3 empties at t=2
        step()
        schedule(1)  # nodes 2 and 1 empty at t=3
        assert runs(c.state.emptied) == [(2.0, 1), (3.0, 2)]
        schedule(2)  # node 1, one of the newest emptied run
        assert runs(c.state.emptied) == [(2.0, 1), (3.0, 1)]
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
        assert runs(c.state.emptied) == [(1.0, 1), (2.0, 1)]
        assert runs(c.state.fresh) == [(0.0, 2)]
        c.schedule(4)  # nodes 1 and 2, then the lower fresh node 3
        ref.schedule(4)
        assert not c.state.emptied and runs(c.state.fresh) == [(0.0, 1)]
        assert_same(c, ref, look=True)

    def test_run_of_k_nodes_retires_in_one_step(self):
        c = make_cluster(ready=4, nodes=4, node_capacity=1,
                         node_idle_timeout=2.0)
        c.step(0, MODEL, 1.0)
        c.schedule(0)
        assert runs(c.state.emptied) == [(1.0, 4)]
        c.step(0, MODEL, 1.0)
        c.step(0, MODEL, 1.0)
        assert c.state.active_nodes == 4
        c.step(0, MODEL, 1.0)  # idle for 3 s > 2 s
        assert c.state.active_nodes == 0 and not c.state.emptied
        c.check_invariants()

    def test_activations_in_one_tick_merge_into_one_fresh_run(self):
        c = make_cluster(ready=0, nodes=1, node_provision_delay=1.0)
        assert c.provision_node() and c.provision_node()
        c.step(0, MODEL, 1.0)
        assert runs(c.state.fresh) == [(0.0, 1), (1.0, 2)]
        assert c.state.active_nodes == 3
        c.check_invariants()

    def test_scale_downs_at_one_time_merge_into_one_emptied_run(self):
        c = make_cluster(ready=4, nodes=4, node_capacity=1)
        c.step(0, MODEL, 1.0)
        c.schedule(3)
        c.schedule(1)
        assert runs(c.state.emptied) == [(1.0, 3)]
        c.check_invariants()


class TestProvisionNode:
    def test_node_activates_after_delay(self):
        c = make_cluster(ready=0, nodes=1, node_provision_delay=60.0)
        c.provision_node()
        assert c.state.active_nodes == 1
        for _ in range(60):
            c.step(0, MODEL, 1.0)
        assert c.state.active_nodes == 2

    def test_pending_replicas_placed_on_activation(self):
        c = make_cluster(ready=0, nodes=1, node_capacity=4,
                         node_provision_delay=10.0)
        c.schedule(8)
        assert c.state.pending_replicas == 4
        c.provision_node()
        for _ in range(10):
            c.step(0, MODEL, 1.0)
        assert c.state.pending_replicas == 0
        assert c.state.total_replicas == 8

    def test_refused_at_max_nodes(self):
        c = make_cluster(ready=0, nodes=2, max_nodes=2)
        assert not c.provision_node()
        assert c.state.live_nodes == 2
        assert not c.state.provisioning


# Random operation sequences; every intermediate state must stay sound.
op_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(0, 40)),
        st.tuples(st.just("provision"), st.integers(1, 3)),
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
            for _ in range(arg):
                cluster.provision_node()
        else:
            cluster.step(arg, MODEL, 1.0)
            # backlog conservation holds at every tick boundary
            s = cluster.state
            assert s.cumulative_arrived == pytest.approx(
                s.cumulative_served + s.queue_depth)
            # pending replicas only exist when no node has room
            if s.pending_replicas > 0:
                assert s.free_slots == 0
        cluster.check_invariants()
        assert cluster.state.live_nodes <= params.max_nodes


# The cohort model against the per-pod reference: same operations, same
# answers. A step op advances `ticks` ticks with `arrivals` each; `look`
# reads ready_replicas afterwards, so skipped reads check that no state
# depends on when it is read.
diff_ops = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(0, 30), st.just(0),
                  st.booleans()),
        st.tuples(st.just("provision"), st.integers(1, 3), st.just(0),
                  st.booleans()),
        st.tuples(st.just("step"), st.integers(1, 30), st.integers(0, 200),
                  st.booleans()),
    ),
    min_size=1, max_size=20,
)


def assert_same(cluster, ref, look):
    s = cluster.state
    if look:
        assert s.ready_replicas == ref.ready_replicas
    assert s.time == ref.time
    assert s.total_replicas == ref.total_replicas
    assert s.pending_replicas == ref.pending_replicas
    assert s.active_nodes == ref.active_nodes
    assert s.live_nodes == ref.live_nodes
    assert s.free_slots == ref.free_slots
    assert s.queue_depth == ref.queue_depth
    # the reference keeps every node it ever requested, retired ones too.
    # Rebuild each active node's (pods, idle_since) in id order: the busy
    # nodes, full but the last, then the emptied nodes newest first, then
    # the fresh ones oldest first, each run expanded into its nodes
    cap = cluster.params.node_capacity
    busy, last = divmod(s.total_replicas, cap)
    nodes = [(cap, None)] * busy + [(last, None)] * (last > 0)
    nodes += [(0, run.since) for run in reversed(s.emptied)
              for _ in range(run.count)]
    nodes += [(0, run.since) for run in s.fresh for _ in range(run.count)]
    assert nodes == [(n.used, n.idle_since) for n in ref.nodes if n.active]
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
            for _ in range(arg):
                assert cluster.provision_node() == ref.provision_node()
        else:
            for _ in range(arg):
                cluster.step(arrivals, MODEL, dt)
                ref.step(arrivals, MODEL.per_replica_rate, dt)
                assert_same(cluster, ref, look)
        assert_same(cluster, ref, look)
    assert_same(cluster, ref, look=True)


# One corruption per fact check_invariants guards, with the message that
# names it. Each applies to any state, busy nodes or not.
def add_idle_node(idle, since):
    """One more node idle since `since` at the right of `idle`, merged into
    the last run as the cluster merges it."""
    if idle and idle[-1].since == since:
        idle[-1].count += 1
    else:
        idle.append(IdleRun(since))


def used_off_by_one(s):
    s.replicas[-1].count += 1


def deactivate_busy_node(s):
    s.active_nodes -= 1


def overfill(s):
    s.params.node_capacity -= 1


def break_conservation(s):
    s.cumulative_served += 1.0


def misorder_cohorts(s):
    s.replicas.insert(0, Cohort(s.time + 100.0))


def add_empty_cohort(s):
    s.replicas.insert(0, Cohort(0.0, count=0))


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
    s.provisioning.extend((s.time + 2.0, s.time + 1.0))


def negative_queue(s):
    s.queue_depth = -1.0


def negative_pending(s):
    s.pending_replicas = -1


def untrack_empty_node(s):
    s.active_nodes += 1


def misorder_idle(s):
    s.emptied.extend((IdleRun(s.time), IdleRun(s.time - 1.0)))
    s.active_nodes += 2


def misorder_fresh(s):
    s.fresh.extend((IdleRun(s.time), IdleRun(s.time - 1.0)))
    s.active_nodes += 2


def split_idle_run(s):
    # two adjacent runs with one time: the count fits, the merge is missing
    s.emptied.extend((IdleRun(s.time), IdleRun(s.time)))
    s.active_nodes += 2


def empty_emptied_run(s):
    s.emptied.append(IdleRun(s.time, count=0))


def empty_fresh_run(s):
    s.fresh.append(IdleRun(s.time, count=0))


def exceed_max_nodes(s):
    last = s.provisioning[-1] if s.provisioning else s.time
    s.provisioning.extend([last] * (s.params.max_nodes - s.live_nodes + 1))


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
    (negative_queue, "negative queue"),
    (negative_pending, "negative pending"),
    (untrack_empty_node, NODE_COUNT),
    (misorder_idle, "emptied nodes out of order"),
    (misorder_fresh, "fresh nodes out of order"),
    (split_idle_run, "emptied nodes out of order"),
    (empty_emptied_run, "empty emptied run"),
    (empty_fresh_run, "empty fresh run"),
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
    c.provision_node()
    assert c.state.ready_replicas == 6
    return c


@corruption_params
def test_check_invariants_catches_each_corruption(corrupt, message):
    c = healthy_cluster()
    c.check_invariants()
    corrupt(c.state)
    with pytest.raises(AssertionError, match=message):
        c.check_invariants()


@corruption_params
def test_run_reports_each_corruption(monkeypatch, corrupt, message):
    scn = dataclasses.replace(bundled_scenario("bursty"), horizon=600)
    step = Cluster.step
    ticks = []

    def corrupting_step(self, *args):
        step(self, *args)
        ticks.append(None)
        if len(ticks) == 400:
            corrupt(self.state)

    monkeypatch.setattr(Cluster, "step", corrupting_step)
    with pytest.raises(SimulationError, match=rf"t=399: {message}"):
        run(scn, "proposed")


def test_optimized_python_still_reports_a_corruption():
    """`python -O` strips assert statements; the checks must not be ones."""
    code = textwrap.dedent("""
        import dataclasses
        from slosim.runner import SimulationError, run
        from slosim.scenario import bundled_scenario
        from slosim.sim import Cluster
        step = Cluster.step
        ticks = []
        def corrupting_step(self, *args):
            step(self, *args)
            ticks.append(None)
            if len(ticks) == 400:
                self.state.pending_replicas = -1
        Cluster.step = corrupting_step
        scn = dataclasses.replace(bundled_scenario("bursty"), horizon=600)
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
