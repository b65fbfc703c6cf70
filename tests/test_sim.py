"""Cluster engine: serving arithmetic, latency curve, scheduling, nodes."""

import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slosim.runner import SimulationError, run
from slosim.scenario import bundled_scenario
from slosim.sim import (
    Cluster,
    ClusterParams,
    ClusterState,
    Cohort,
    ServiceModel,
    observe_latency,
)

from helpers import ReferenceCluster, make_cluster

MODEL = ServiceModel(per_replica_rate=10.0, base_latency=0.05, latency_cap=30.0)


def state_with(ready=0, queue=0.0):
    state = ClusterState(queue_depth=queue)
    state.replicas.extend(Cohort(0, 0.0) for _ in range(ready))
    return state


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
        assert 0 not in c.state.nodes  # a retired node is dropped

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
        before = [(r.node_id, r.ready_at) for r in c.state.replicas]
        c.schedule(4)
        assert [(r.node_id, r.ready_at) for r in c.state.replicas] == before

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
        assert c.state.nodes[1] == 2
        c.schedule(2)
        assert c.state.nodes == {0: 2, 1: 0}

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
        assert list(c.state.nodes.values()) == [4, 1, 0]


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
        st.tuples(st.just("provision"), st.just(0)),
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
# reads ready_replicas afterwards, which moves the ready boundary forward,
# so skipped reads exercise a boundary that lags behind the clock.
diff_ops = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(0, 30), st.just(0),
                  st.booleans()),
        st.tuples(st.just("provision"), st.just(0), st.just(0), st.booleans()),
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
    # the reference keeps every node it ever requested, retired ones too
    assert list(s.nodes.values()) == [n.used for n in ref.nodes if n.active]
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
            assert cluster.provision_node() == ref.provision_node()
        else:
            for _ in range(arg):
                cluster.step(arrivals, MODEL, dt)
                ref.step(arrivals, MODEL.per_replica_rate, dt)
                assert_same(cluster, ref, look)
        assert_same(cluster, ref, look)
    assert_same(cluster, ref, look=True)


# One corruption per fact check_invariants guards, with the message that
# names it. Each applies to any state whose node 0 holds replicas.
def used_off_by_one(s):
    s.nodes[0] += 1


def deactivate_busy_node(s):
    del s.nodes[0]


def overfill(s):
    s.params.node_capacity = s.nodes[0] - 1


def break_conservation(s):
    s.cumulative_served += 1.0


def misorder_cohorts(s):
    s.replicas.insert(0, Cohort(0, s.time + 100.0))


def add_empty_cohort(s):
    s.replicas.insert(0, Cohort(0, 0.0, count=0))


def drift(counter):
    def corrupt(s):
        setattr(s, counter, getattr(s, counter) + 1)
    corrupt.__name__ = f"drift_{counter}"
    return corrupt


def track_busy_node_as_idle(s):
    s.idle[0] = s.time


def misorder_provisioning(s):
    s.provisioning.extend((s.time + 2.0, s.time + 1.0))


def negative_queue(s):
    s.queue_depth = -1.0


def negative_pending(s):
    s.pending_replicas = -1


def count_past_the_cohorts(s):
    s.ready_cohorts = len(s.replicas) + 1


def misorder_nodes(s):
    s.nodes[-1] = 0


def untrack_empty_node(s):
    s.nodes[max(s.nodes) + 1] = 0


def misorder_idle(s):
    first = max(s.nodes) + 1
    for node_id, idle_since in ((first, s.time), (first + 1, s.time - 1.0)):
        s.nodes[node_id] = 0
        s.idle[node_id] = idle_since


def exceed_max_nodes(s):
    last = s.provisioning[-1] if s.provisioning else s.time
    s.provisioning.extend([last] * (s.params.max_nodes - s.live_nodes + 1))


CORRUPTIONS = [
    (used_off_by_one, "node 0 pod count mismatch"),
    (deactivate_busy_node, "replica on inactive node 0"),
    (overfill, "node 0 overfull"),
    (break_conservation, "request conservation violated"),
    (misorder_cohorts, "cohorts out of ready_at order"),
    (add_empty_cohort, "empty cohort"),
    (drift("total_replicas"), "replica counter drifted"),
    (drift("ready_pods"), "ready counter drifted"),
    (track_busy_node_as_idle, "idle set holds a busy or inactive node"),
    (misorder_provisioning, "provisioning nodes out of order"),
    (negative_queue, "negative queue"),
    (negative_pending, "negative pending"),
    (count_past_the_cohorts, "a cohort counted ready is not ready"),
    (misorder_nodes, "nodes out of id order"),
    (untrack_empty_node, "an empty node is missing from the idle set"),
    (misorder_idle, "idle nodes out of order"),
    (exceed_max_nodes, "more live nodes than max_nodes"),
]
corruption_params = pytest.mark.parametrize(
    "corrupt,message", CORRUPTIONS, ids=[c.__name__ for c, _ in CORRUPTIONS])


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
