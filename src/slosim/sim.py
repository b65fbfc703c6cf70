"""Deterministic fixed-step cluster model: replicas, nodes, queue, latency.

The model is intentionally small: replicas contribute a fixed service rate,
requests that cannot be served in a tick accumulate in a FIFO backlog, and
latency follows an M/M/c-flavored closed form with a saturation branch.
Nothing here is random; all variation enters through the workload generator.

State is kept in aggregate so that a tick costs the same at any fleet size:
replicas are cohorts of pods placed together on one node, and nodes are one
table mapping each active node to the pods on it. A node enters the table
when it activates and leaves it when it retires; the nodes still being
provisioned are only their activation times. Placed and ready pods are
counters updated where they change, and every node quantity (active and
live nodes, free slots) is read off those tables. `Cluster.check_invariants`
recounts everything from the cohorts and the tables on every tick.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ServiceModel:
    """Per-replica service capacity and the latency response curve."""

    per_replica_rate: float = 10.0  # requests/second one replica can serve
    base_latency: float = 0.05      # seconds, latency of an unloaded replica
    latency_cap: float = 5.0        # seconds, ceiling on reported latency

    def __post_init__(self):
        if self.per_replica_rate <= 0:
            raise ValueError("per_replica_rate must be > 0")
        if self.base_latency <= 0:
            raise ValueError("base_latency must be > 0")
        if self.latency_cap <= self.base_latency:
            raise ValueError("latency_cap must exceed base_latency")


@dataclass
class Cohort:
    """A cohort: `count` pods placed on one node at once, ready at `ready_at`."""

    node_id: int
    ready_at: float
    count: int = 1


@dataclass
class ClusterParams:
    initial_nodes: int = 2
    node_capacity: int = 8
    max_nodes: int = 10
    pod_start_delay: float = 15.0
    node_provision_delay: float = 60.0
    node_idle_timeout: float = 300.0

    def __post_init__(self):
        if self.node_capacity < 1:
            raise ValueError("node_capacity must be >= 1")
        if not 0 <= self.initial_nodes <= self.max_nodes:
            raise ValueError("initial_nodes must be in [0, max_nodes]")
        for name in ("pod_start_delay", "node_provision_delay",
                     "node_idle_timeout"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class ClusterState:
    """Everything a tick reads: cohorts, the node table and two counters.

    `replicas` holds cohorts in placement order, newest last. Pods are placed
    at the current time with the constant `pod_start_delay >= 0`, and time
    only moves forward, so `ready_at` never decreases along the list and the
    ready pods are the cohorts before the first one whose `ready_at` is still
    ahead. `ready_replicas` moves that boundary forward when read; every
    cohort crosses it once, so reading is amortized O(1).

    `nodes` maps each active node id to the pods on it, in id order; ids are
    handed out as nodes activate and a retired node is deleted. `idle` maps
    each empty active node to the time it emptied, in that order, and
    `provisioning` holds the activation times of the nodes on their way, in
    order. `Cluster` keeps `total_replicas` (placed pods) and the ready
    boundary `ready_cohorts` with its pod count `ready_pods` current wherever
    they change, and `time` is `ticks` steps of the fixed tick. Replicas sit
    only on active nodes and every node has `params.node_capacity` slots, so
    the node quantities are read off the tables.
    """

    # the fixed limits this state evolves under; controllers read them here
    params: ClusterParams = field(default_factory=ClusterParams)
    time: float = 0.0
    ticks: int = 0
    nodes: dict[int, int] = field(default_factory=dict)
    replicas: list[Cohort] = field(default_factory=list)
    pending_replicas: int = 0
    queue_depth: float = 0.0
    cumulative_served: float = 0.0
    cumulative_arrived: float = 0.0
    total_replicas: int = field(default=0, init=False)
    ready_cohorts: int = field(default=0, init=False)
    ready_pods: int = field(default=0, init=False)
    provisioning: deque[float] = field(default_factory=deque, init=False)
    idle: dict[int, float] = field(default_factory=dict, init=False)

    @property
    def active_nodes(self) -> int:
        return len(self.nodes)

    @property
    def live_nodes(self) -> int:
        """Active nodes plus the ones still being provisioned."""
        return len(self.nodes) + len(self.provisioning)

    @property
    def free_slots(self) -> int:
        """Empty replica slots over the active nodes."""
        return len(self.nodes) * self.params.node_capacity - self.total_replicas

    @property
    def ready_replicas(self) -> int:
        """Pods whose `ready_at` has passed; counts newly ready cohorts first."""
        reps, i, t = self.replicas, self.ready_cohorts, self.time
        while i < len(reps) and reps[i].ready_at <= t:
            self.ready_pods += reps[i].count
            i += 1
        self.ready_cohorts = i
        return self.ready_pods


def observe_latency(state: ClusterState, arrival_rate: float,
                    model: ServiceModel) -> float:
    """Analytic latency for the current load, saturating at latency_cap.

    Below saturation this is the M/M/c-style 1/(1-rho) blowup plus the time
    to work off the existing backlog; at or past saturation the backlog term
    dominates and the base curve is dropped.
    """
    if arrival_rate < 0:
        raise ValueError("arrival_rate must be >= 0")
    n = state.ready_replicas
    if n == 0:
        return model.latency_cap
    capacity = n * model.per_replica_rate
    rho = arrival_rate / capacity
    if rho < 1.0:
        lat = model.base_latency / (1.0 - rho) + state.queue_depth / capacity
    else:
        lat = model.base_latency + (state.queue_depth + 1.0) / capacity
    return min(model.latency_cap, lat)


class Cluster:
    """Mutable cluster simulation advanced tick by tick.

    One instance is owned by exactly one run loop; it is never shared.
    """

    def __init__(self, params: ClusterParams, initial_replicas: int = 0):
        self.params = params
        self.state = ClusterState(params)
        self._node_ids = itertools.count()
        for _ in range(params.initial_nodes):
            self._activate(0.0)
        # initial replicas are ready immediately (pre-warmed fleet)
        self._place(initial_replicas, ready_at=0.0)
        self.state.pending_replicas += max(
            0, initial_replicas - self.state.total_replicas)

    # -- internal helpers -------------------------------------------------

    def _activate(self, now: float):
        # initial nodes come first and provisioning is FIFO with a constant
        # delay, so ids in activation order are ids in request order, and a
        # new node holds no replicas, so it starts idle
        s = self.state
        node_id = next(self._node_ids)
        s.nodes[node_id] = 0
        s.idle[node_id] = now

    def _place(self, count: int, ready_at: float) -> int:
        """First-fit placement over active nodes in id order; returns #placed."""
        s = self.state
        nodes, capacity = s.nodes, self.params.node_capacity
        want = min(count, s.free_slots)
        placed = 0
        for node_id, used in nodes.items():
            if placed >= want:
                break
            take = min(capacity - used, want - placed)
            if take > 0:
                nodes[node_id] = used + take
                if used == 0:
                    del s.idle[node_id]
                self._add_cohort(node_id, ready_at, take)
                placed += take
        s.total_replicas += placed
        return placed

    def _add_cohort(self, node_id: int, ready_at: float, count: int):
        reps = self.state.replicas
        # a cohort already counted ready must not grow behind the counter
        if len(reps) > self.state.ready_cohorts:
            last = reps[-1]
            if last.node_id == node_id and last.ready_at == ready_at:
                last.count += count
                return
        reps.append(Cohort(node_id, ready_at, count))

    def _discharge_pending(self):
        if self.state.pending_replicas <= 0:
            return
        ready_at = self.state.time + self.params.pod_start_delay
        placed = self._place(self.state.pending_replicas, ready_at)
        self.state.pending_replicas -= placed

    def _remove_replicas(self, count: int):
        """Scale-down: drop pending first, then placed replicas newest-first."""
        s = self.state
        drop_pending = min(count, s.pending_replicas)
        s.pending_replicas -= drop_pending
        count -= drop_pending
        s.total_replicas -= count
        reps = s.replicas
        while count > 0:
            last = reps[-1]
            take = min(count, last.count)
            count -= take
            if len(reps) <= s.ready_cohorts:
                s.ready_pods -= take
            last.count -= take
            if last.count == 0:
                reps.pop()
                s.ready_cohorts = min(s.ready_cohorts, len(reps))
            used = s.nodes[last.node_id] - take
            s.nodes[last.node_id] = used
            if used == 0:
                s.idle[last.node_id] = s.time

    # -- spec operations --------------------------------------------------

    def step(self, arrivals: float, model: ServiceModel, dt: float):
        """Advance one tick of the run's fixed `dt`: activate hardware,
        serve, discharge backlog."""
        if dt <= 0:
            raise ValueError("dt must be > 0")
        if not math.isfinite(arrivals) or arrivals < 0:
            raise ValueError(f"arrivals must be finite and >= 0, got {arrivals}")
        s = self.state
        # whole ticks times dt, which a running sum of dt drifts away from
        s.ticks += 1
        s.time = float(s.ticks * dt)

        # node_provision_delay is constant, so activation times never
        # decrease along the queue
        provisioning = s.provisioning
        while provisioning and provisioning[0] <= s.time:
            provisioning.popleft()
            self._activate(s.time)
        self._discharge_pending()

        capacity = s.ready_replicas * model.per_replica_rate * dt
        offered = s.queue_depth + arrivals
        served = min(offered, capacity)
        s.queue_depth = offered - served
        s.cumulative_arrived += arrivals
        s.cumulative_served += served

        # a node re-enters `idle` at the end, so the times never decrease
        # along it and the first node not timed out ends the search; a
        # retired node leaves the table for good
        timeout = self.params.node_idle_timeout
        while s.idle:
            node_id, idle_since = next(iter(s.idle.items()))
            if not s.time - idle_since > timeout:
                break
            del s.idle[node_id]
            del s.nodes[node_id]

    def schedule(self, desired_replicas: int):
        """Move the scheduled replica total toward desired_replicas."""
        if desired_replicas < 0:
            raise ValueError("desired_replicas must be >= 0")
        s = self.state
        current = s.total_replicas + s.pending_replicas
        if desired_replicas > current:
            want = desired_replicas - current
            ready_at = s.time + self.params.pod_start_delay
            placed = self._place(want, ready_at)
            s.pending_replicas += want - placed
        elif desired_replicas < current:
            self._remove_replicas(current - desired_replicas)

    def provision_node(self) -> bool:
        """Request one extra node; refused once max_nodes is reached."""
        s = self.state
        if s.live_nodes >= self.params.max_nodes:
            return False
        s.provisioning.append(s.time + self.params.node_provision_delay)
        return True

    # -- invariant checks (used by tests and the run loop) -----------------

    def check_invariants(self):
        """Recount every fact from cohorts and tables; O(nodes + cohorts)."""
        s = self.state
        assert s.queue_depth >= -1e-9, "negative queue"
        assert s.pending_replicas >= 0, "negative pending"
        assert abs(s.cumulative_arrived - s.cumulative_served - s.queue_depth) < 1e-6, \
            "request conservation violated"

        per_node = dict.fromkeys(s.nodes, 0)
        prev_ready_at = -math.inf
        for rep in s.replicas:
            assert rep.count > 0, "empty cohort"
            assert rep.ready_at >= prev_ready_at, "cohorts out of ready_at order"
            prev_ready_at = rep.ready_at
            assert rep.node_id in per_node, \
                f"replica on inactive node {rep.node_id}"
            per_node[rep.node_id] += rep.count
        total = sum(per_node.values())
        k = s.ready_cohorts
        assert k <= len(s.replicas) and (
            k == 0 or s.replicas[k - 1].ready_at <= s.time), \
            "a cohort counted ready is not ready"
        # the cohorts not yet counted are few: those placed within one
        # pod_start_delay
        assert s.ready_pods == total - sum([rep.count for rep in s.replicas[k:]]), \
            "ready counter drifted"
        assert s.total_replicas == total, "replica counter drifted"

        nodes = s.nodes
        assert per_node == nodes, "node {} pod count mismatch".format(
            next(i for i in nodes if nodes[i] != per_node[i]))
        # the recount is >= 0, so only the upper bound needs checking
        capacity = self.params.node_capacity
        assert max(nodes.values(), default=0) <= capacity, "node {} overfull".format(
            next(i for i in nodes if nodes[i] > capacity))
        ids = list(nodes)
        assert ids == sorted(ids), "nodes out of id order"

        # `idle` holds exactly the empty nodes of the table, and each queue
        # is in the time order its scan relies on
        assert list(map(nodes.get, s.idle)).count(0) == len(s.idle), \
            "idle set holds a busy or inactive node"
        assert list(nodes.values()).count(0) == len(s.idle), \
            "an empty node is missing from the idle set"
        idle_since = list(s.idle.values())
        assert idle_since == sorted(idle_since), "idle nodes out of order"
        provisioning = list(s.provisioning)
        assert provisioning == sorted(provisioning), \
            "provisioning nodes out of order"
        assert s.live_nodes <= self.params.max_nodes, \
            "more live nodes than max_nodes"
