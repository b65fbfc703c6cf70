"""Deterministic fixed-step cluster model: replicas, nodes, queue, latency.

The model is intentionally small: replicas contribute a fixed service rate,
requests that cannot be served in a tick accumulate in a FIFO backlog, and
latency follows an M/M/c-flavored closed form with a saturation branch.
Nothing here is random; all variation enters through the workload generator.

State is kept in aggregate so that a tick costs the same at any fleet size:
replicas are cohorts of pods placed together on one node, and every fleet
quantity a tick reads (ready and placed pods, active and live nodes, free
slots) is a counter updated where it changes. `Cluster.check_invariants`
recounts all of them from the cohorts and nodes on every tick.
"""

from __future__ import annotations

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
class NodeState:
    id: int
    capacity: int            # replica slots
    used: int = 0
    provisioned_at: float = 0.0   # becomes active at this time
    active: bool = False
    retired: bool = False         # deactivated by idle timeout, never reused
    idle_since: float | None = None

    @property
    def free(self) -> int:
        return self.capacity - self.used if self.active else 0


@dataclass
class Replica:
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
    """Everything a tick reads, with every fleet quantity kept as a counter.

    `replicas` holds cohorts in placement order, newest last. Pods are placed
    at the current time with the constant `pod_start_delay >= 0`, and time
    only moves forward, so `ready_at` never decreases along the list and the
    ready pods are the cohorts before the first one whose `ready_at` is still
    ahead. `ready_replicas` moves that boundary forward when read; every
    cohort crosses it once, so reading is amortized O(1).

    `Cluster` keeps the counters current wherever the quantity changes:
    `total_replicas` (placed pods), `active_nodes`, `live_nodes` (active plus
    still-provisioning nodes), `free_slots` (over active nodes), and the
    ready boundary `ready_cohorts` with its pod count `ready_pods`.
    `provisioning` holds the nodes not yet active, by `provisioned_at`;
    `idle` holds the active empty nodes, by `idle_since`.
    """

    # the fixed limits this state evolves under; controllers read them here
    params: ClusterParams = field(default_factory=ClusterParams)
    time: float = 0.0
    nodes: list[NodeState] = field(default_factory=list)  # index == node id
    replicas: list[Replica] = field(default_factory=list)
    pending_replicas: int = 0
    queue_depth: float = 0.0
    cumulative_served: float = 0.0
    cumulative_arrived: float = 0.0
    total_replicas: int = field(default=0, init=False)
    active_nodes: int = field(default=0, init=False)
    live_nodes: int = field(default=0, init=False)
    free_slots: int = field(default=0, init=False)
    ready_cohorts: int = field(default=0, init=False)
    ready_pods: int = field(default=0, init=False)
    provisioning: deque[NodeState] = field(default_factory=deque, init=False)
    idle: dict[int, NodeState] = field(default_factory=dict, init=False)

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
        for _ in range(params.initial_nodes):
            self._add_node(active=True)
        # initial replicas are ready immediately (pre-warmed fleet)
        self._place(initial_replicas, ready_at=0.0)
        self.state.pending_replicas += max(
            0, initial_replicas - self.state.total_replicas)

    # -- internal helpers -------------------------------------------------

    def _add_node(self, active: bool, ready_at: float = 0.0):
        s = self.state
        node = NodeState(id=len(s.nodes), capacity=self.params.node_capacity,
                         provisioned_at=ready_at)
        s.nodes.append(node)
        s.live_nodes += 1
        if active:
            self._activate(node, ready_at)
        else:
            s.provisioning.append(node)

    def _activate(self, node: NodeState, now: float):
        # a node holds no replicas before it is active, so it starts idle
        s = self.state
        node.active = True
        node.idle_since = now
        s.idle[node.id] = node
        s.active_nodes += 1
        s.free_slots += node.capacity

    def _retire(self, node: NodeState):
        # only idle nodes retire, so they give back a whole node of slots
        s = self.state
        del s.idle[node.id]
        node.active = False
        node.retired = True
        s.active_nodes -= 1
        s.live_nodes -= 1
        s.free_slots -= node.capacity

    def _place(self, count: int, ready_at: float) -> int:
        """First-fit placement over active nodes in id order; returns #placed."""
        s = self.state
        want = min(count, s.free_slots)
        placed = 0
        for node in s.nodes:
            if placed >= want:
                break
            take = min(node.free, want - placed)
            if take > 0:
                node.used += take
                if node.idle_since is not None:
                    del s.idle[node.id]
                    node.idle_since = None
                self._add_cohort(node.id, ready_at, take)
                placed += take
        s.free_slots -= placed
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
        reps.append(Replica(node_id, ready_at, count))

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
        s.free_slots += count
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
            node = s.nodes[last.node_id]
            node.used -= take
            if node.used == 0:
                node.idle_since = s.time
                s.idle[node.id] = node

    # -- spec operations --------------------------------------------------

    def step(self, arrivals: float, model: ServiceModel, dt: float):
        """Advance one tick: activate hardware, serve, discharge backlog."""
        if dt <= 0:
            raise ValueError("dt must be > 0")
        if not math.isfinite(arrivals) or arrivals < 0:
            raise ValueError(f"arrivals must be finite and >= 0, got {arrivals}")
        s = self.state
        s.time += dt

        # node_provision_delay is constant, so provisioned_at never
        # decreases along the queue
        provisioning = s.provisioning
        while provisioning and provisioning[0].provisioned_at <= s.time:
            self._activate(provisioning.popleft(), s.time)
        self._discharge_pending()

        capacity = s.ready_replicas * model.per_replica_rate * dt
        offered = s.queue_depth + arrivals
        served = min(offered, capacity)
        s.queue_depth = offered - served
        s.cumulative_arrived += arrivals
        s.cumulative_served += served

        # a node re-enters `idle` at the end, so idle_since never decreases
        # along it and the first node not timed out ends the search
        timeout = self.params.node_idle_timeout
        while s.idle:
            node = next(iter(s.idle.values()))
            if not s.time - node.idle_since > timeout:
                break
            self._retire(node)

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
        if self.state.live_nodes >= self.params.max_nodes:
            return False
        self._add_node(
            active=False,
            ready_at=self.state.time + self.params.node_provision_delay)
        return True

    # -- invariant checks (used by tests and the run loop) -----------------

    def check_invariants(self):
        """Recount every fact from cohorts and nodes; O(nodes + cohorts)."""
        s = self.state
        assert s.queue_depth >= -1e-9, "negative queue"
        assert s.pending_replicas >= 0, "negative pending"
        assert abs(s.cumulative_arrived - s.cumulative_served - s.queue_depth) < 1e-6, \
            "request conservation violated"

        per_node = [0] * len(s.nodes)
        prev_ready_at = -math.inf
        for rep in s.replicas:
            assert rep.count > 0, "empty cohort"
            assert rep.ready_at >= prev_ready_at, "cohorts out of ready_at order"
            prev_ready_at = rep.ready_at
            per_node[rep.node_id] += rep.count
        total = sum(per_node)
        k = s.ready_cohorts
        assert k <= len(s.replicas) and (
            k == 0 or s.replicas[k - 1].ready_at <= s.time), \
            "a cohort counted ready is not ready"
        # the cohorts not yet counted are few: those placed within one
        # pod_start_delay
        assert s.ready_pods == total - sum([rep.count for rep in s.replicas[k:]]), \
            "ready counter drifted"
        assert s.total_replicas == total, "replica counter drifted"

        active = live = free = idle = 0
        for node, placed in zip(s.nodes, per_node):
            assert placed == node.used, f"node {node.id} used mismatch"
            assert 0 <= placed <= node.capacity, f"node {node.id} overfull"
            if node.active:
                active += 1
                free += node.capacity - placed
                if placed == 0:
                    idle += 1
                    assert s.idle.get(node.id) is node, \
                        f"idle node {node.id} not in the idle set"
            else:
                assert placed == 0, f"replica on inactive node {node.id}"
            live += not node.retired
        assert s.active_nodes == active, "active node counter drifted"
        assert s.live_nodes == live, "live node counter drifted"
        assert s.free_slots == free, "free slot counter drifted"

        # `idle` holds exactly the active empty nodes, `provisioning` exactly
        # the live inactive ones, each in the order its scan relies on
        assert len(s.idle) == idle, "idle set holds a busy or inactive node"
        assert len(s.provisioning) == live - active and not any(
            node.active or node.retired for node in s.provisioning), \
            "provisioning queue drifted"
        idle_since = [node.idle_since for node in s.idle.values()]
        provisioned_at = [node.provisioned_at for node in s.provisioning]
        assert idle_since == sorted(idle_since), "idle nodes out of order"
        assert provisioned_at == sorted(provisioned_at), \
            "provisioning nodes out of order"
