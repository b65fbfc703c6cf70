"""Deterministic fixed-step cluster model: replicas, nodes, queue, latency.

The model is intentionally small: replicas contribute a fixed service rate,
requests that cannot be served in a tick accumulate in a FIFO backlog, and
latency follows an M/M/c-flavored closed form with a saturation branch.
Nothing here is random; all variation enters through the workload generator.
"""

from __future__ import annotations

import math
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
    """One placed service instance, in placement order (newest last)."""

    node_id: int
    ready_at: float


@dataclass
class ClusterParams:
    initial_nodes: int = 2
    node_capacity: int = 8
    max_nodes: int = 10
    pod_start_delay: float = 15.0
    node_provision_delay: float = 60.0
    node_idle_timeout: float = 300.0


@dataclass
class ClusterState:
    # the fixed limits this state evolves under; controllers read them here
    params: ClusterParams = field(default_factory=ClusterParams)
    time: float = 0.0
    nodes: list[NodeState] = field(default_factory=list)
    replicas: list[Replica] = field(default_factory=list)
    pending_replicas: int = 0
    queue_depth: float = 0.0
    cumulative_served: float = 0.0
    cumulative_arrived: float = 0.0

    @property
    def ready_replicas(self) -> int:
        t = self.time
        return sum(1 for r in self.replicas if r.ready_at <= t)

    @property
    def total_replicas(self) -> int:
        return len(self.replicas)

    @property
    def active_nodes(self) -> int:
        return sum(1 for n in self.nodes if n.active)

    @property
    def live_nodes(self) -> int:
        """Active plus still-provisioning nodes; bounded by max_nodes."""
        return sum(1 for n in self.nodes if not n.retired)

    @property
    def free_slots(self) -> int:
        return sum(n.free for n in self.nodes)


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
            0, initial_replicas - len(self.state.replicas))

    # -- internal helpers -------------------------------------------------

    def _add_node(self, active: bool, ready_at: float = 0.0):
        self.state.nodes.append(NodeState(
            id=len(self.state.nodes),
            capacity=self.params.node_capacity,
            provisioned_at=ready_at,
            active=active,
            idle_since=ready_at if active else None,
        ))

    def _place(self, count: int, ready_at: float) -> int:
        """First-fit placement over active nodes in id order; returns #placed."""
        placed = 0
        for node in self.state.nodes:
            if not node.active or placed >= count:
                continue
            take = min(node.free, count - placed)
            if take > 0:
                node.used += take
                node.idle_since = None
                for _ in range(take):
                    self.state.replicas.append(Replica(node.id, ready_at))
                placed += take
        return placed

    def _discharge_pending(self):
        if self.state.pending_replicas <= 0:
            return
        ready_at = self.state.time + self.params.pod_start_delay
        placed = self._place(self.state.pending_replicas, ready_at)
        self.state.pending_replicas -= placed

    def _remove_replicas(self, count: int):
        """Scale-down: drop pending first, then placed replicas newest-first."""
        drop_pending = min(count, self.state.pending_replicas)
        self.state.pending_replicas -= drop_pending
        count -= drop_pending
        now = self.state.time
        for _ in range(count):
            rep = self.state.replicas.pop()
            node = self.state.nodes[rep.node_id]
            node.used -= 1
            if node.used == 0:
                node.idle_since = now

    # -- spec operations --------------------------------------------------

    def step(self, arrivals: float, model: ServiceModel, dt: float):
        """Advance one tick: activate hardware, serve, discharge backlog."""
        if dt <= 0:
            raise ValueError("dt must be > 0")
        if not math.isfinite(arrivals) or arrivals < 0:
            raise ValueError(f"arrivals must be finite and >= 0, got {arrivals}")
        s = self.state
        s.time += dt

        for node in s.nodes:
            if not node.active and not node.retired and node.provisioned_at <= s.time:
                node.active = True
                node.idle_since = s.time if node.used == 0 else None
        self._discharge_pending()

        capacity = s.ready_replicas * model.per_replica_rate * dt
        offered = s.queue_depth + arrivals
        served = min(offered, capacity)
        s.queue_depth = offered - served
        s.cumulative_arrived += arrivals
        s.cumulative_served += served

        for node in s.nodes:
            if (node.active and node.idle_since is not None
                    and s.time - node.idle_since > self.params.node_idle_timeout):
                node.active = False
                node.retired = True

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
        s = self.state
        assert s.queue_depth >= -1e-9, "negative queue"
        assert s.pending_replicas >= 0, "negative pending"
        assert abs(s.cumulative_arrived - s.cumulative_served - s.queue_depth) < 1e-6, \
            "request conservation violated"
        per_node: dict[int, int] = {}
        for rep in s.replicas:
            per_node[rep.node_id] = per_node.get(rep.node_id, 0) + 1
        for node in s.nodes:
            placed = per_node.get(node.id, 0)
            assert placed == node.used, f"node {node.id} used mismatch"
            assert 0 <= node.used <= node.capacity, f"node {node.id} overfull"
            if placed > 0:
                assert node.active, f"replica on inactive node {node.id}"

