"""Small constructors and reference models shared by the unit tests."""

import dataclasses
import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from slosim.controllers import DecisionRecord, ScalingAction
from slosim.signals import SignalSnapshot
from slosim.sim import Cluster, ClusterParams
from slosim.workload import _batch_bulk, _mean_rate, burst_onsets


def bundled_doc(name: str) -> dict:
    """The JSON document of a bundled scenario."""
    return json.loads((resources.files("slosim") / "scenarios"
                       / f"{name}.json").read_text())


def arrivals_oracle(spec, seed: int, t: float, dt: float) -> int:
    """`slosim.workload.arrivals_at` as one tick's formula, with the tick's
    noise factor drawn from numpy's own `default_rng([seed, tick])`."""
    count = _mean_rate(spec, t) * dt + _batch_bulk(spec, t, dt)
    if spec.noise_std:
        sigma = spec.noise_std
        rng = np.random.default_rng([seed, round(t / dt)])
        count *= float(rng.lognormal(mean=-sigma * sigma / 2.0, sigma=sigma))
    return max(0, int(round(count)))


def make_cluster(ready: int = 0, queue: float = 0.0, nodes: int = 2,
                 node_capacity: int = 8, **params) -> Cluster:
    """A cluster with `ready` pre-warmed replicas and a `queue` backlog."""
    cluster = Cluster(
        ClusterParams(initial_nodes=nodes, node_capacity=node_capacity, **params),
        initial_replicas=ready)
    cluster.state.queue_depth = queue
    cluster.state.cumulative_arrived = queue
    return cluster


@dataclass
class ReferenceNode:
    """One node of `ReferenceCluster`, kept after it retires."""

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


class ReferenceCluster:
    """The cluster model kept as one entry per pod and recounted on every read.

    It is the straightforward form of `slosim.sim.Cluster`: every fleet
    quantity is a scan, every tick visits every node, and a node keeps its
    record from the request to the end of the run, id and all. Property
    tests run the same operations on both and compare what they report.
    """

    def __init__(self, params: ClusterParams, initial_replicas: int = 0):
        self.params = params
        self.ticks = 0
        self.time = 0.0
        self.nodes: list[ReferenceNode] = []
        self.pods: list[tuple[int, float]] = []  # (node_id, ready_at)
        self.pending_replicas = 0
        self.queue_depth = 0.0
        for _ in range(params.initial_nodes):
            self._add_node(active=True)
        self._place(initial_replicas, ready_at=0.0)
        self.pending_replicas += max(0, initial_replicas - len(self.pods))

    @property
    def ready_replicas(self) -> int:
        return sum(1 for _, ready_at in self.pods if ready_at <= self.time)

    @property
    def total_replicas(self) -> int:
        return len(self.pods)

    @property
    def active_nodes(self) -> int:
        return sum(1 for n in self.nodes if n.active)

    @property
    def live_nodes(self) -> int:
        return sum(1 for n in self.nodes if not n.retired)

    @property
    def free_slots(self) -> int:
        return sum(n.free for n in self.nodes)

    def _add_node(self, active: bool, ready_at: float = 0.0):
        self.nodes.append(ReferenceNode(
            id=len(self.nodes), capacity=self.params.node_capacity,
            provisioned_at=ready_at, active=active,
            idle_since=ready_at if active else None))

    def _place(self, count: int, ready_at: float) -> int:
        placed = 0
        for node in self.nodes:
            if not node.active or placed >= count:
                continue
            take = min(node.free, count - placed)
            if take > 0:
                node.used += take
                node.idle_since = None
                self.pods.extend((node.id, ready_at) for _ in range(take))
                placed += take
        return placed

    def _discharge_pending(self):
        if self.pending_replicas <= 0:
            return
        placed = self._place(self.pending_replicas,
                             self.time + self.params.pod_start_delay)
        self.pending_replicas -= placed

    def step(self, arrivals: float, per_replica_rate: float, dt: float):
        self.ticks += 1
        self.time = float(self.ticks * dt)
        for node in self.nodes:
            if (not node.active and not node.retired
                    and node.provisioned_at <= self.time):
                node.active = True
                node.idle_since = self.time if node.used == 0 else None
        self._discharge_pending()
        capacity = self.ready_replicas * per_replica_rate * dt
        offered = self.queue_depth + arrivals
        self.queue_depth = offered - min(offered, capacity)
        for node in self.nodes:
            if (node.active and node.idle_since is not None
                    and self.time - node.idle_since > self.params.node_idle_timeout):
                node.active = False
                node.retired = True

    def schedule(self, desired_replicas: int):
        current = self.total_replicas + self.pending_replicas
        if desired_replicas > current:
            want = desired_replicas - current
            placed = self._place(want, self.time + self.params.pod_start_delay)
            self.pending_replicas += want - placed
            return
        count = current - desired_replicas
        drop_pending = min(count, self.pending_replicas)
        self.pending_replicas -= drop_pending
        for _ in range(count - drop_pending):
            node_id, _ = self.pods.pop()
            node = self.nodes[node_id]
            node.used -= 1
            if node.used == 0:
                node.idle_since = self.time

    def provision_node(self) -> bool:
        if self.live_nodes >= self.params.max_nodes:
            return False
        self._add_node(active=False,
                       ready_at=self.time + self.params.node_provision_delay)
        return True


def make_decision(target: int, t: float = 0.0) -> DecisionRecord:
    """A decision record that sets `target` replicas and explains nothing."""
    snapshot = SignalSnapshot(t=t, latency=0.0, queue=0.0, utilization=0.0,
                              pending=0, arrival_rate=0.0, ready_replicas=0)
    return DecisionRecord(snapshot=snapshot, slo_demand=target,
                          backlog_adjusted=target, constraints_applied=(),
                          action=ScalingAction(target), reason="")


def json_trace_lines(trace) -> str:
    """`RunTrace.to_jsonl` as `json` writes each row dict."""
    return "".join(json.dumps(row) + "\n" for row in trace.rows)


def json_decision_lines(trace) -> str:
    """`RunTrace.decisions_to_jsonl` as `json` writes `asdict` of each record."""
    return "".join(json.dumps(dataclasses.asdict(rec)) + "\n"
                   for rec in trace.decisions)


def nested_time_to_scale(trace, wspec, mu: float,
                         target_utilization: float) -> float | None:
    """`slosim.metrics.time_to_scale` as a scan from row 0 for every onset."""
    if wspec.kind != "bursty":
        return None
    demand = math.ceil(wspec.base_rate * wspec.burst_amplitude
                       / (mu * target_utilization))
    times = []
    for onset in burst_onsets(wspec, trace.horizon):
        reached = None
        for row in trace.rows:
            if row["t"] < onset:
                continue
            if row["t"] >= onset + wspec.burst_duration:
                break
            if row["ready"] >= demand:
                reached = row["t"] - onset
                break
        times.append(reached if reached is not None else wspec.burst_duration)
    return sum(times) / len(times) if times else None
