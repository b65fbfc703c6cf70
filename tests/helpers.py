"""Small constructors and reference models shared by the unit tests."""

import dataclasses
import functools
import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from slosim.controllers import DecisionRecord, ScalingAction
from slosim.signals import SignalSnapshot
from slosim.sim import Cluster, ClusterParams
from slosim.workload import NOISE_BLOCK, burst_onsets, in_burst


def bundled_doc(name: str) -> dict:
    """The JSON document of a bundled scenario."""
    return json.loads((resources.files("slosim") / "scenarios"
                       / f"{name}.json").read_text())


def analytic_mean_rate(spec) -> float:
    """Long-run mean rate of the noiseless piecewise definition (per second)."""
    if spec.kind == "bursty":
        frac = spec.burst_duration / spec.burst_interval
        return spec.base_rate * ((1 - frac) + frac * spec.burst_amplitude)
    if spec.kind == "mixed":
        return spec.base_rate  # steady stream plus batches restores the full rate
    raise ValueError("analytic mean defined for periodic kinds only")


def mean_rate(spec, t: float) -> float:
    """The noiseless arrival rate at time `t`, outside mixed batches."""
    if spec.kind == "bursty":
        rate = spec.base_rate
        if in_burst(spec, t):
            rate *= spec.burst_amplitude
        return rate
    if spec.kind == "queue_driven":
        rate = spec.base_rate
        for start, end, seg_rate in spec.ramps:
            if start <= t < end:
                rate = seg_rate
        return rate
    # mixed: steady latency-sensitive stream; batches handled separately
    return (1.0 - spec.batch_fraction) * spec.base_rate


def batch_bulk(spec, k: int, dt: float) -> float:
    """Bulk requests injected in tick `k` of length `dt`, once per batch
    period, mid-period like bursts.

    A batch lands in the first tick that starts at or after its period's
    midpoint; counting from the tick index makes the sum telescope to
    exactly one batch per period.
    """
    if spec.kind != "mixed" or spec.batch_fraction == 0:
        return 0.0
    period = spec.burst_interval
    mid = period / 2.0

    def landed(k: int) -> int:
        # midpoints in [0, k * dt]; none lie before the run starts
        return max(0, math.floor((k * dt - mid) / period) + 1)

    batches = landed(k) - landed(k - 1)
    return batches * spec.batch_fraction * spec.base_rate * period


@functools.lru_cache(maxsize=64)
def noise_chunk(seed: int, sigma: float, chunk: int) -> tuple[float, ...]:
    """The mean-one log-normal factors of the NOISE_BLOCK ticks from
    `chunk * NOISE_BLOCK` on, drawn one at a time by numpy's own
    `default_rng([seed, chunk])`."""
    rng = np.random.default_rng([seed, chunk])
    return tuple(float(rng.lognormal(mean=-sigma * sigma / 2.0, sigma=sigma))
                 for _ in range(NOISE_BLOCK))


def noise_factor(seed: int, sigma: float, k: int) -> float:
    """Tick k's noise factor: draw `k % NOISE_BLOCK` of its chunk."""
    return noise_chunk(seed, sigma, k // NOISE_BLOCK)[k % NOISE_BLOCK]


def arrivals_oracle(spec, seed: int, k: int, dt: float) -> int:
    """`slosim.workload.arrivals_at` as one tick's formula, with the tick's
    noise factor drawn by `noise_factor`."""
    count = mean_rate(spec, k * dt) * dt + batch_bulk(spec, k, dt)
    if spec.noise_std:
        count *= noise_factor(seed, spec.noise_std, k)
    return max(0, int(round(count)))


def make_cluster(ready: int = 0, queue: float = 0.0, nodes: int = 2,
                 node_capacity: int = 8, **params) -> Cluster:
    """A cluster with `ready` pre-warmed replicas and a `queue` backlog."""
    cluster = Cluster(
        ClusterParams(initial_nodes=nodes, node_capacity=node_capacity, **params),
        initial_replicas=ready)
    cluster.queue_depth = queue
    cluster.cumulative_arrived = queue
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
