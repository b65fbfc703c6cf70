"""Deterministic fixed-step cluster model: replicas, nodes, queue, latency.

The model is intentionally small: replicas contribute a fixed service rate,
requests that cannot be served in a tick accumulate in a FIFO backlog, and
latency follows an M/M/c-flavored closed form with a saturation branch.
Nothing here is random; all variation enters through the workload generator.

Placement fills active nodes first-fit in id order, scale-down removes the
newest pods first, and every node has the same number of slots. So the
occupied slots always form a prefix of the active nodes in id order: the
busy nodes are the `ceil(total_replicas / node_capacity)` lowest active ids,
all of them full but the last, and every idle node has a higher id than
every busy one.

Which idle node fills first needs no ids either. Ids are handed out as
nodes activate, and an idle node has either held pods and emptied, or held
none since it activated (fresh). A node empties from the top of the busy
prefix, so below every idle node, and a node that activates gets a higher
id than every other. So every emptied id is below every fresh id, emptied
ids fall in the order the nodes empty, and fresh ids rise with activation
time: the lowest idle id is the newest emptied node if there is one, and
else the oldest fresh one. The state keeps only what this leaves open: the
placed pod count, the number of active nodes, the idle-since times of the
emptied and of the fresh nodes, and the activation times of the nodes still
being provisioned. Nodes that went idle at one time are interchangeable, so
each kind of idle node is kept as runs of one idle-since time and a count,
as replicas are kept as cohorts of pods placed at one time; the pods still
starting are the cohorts at the tail whose `ready_at` is ahead.
`Cluster.check_invariants` checks every stored fact on every tick.
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
class Cohort:
    """A cohort: `count` pods placed at one time, ready at `ready_at`."""

    ready_at: float
    count: int = 1


@dataclass
class IdleRun:
    """An idle run: `count` nodes of one kind that went idle at `since`."""

    since: float
    count: int = 1


def _add_idle(runs: deque[IdleRun], since: float, count: int):
    """Add `count` nodes idle since `since` at the right end of `runs`."""
    if runs and runs[-1].since == since:
        runs[-1].count += count
    else:
        runs.append(IdleRun(since, count))


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
    """Everything a tick reads: cohorts, node counts and idle times, counters.

    `replicas` holds cohorts in placement order, newest last, and
    `total_replicas` is the sum of their counts. Pods are placed at the
    current time with the constant `pod_start_delay >= 0`, and time only
    moves forward, so `ready_at` never decreases along the list: the pods
    still starting are the cohorts at the tail whose `ready_at` is ahead,
    and `ready_replicas` is the total less those.

    The occupied slots are a prefix of the active nodes in id order (see
    the module docstring), so `ceil(total_replicas / node_capacity)` of the
    `active_nodes` are busy and the rest are idle, in runs of nodes that
    went idle at one time. `emptied` holds the runs of idle nodes that have
    held pods, by the time they emptied, oldest first and so highest id
    first; the right end fills first. `fresh` holds the runs of idle nodes
    that have held none, by activation time, oldest first and so lowest id
    first; the left end fills first. A fill takes whole runs and then part
    of one. Both retire whole runs from the left, and a retired node is gone
    for good. Adjacent runs of one deque never share a time, so the times
    strictly increase along it. `provisioning` holds the activation times of
    the nodes on their way, in order, and `time` is `ticks` steps of the
    fixed tick.
    """

    # the fixed limits this state evolves under; controllers read them here
    params: ClusterParams = field(default_factory=ClusterParams)
    time: float = 0.0
    ticks: int = 0
    replicas: list[Cohort] = field(default_factory=list)
    pending_replicas: int = 0
    queue_depth: float = 0.0
    cumulative_served: float = 0.0
    cumulative_arrived: float = 0.0
    total_replicas: int = field(default=0, init=False)
    active_nodes: int = field(default=0, init=False)
    provisioning: deque[float] = field(default_factory=deque, init=False)
    emptied: deque[IdleRun] = field(default_factory=deque, init=False)
    fresh: deque[IdleRun] = field(default_factory=deque, init=False)

    @property
    def live_nodes(self) -> int:
        """Active nodes plus the ones still being provisioned."""
        return self.active_nodes + len(self.provisioning)

    @property
    def free_slots(self) -> int:
        """Empty replica slots over the active nodes."""
        return self.active_nodes * self.params.node_capacity - self.total_replicas

    @property
    def ready_replicas(self) -> int:
        """Placed pods less the cohorts at the tail that are still starting."""
        ready, t = self.total_replicas, self.time
        for cohort in reversed(self.replicas):
            if cohort.ready_at <= t:
                break
            ready -= cohort.count
        return ready


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
        if params.initial_nodes:
            self.state.fresh.append(IdleRun(0.0, params.initial_nodes))
        self.state.active_nodes = params.initial_nodes
        # initial replicas are ready immediately (pre-warmed fleet)
        self._place(initial_replicas, ready_at=0.0)
        self.state.pending_replicas += max(
            0, initial_replicas - self.state.total_replicas)

    # -- internal helpers -------------------------------------------------

    def _nodes_for(self, pods: int) -> int:
        """How many busy nodes `pods` placed pods fill."""
        return -(-pods // self.params.node_capacity)

    def _place(self, count: int, ready_at: float) -> int:
        """First-fit placement over active nodes in id order; returns #placed."""
        s = self.state
        placed = min(count, s.free_slots)
        if placed <= 0:
            return 0
        filled = (self._nodes_for(s.total_replicas + placed)
                  - self._nodes_for(s.total_replicas))
        s.total_replicas += placed
        reps = s.replicas
        if reps and reps[-1].ready_at == ready_at:
            reps[-1].count += placed
        else:
            reps.append(Cohort(ready_at, placed))
        # the pods fill the last busy node, then the lowest idle ids: the
        # newest emptied nodes, then the oldest fresh ones
        emptied, fresh = s.emptied, s.fresh
        while filled:
            if emptied:
                run, drop = emptied[-1], emptied.pop
            else:
                run, drop = fresh[0], fresh.popleft
            if run.count > filled:
                run.count -= filled
                break
            filled -= run.count
            drop()
        return placed

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
        busy = self._nodes_for(s.total_replicas)
        s.total_replicas -= count
        reps = s.replicas
        while count > 0:
            last = reps[-1]
            if last.count > count:
                last.count -= count
                break
            count -= last.count
            reps.pop()
        # the newest pods sit in the highest slots, so the top busy nodes
        # empty, each below every node emptied before
        freed = busy - self._nodes_for(s.total_replicas)
        if freed:
            _add_idle(s.emptied, s.time, freed)

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
        activated = 0
        while provisioning and provisioning[0] <= s.time:
            provisioning.popleft()
            activated += 1
        if activated:
            _add_idle(s.fresh, s.time, activated)
            s.active_nodes += activated
        self._discharge_pending()

        capacity = s.ready_replicas * model.per_replica_rate * dt
        offered = s.queue_depth + arrivals
        served = min(offered, capacity)
        s.queue_depth = offered - served
        s.cumulative_arrived += arrivals
        s.cumulative_served += served

        # nodes join either deque at the right with the current time, so
        # the times increase along it and the first run not timed out ends
        # its search
        timeout = self.params.node_idle_timeout
        for idle in (s.emptied, s.fresh):
            while idle and s.time - idle[0].since > timeout:
                s.active_nodes -= idle.popleft().count

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
        """Check every stored fact; O(cohorts + idle runs). Each check raises
        AssertionError itself, so that `python -O` keeps it."""
        s = self.state
        if not s.queue_depth >= -1e-9:
            raise AssertionError("negative queue")
        if not s.pending_replicas >= 0:
            raise AssertionError("negative pending")
        if not abs(s.cumulative_arrived - s.cumulative_served
                   - s.queue_depth) < 1e-6:
            raise AssertionError("request conservation violated")

        total = 0
        prev_ready_at = -math.inf
        for rep in s.replicas:
            ready_at, count = rep.ready_at, rep.count
            if not count > 0:
                raise AssertionError("empty cohort")
            if not ready_at >= prev_ready_at:
                raise AssertionError("cohorts out of ready_at order")
            prev_ready_at = ready_at
            total += count
        if s.total_replicas != total:
            raise AssertionError("replica counter drifted")

        # each deque holds non-empty runs in the strict time order its scan
        # and the fill order rely on, so no two adjacent runs share a time
        idle = 0
        prev_since = -math.inf
        for run in s.emptied:
            since, count = run.since, run.count
            if not count > 0:
                raise AssertionError("empty emptied run")
            if not since > prev_since:
                raise AssertionError("emptied nodes out of order")
            prev_since = since
            idle += count
        prev_since = -math.inf
        for run in s.fresh:
            since, count = run.since, run.count
            if not count > 0:
                raise AssertionError("empty fresh run")
            if not since > prev_since:
                raise AssertionError("fresh nodes out of order")
            prev_since = since
            idle += count

        # the prefix rule: every active node is busy, with exactly enough
        # room for the pods, or idle in exactly one run
        if self._nodes_for(total) + idle != s.active_nodes:
            raise AssertionError("node count does not fit the busy and idle"
                                 " nodes")

        provisioning = list(s.provisioning)
        if provisioning != sorted(provisioning):
            raise AssertionError("provisioning nodes out of order")
        if s.live_nodes > self.params.max_nodes:
            raise AssertionError("more live nodes than max_nodes")
