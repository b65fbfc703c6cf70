"""Deterministic fixed-step cluster model: replicas, nodes, queue, latency.

The model is intentionally small: replicas contribute a fixed service rate,
requests that cannot be served in a tick accumulate in a FIFO backlog, and
latency follows an M/M/c-flavored closed form with a saturation branch.
Nothing here is random; all variation enters through the workload generator.

Placement fills active nodes first-fit in id order, scale-down removes the
newest pods first, and every node has the same number of slots. So the
occupied slots always form a prefix of the active nodes in id order: the
busy nodes are the `nodes_for(total_replicas, node_capacity)` lowest
active ids, all of them full but the last, and every idle node has a higher
id than every busy one.

Which idle node fills first needs no ids either. Ids are handed out as
nodes activate, and an idle node has either held pods and emptied, or held
none since it activated (fresh). A node empties from the top of the busy
prefix, so below every idle node, and a node that activates gets a higher
id than every other. So every emptied id is below every fresh id, emptied
ids fall in the order the nodes empty, and fresh ids rise with activation
time: the lowest idle id is the newest emptied node if there is one, and
else the oldest fresh one. The state keeps only what this leaves open: the
placed pod count, the number of active nodes, the idle-since times of the
emptied and of the fresh nodes, and the activation times of the nodes on
their way. Pods placed at one time are interchangeable, and so are nodes of
one kind that went idle at one time, and nodes requested at one time, so
all of them are kept as cohorts: a time and a count. A pod cohort's time is
when its pods are ready, and the pods still starting are the cohorts at the
tail whose time is ahead. Items join a sequence at its right end with a
time no earlier than its last cohort's, and `_add_cohort` merges equal
times, so every cohort sequence, pods included, holds non-empty cohorts
whose times strictly increase. A node request is one call that adds at
most one cohort, and `nodes_for` is the one rule for how many nodes hold a
number of pods. `Cluster.check_invariants` checks every stored fact on
every tick, and one walk, `_cohort_total`, checks each cohort sequence.

The cluster is one object: `ClusterState` holds the data and the counts
derived from it, and `Cluster` is a `ClusterState` with the operations
that step it. The run loop hands the cluster itself to the controllers,
which read it as a `ClusterState`.

Counting the ready pods walks the starting cohorts, so a tick does it once:
`Cluster.step` returns the count it served with, and `observe_latency` is a
pure function of that count and the backlog. Within a tick only `schedule`
changes the count.
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
    """`count` interchangeable items that share the time `t`: pods placed
    together and ready at `t`, nodes of one kind that went idle at `t`, or
    nodes requested together that activate at `t`."""

    t: float
    count: int


def _add_cohort(cohorts: list[Cohort] | deque[Cohort], t: float, count: int):
    """Add `count` items of time `t` at the right end of `cohorts`, merging
    them into the last cohort if it has the same time."""
    if cohorts and cohorts[-1].t == t:
        cohorts[-1].count += count
    else:
        cohorts.append(Cohort(t, count))


def _cohort_total(cohorts: list[Cohort] | deque[Cohort], empty: str,
                  disorder: str) -> int:
    """The summed count of `cohorts`, after checking that every cohort is
    non-empty and that the times strictly increase along them. A failed
    check raises AssertionError(empty) or AssertionError(disorder) itself,
    so that `python -O` keeps it."""
    total = 0
    prev_t = -math.inf
    for cohort in cohorts:
        t, count = cohort.t, cohort.count
        if not count > 0:
            raise AssertionError(empty)
        if not t > prev_t:
            raise AssertionError(disorder)
        prev_t = t
        total += count
    return total


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


@dataclass(eq=False)
class ClusterState:
    """Everything a tick reads: cohorts, node counts and idle times, counters.

    The base of `Cluster`, which adds the operations; controllers read a
    cluster through this type. Its constructor takes the `params` alone:
    every other field starts at zero or empty and changes only through the
    operations. Equality is identity, so a cluster stays hashable.

    `replicas` holds cohorts in placement order, newest last, and
    `total_replicas` is the sum of their counts; a cohort's time is when
    its pods are ready. Pods are placed at the current time with the
    constant `pod_start_delay >= 0`, time only moves forward, and pods
    placed at one ready time join one cohort, so the ready times strictly
    increase along the list: the pods still starting are the cohorts at the
    tail whose time is ahead, and `ready_replicas` is the total less those.

    The occupied slots are a prefix of the active nodes in id order (see
    the module docstring), so `nodes_for(total_replicas, node_capacity)` of
    the `active_nodes` are busy and the rest are idle, in cohorts of nodes that
    went idle at one time. `emptied` holds the cohorts of idle nodes that
    have held pods, by the time they emptied, oldest first and so highest
    id first; the right end fills first. `fresh` holds the cohorts of idle
    nodes that have held none, by activation time, oldest first and so
    lowest id first; the left end fills first. A fill takes whole cohorts
    and then part of one. Both retire whole cohorts from the left, and a
    retired node is gone for good. `provisioning` holds the cohorts of
    nodes on their way, by activation time, oldest first; a step activates
    whole cohorts from the left. As in `replicas`, adjacent cohorts of one
    sequence never share a time, so the times strictly increase along
    every one of the four. `time` is `ticks` steps of the fixed tick.
    """

    # the fixed limits this state evolves under; the operations and the
    # controllers read them here
    params: ClusterParams
    time: float = field(default=0.0, init=False)
    ticks: int = field(default=0, init=False)
    replicas: list[Cohort] = field(default_factory=list, init=False)
    pending_replicas: int = field(default=0, init=False)
    queue_depth: float = field(default=0.0, init=False)
    cumulative_served: float = field(default=0.0, init=False)
    cumulative_arrived: float = field(default=0.0, init=False)
    total_replicas: int = field(default=0, init=False)
    active_nodes: int = field(default=0, init=False)
    provisioning: deque[Cohort] = field(default_factory=deque, init=False)
    emptied: deque[Cohort] = field(default_factory=deque, init=False)
    fresh: deque[Cohort] = field(default_factory=deque, init=False)

    @property
    def live_nodes(self) -> int:
        """Active nodes plus the ones on their way."""
        return self.active_nodes + sum(c.count for c in self.provisioning)

    @property
    def free_slots(self) -> int:
        """Empty replica slots over the active nodes."""
        return self.active_nodes * self.params.node_capacity - self.total_replicas

    @property
    def ready_replicas(self) -> int:
        """Placed pods less the cohorts at the tail that are still starting."""
        ready, t = self.total_replicas, self.time
        for cohort in reversed(self.replicas):
            if cohort.t <= t:
                break
            ready -= cohort.count
        return ready


def nodes_for(pods: int, node_capacity: int) -> int:
    """How many nodes of `node_capacity` slots `pods` pods fill: the exact
    integer ceiling, which a float division misses past 2**53 pods."""
    return -(-pods // node_capacity)


def observe_latency(ready: int, queue_depth: float, arrival_rate: float,
                    model: ServiceModel) -> float:
    """Analytic latency of `ready` ready pods serving `arrival_rate` with a
    `queue_depth` backlog, saturating at latency_cap.

    Below saturation this is the M/M/c-style 1/(1-rho) blowup plus the time
    to work off the existing backlog; at or past saturation the backlog term
    dominates and the base curve is dropped. It reads no cluster state, so
    the caller passes the count `Cluster.step` served with.
    """
    if arrival_rate < 0:
        raise ValueError("arrival_rate must be >= 0")
    if ready == 0:
        return model.latency_cap
    capacity = ready * model.per_replica_rate
    rho = arrival_rate / capacity
    if rho < 1.0:
        lat = model.base_latency / (1.0 - rho) + queue_depth / capacity
    else:
        lat = model.base_latency + (queue_depth + 1.0) / capacity
    return min(model.latency_cap, lat)


class Cluster(ClusterState):
    """Mutable cluster simulation advanced tick by tick: a `ClusterState`
    and the operations that change it.

    One instance is owned by exactly one run loop; it is never shared.
    """

    def __init__(self, params: ClusterParams, initial_replicas: int = 0):
        super().__init__(params)
        if params.initial_nodes:
            self.fresh.append(Cohort(0.0, params.initial_nodes))
        self.active_nodes = params.initial_nodes
        # initial replicas are ready immediately (pre-warmed fleet)
        self._place(initial_replicas, ready_at=0.0)
        self.pending_replicas += max(0, initial_replicas - self.total_replicas)

    # -- internal helpers -------------------------------------------------

    def _place(self, count: int, ready_at: float) -> int:
        """First-fit placement over active nodes in id order; returns #placed."""
        placed = min(count, self.free_slots)
        if placed <= 0:
            return 0
        capacity = self.params.node_capacity
        filled = (nodes_for(self.total_replicas + placed, capacity)
                  - nodes_for(self.total_replicas, capacity))
        self.total_replicas += placed
        _add_cohort(self.replicas, ready_at, placed)
        # the pods fill the last busy node, then the lowest idle ids: the
        # newest emptied nodes, then the oldest fresh ones
        emptied, fresh = self.emptied, self.fresh
        while filled:
            if emptied:
                cohort, drop = emptied[-1], emptied.pop
            else:
                cohort, drop = fresh[0], fresh.popleft
            if cohort.count > filled:
                cohort.count -= filled
                break
            filled -= cohort.count
            drop()
        return placed

    def _discharge_pending(self):
        """Place as many pending pods as there are free slots."""
        if self.pending_replicas <= 0:
            return
        placed = self._place(self.pending_replicas,
                             self.time + self.params.pod_start_delay)
        self.pending_replicas -= placed

    def _remove_replicas(self, count: int):
        """Scale-down: drop pending first, then placed replicas newest-first."""
        drop_pending = min(count, self.pending_replicas)
        self.pending_replicas -= drop_pending
        count -= drop_pending
        capacity = self.params.node_capacity
        busy = nodes_for(self.total_replicas, capacity)
        self.total_replicas -= count
        reps = self.replicas
        while count > 0:
            last = reps[-1]
            if last.count > count:
                last.count -= count
                break
            count -= last.count
            reps.pop()
        # the newest pods sit in the highest slots, so the top busy nodes
        # empty, each below every node emptied before
        freed = busy - nodes_for(self.total_replicas, capacity)
        if freed:
            _add_cohort(self.emptied, self.time, freed)

    # -- spec operations --------------------------------------------------

    def step(self, arrivals: float, model: ServiceModel, dt: float) -> int:
        """Advance one tick of the run's fixed `dt` and return the number of
        ready pods it served with.

        In order: activate the node cohorts whose provisioning is done,
        place pending pods, serve the backlog and `arrivals` with the ready
        pods, and retire the idle nodes that timed out. Arrivals summed past
        the float range raise `OverflowError`. Retiring touches no pod,
        so the count still holds when `step` returns; before the next
        `step`, only `schedule` changes it.
        """
        if dt <= 0:
            raise ValueError("dt must be > 0")
        if not math.isfinite(arrivals) or arrivals < 0:
            raise ValueError(f"arrivals must be finite and >= 0, got {arrivals}")
        # whole ticks times dt, which a running sum of dt drifts away from
        self.ticks += 1
        self.time = float(self.ticks * dt)

        # node_provision_delay is constant, so activation times increase
        # along the deque and the first cohort still on its way ends the scan
        provisioning = self.provisioning
        while provisioning and provisioning[0].t <= self.time:
            activated = provisioning.popleft().count
            _add_cohort(self.fresh, self.time, activated)
            self.active_nodes += activated
        self._discharge_pending()

        ready = self.ready_replicas
        capacity = ready * model.per_replica_rate * dt
        offered = self.queue_depth + arrivals
        served = min(offered, capacity)
        self.queue_depth = offered - served
        self.cumulative_arrived += arrivals
        self.cumulative_served += served
        if self.cumulative_arrived == math.inf:
            raise OverflowError(f"arrivals summed to t={(self.ticks - 1) * dt!r}"
                                " pass the float range")

        # nodes join either deque at the right with the current time, so
        # the times increase along it and the first cohort not timed out
        # ends its search
        timeout = self.params.node_idle_timeout
        for idle in (self.emptied, self.fresh):
            while idle and self.time - idle[0].t > timeout:
                self.active_nodes -= idle.popleft().count
        return ready

    def schedule(self, desired_replicas: int):
        """Move the scheduled replica total toward desired_replicas."""
        if desired_replicas < 0:
            raise ValueError("desired_replicas must be >= 0")
        current = self.total_replicas + self.pending_replicas
        if desired_replicas > current:
            self.pending_replicas += desired_replicas - current
            self._discharge_pending()
        elif desired_replicas < current:
            self._remove_replicas(current - desired_replicas)

    def provision_node(self, count: int) -> int:
        """Request `count` extra nodes as one cohort, granted up to
        max_nodes; returns how many were granted, 0 when refused."""
        granted = min(count, self.params.max_nodes - self.live_nodes)
        if granted <= 0:
            return 0
        _add_cohort(self.provisioning,
                    self.time + self.params.node_provision_delay, granted)
        return granted

    # -- invariant checks (used by tests and the run loop) -----------------

    def check_invariants(self):
        """Check every stored fact; O(cohorts). Each check raises
        AssertionError itself, so that `python -O` keeps it."""
        if not self.queue_depth >= 0.0:
            raise AssertionError("negative queue")
        if not self.pending_replicas >= 0:
            raise AssertionError("negative pending")
        # Each tick, `step` rounds at most six float operations on the three
        # sums: arrivals to float and the add in `offered`, the subtraction
        # in `queue_depth`, arrivals to float and the add in
        # `cumulative_arrived`, the add in `cumulative_served`. Each result
        # is at most `cumulative_arrived`, so each is off by at most 2**-53
        # of it, and the two subtractions below round twice more. A larger
        # gap is a leak; `step` keeps `cumulative_arrived` finite, so the
        # bound is too.
        gap = abs(self.cumulative_arrived - self.cumulative_served
                  - self.queue_depth)
        if not (gap < 1e-6 or gap <= (6 * self.ticks + 2) * 2**-53
                * self.cumulative_arrived):
            raise AssertionError("request conservation violated")

        # every cohort sequence holds non-empty cohorts in the strict time
        # order its scans, fills and merges rely on
        total = _cohort_total(self.replicas, "empty cohort",
                              "cohorts out of ready_at order")
        if self.total_replicas != total:
            raise AssertionError("replica counter drifted")
        idle = (_cohort_total(self.emptied, "empty emptied run",
                              "emptied nodes out of order")
                + _cohort_total(self.fresh, "empty fresh run",
                                "fresh nodes out of order"))
        incoming = _cohort_total(self.provisioning, "empty provisioning run",
                                 "provisioning nodes out of order")

        # the prefix rule: every active node is busy, with exactly enough
        # room for the pods, or idle in exactly one cohort
        if nodes_for(total, self.params.node_capacity) + idle \
                != self.active_nodes:
            raise AssertionError("node count does not fit the busy and idle"
                                 " nodes")
        # every placement discharges pending pods into the free slots first
        if self.pending_replicas and self.free_slots > 0:
            raise AssertionError("pending pods while a slot is free")

        if self.active_nodes + incoming > self.params.max_nodes:
            raise AssertionError("more live nodes than max_nodes")
