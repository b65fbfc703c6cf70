"""Run loop tying workload, cluster, signals, and a controller together."""

from __future__ import annotations

import bisect
import json
import math
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, islice

from . import workload
from .controllers import DecisionRecord, make_controller
from .scenario import ScenarioConfig
from .signals import SignalSnapshot, sample
from .sim import Cluster, nodes_for

# how long pending replicas must persist before the simulated node autoscaler
# reacts for controllers that emit no capacity hints (baseline behavior)
PENDING_TRIGGER_DELAY = 45.0

# one trace.jsonl line; every value is `%s`-formatted, which writes an int
# or a finite float as `json` does. A row without a decision has its action
# and decision id written in.
_ROW_HEAD = (
    '{"t": %s, "arrivals": %s, "ready": %s, "starting": %s, "pending": %s, '
    '"nodes_active": %s, "queue": %s, "latency": %s, "utilization": %s, ')
_DECISION_ROW = _ROW_HEAD + '"action": %s, "decision_id": %s}\n'
_PLAIN_ROW = _ROW_HEAD + '"action": null, "decision_id": null}\n'


class SimulationError(RuntimeError):
    """An internal invariant broke mid-run; the trace cannot be trusted."""


@dataclass
class RunTrace:
    """One run's per-tick trace and its decision log, kept as columns.

    Row k covers the tick that starts at `k * tick`. The count columns are
    lists, so they hold any int; `arrivals` exceeds 2**63 at the largest
    accepted rates. `latency` is a list too: on row 0, with no replica
    ready, it is the latency cap as given, which may be an int. `queue` and
    `utilization` are always floats. `decisions[i]` was made during row
    `decision_rows[i]`, and its action is that row's action. The
    constructor takes no column: rows are added with `append` only, which
    keeps the columns the same length.
    """

    controller: str
    tick: float
    horizon: float
    initial_replicas: int
    arrivals: list[int] = field(default_factory=list, init=False)
    ready: list[int] = field(default_factory=list, init=False)
    starting: list[int] = field(default_factory=list, init=False)
    pending: list[int] = field(default_factory=list, init=False)
    nodes_active: list[int] = field(default_factory=list, init=False)
    queue: array = field(default_factory=lambda: array("d"), init=False)
    latency: list[float] = field(default_factory=list, init=False)
    utilization: array = field(default_factory=lambda: array("d"), init=False)
    decisions: list[DecisionRecord] = field(default_factory=list, init=False)
    decision_rows: list[int] = field(default_factory=list, init=False)

    def append(self, arrivals: int, ready: int, starting: int, pending: int,
               nodes_active: int, queue: float, latency: float,
               utilization: float, decision: DecisionRecord | None = None):
        """Add the next row, with the decision made during its tick if any."""
        if decision is not None:
            self.decision_rows.append(len(self.arrivals))
            self.decisions.append(decision)
        self.arrivals.append(arrivals)
        self.ready.append(ready)
        self.starting.append(starting)
        self.pending.append(pending)
        self.nodes_active.append(nodes_active)
        self.queue.append(queue)
        self.latency.append(latency)
        self.utilization.append(utilization)

    @property
    def rows(self) -> TraceRows:
        """The rows as the dicts `to_jsonl` writes, built when indexed."""
        return TraceRows(self)

    def jsonl_rows(self) -> Iterator[str]:
        """The trace.jsonl lines in order, each formatted when it is read."""
        rows = zip(map(self.tick.__mul__, range(len(self.arrivals))),
                   self.arrivals, self.ready, self.starting, self.pending,
                   self.nodes_active, _as_json(self.queue),
                   _as_json(self.latency), _as_json(self.utilization))
        return chain.from_iterable(self._row_runs(rows))

    def _row_runs(self, rows) -> Iterator[Iterator[str]]:
        """The lines of `rows` as runs: the plain rows before each decision
        row, then that row alone, then the plain rows after the last."""
        done = 0
        for i, (k, rec) in enumerate(zip(self.decision_rows, self.decisions)):
            yield map(_PLAIN_ROW.__mod__, islice(rows, k - done))
            row = (*next(rows), json.dumps(rec.action.__dict__), i)
            yield (_DECISION_ROW % row,)
            done = k + 1
        yield map(_PLAIN_ROW.__mod__, rows)

    def to_jsonl(self) -> str:
        return "".join(self.jsonl_rows())

    def decisions_to_jsonl(self) -> str:
        return "".join(json.dumps(_record_dict(rec)) + "\n"
                       for rec in self.decisions)


class TraceRows(Sequence):
    """Read-only view of a `RunTrace` as one dict per row, built on access."""

    def __init__(self, trace: RunTrace):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.arrivals)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        k = range(len(self))[k]  # counts back from the end; IndexError past it
        tr = self._trace
        i = bisect.bisect_left(tr.decision_rows, k)
        if i == len(tr.decision_rows) or tr.decision_rows[i] != k:
            i = None
        return {
            "t": k * tr.tick,
            "arrivals": tr.arrivals[k],
            "ready": tr.ready[k],
            "starting": tr.starting[k],
            "pending": tr.pending[k],
            "nodes_active": tr.nodes_active[k],
            "queue": tr.queue[k],
            "latency": tr.latency[k],
            "utilization": tr.utilization[k],
            "action": None if i is None else dict(tr.decisions[i].action.__dict__),
            "decision_id": i,
        }


def _as_json(column):
    """`column` ready for `%s`: itself when every value is finite, else each
    value as `json` writes it (`NaN`, `Infinity`, `-Infinity`) when read."""
    try:
        if all(map(math.isfinite, column)):
            return column
    except OverflowError:  # an int beyond the float range, written whole
        pass
    return map(json.dumps, column)


def _record_dict(rec: DecisionRecord) -> dict:
    """`dataclasses.asdict(rec)`, built from `__dict__`; the snapshot and the
    action are the record's only nested dataclasses."""
    out = dict(rec.__dict__)
    out["snapshot"] = rec.snapshot.__dict__
    out["action"] = rec.action.__dict__
    return out


def _provision_nodes(cluster: Cluster, pods: int):
    """Request, in one call, the nodes `pods` pods fill less those already
    on their way."""
    wanted = (nodes_for(pods, cluster.params.node_capacity)
              - (cluster.live_nodes - cluster.active_nodes))
    if wanted > 0:
        cluster.provision_node(wanted)


def run(scn: ScenarioConfig, controller_kind: str,
        seed: int | None = None) -> RunTrace:
    """Simulate one controller over the scenario; fully deterministic."""
    seed = scn.seed if seed is None else seed
    cfg = scn.controller
    cluster = Cluster(scn.cluster, initial_replicas=cfg.min_replicas)
    controller = make_controller(controller_kind, cfg,
                                 mu=scn.service.per_replica_rate,
                                 node_capacity=scn.cluster.node_capacity)

    tick, spec, service = scn.tick, scn.workload, scn.service
    trace = RunTrace(controller=controller_kind, tick=tick,
                     horizon=scn.horizon, initial_replicas=cfg.min_replicas)
    n_ticks = int(round(scn.horizon / tick))
    interval_ticks = int(round(cfg.control_interval / tick))
    prev_latency: float | None = None
    pending_since: float | None = None
    # bound once per run, after any wrapper is installed
    arrivals_at, step = workload.arrivals_at, cluster.step
    check_invariants, append = cluster.check_invariants, trace.append

    for k in range(n_ticks):
        arrivals = arrivals_at(spec, seed, k, tick)
        ready = step(arrivals, service, tick)
        rate = arrivals / tick
        latency, util = sample(ready, cluster.queue_depth, rate, service,
                               prev_latency)
        prev_latency = latency

        rec = None
        if (k + 1) % interval_ticks == 0:
            snap = SignalSnapshot(
                t=cluster.time, latency=latency, queue=cluster.queue_depth,
                utilization=util, pending=cluster.pending_replicas,
                arrival_rate=rate, ready_replicas=ready)
            rec = controller.decide(snap, cluster)
            cluster.schedule(rec.action.target_replicas)
            # schedule is the only call in a tick that places or removes
            # pods, so the count `step` returned is read again only here
            ready = cluster.ready_replicas
            if rec.action.node_capacity_hint:
                _provision_nodes(cluster, rec.action.node_capacity_hint)

        if not controller.emits_node_hints:
            # simulated cluster autoscaler: react to persistent pending pods
            now = cluster.time
            if cluster.pending_replicas > 0:
                if pending_since is None:
                    pending_since = now
                elif now - pending_since >= PENDING_TRIGGER_DELAY:
                    _provision_nodes(cluster, cluster.pending_replicas)
                    pending_since = now
            else:
                pending_since = None

        try:
            check_invariants()
        except AssertionError as exc:
            raise SimulationError(
                f"invariant breach at t={k * tick}: {exc}") from exc

        append(arrivals, ready, cluster.total_replicas - ready,
               cluster.pending_replicas, cluster.active_nodes,
               cluster.queue_depth, latency, util, rec)

    return trace
