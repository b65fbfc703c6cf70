"""Run loop tying workload, cluster, signals, and a controller together."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

from . import workload
from .controllers import DecisionRecord, make_controller
from .scenario import ScenarioConfig
from .signals import sample
from .sim import Cluster

# how long pending replicas must persist before the simulated node autoscaler
# reacts for controllers that emit no capacity hints (baseline behavior)
PENDING_TRIGGER_DELAY = 45.0


class SimulationError(RuntimeError):
    """An internal invariant broke mid-run; the trace cannot be trusted."""


@dataclass
class RunTrace:
    controller: str
    seed: int
    tick: float
    horizon: float
    initial_replicas: int
    rows: list[dict] = field(default_factory=list)
    decisions: list[DecisionRecord] = field(default_factory=list)

    def to_jsonl(self) -> str:
        return "".join(json.dumps(row) + "\n" for row in self.rows)

    def decisions_to_jsonl(self) -> str:
        out = []
        for rec in self.decisions:
            out.append(json.dumps(dataclasses.asdict(rec)) + "\n")
        return "".join(out)


def _nodes_incoming(cluster: Cluster) -> int:
    return len(cluster.state.provisioning)


def _provision_nodes(cluster: Cluster, wanted: int) -> int:
    """Provision up to `wanted` nodes beyond those already on the way."""
    to_add = wanted - _nodes_incoming(cluster)
    added = 0
    for _ in range(max(0, to_add)):
        if cluster.provision_node():
            added += 1
    return added


def run(scn: ScenarioConfig, controller_kind: str,
        seed: int | None = None) -> RunTrace:
    """Simulate one controller over the scenario; fully deterministic."""
    seed = scn.seed if seed is None else seed
    wspec = dataclasses.replace(scn.workload, seed=seed)
    cfg = scn.controller
    cluster = Cluster(scn.cluster, initial_replicas=cfg.min_replicas)
    controller = make_controller(controller_kind, cfg,
                                 mu=scn.service.per_replica_rate,
                                 node_capacity=scn.cluster.node_capacity)

    trace = RunTrace(controller=controller_kind, seed=seed, tick=scn.tick,
                     horizon=scn.horizon, initial_replicas=cfg.min_replicas)
    n_ticks = int(round(scn.horizon / scn.tick))
    interval_ticks = int(round(cfg.control_interval / scn.tick))
    prev_latency: float | None = None
    pending_since: float | None = None

    for k in range(n_ticks):
        t = k * scn.tick
        arrivals = workload.arrivals_at(wspec, t, scn.tick)
        cluster.step(arrivals, scn.service, scn.tick)
        rate = arrivals / scn.tick
        snap = sample(cluster.state, rate, scn.service, prev_latency)
        prev_latency = snap.latency

        action_obj = None
        decision_id = None
        if (k + 1) % interval_ticks == 0:
            rec = controller.decide(snap, cluster.state)
            decision_id = len(trace.decisions)
            trace.decisions.append(rec)
            cluster.schedule(rec.action.target_replicas)
            if rec.action.node_capacity_hint:
                wanted = math.ceil(rec.action.node_capacity_hint
                                   / scn.cluster.node_capacity)
                _provision_nodes(cluster, wanted)
            action_obj = {
                "target_replicas": rec.action.target_replicas,
                "node_capacity_hint": rec.action.node_capacity_hint,
                "vpa_recommendation": rec.action.vpa_recommendation,
            }

        if not controller.emits_node_hints:
            # simulated cluster autoscaler: react to persistent pending pods
            now = cluster.state.time
            if cluster.state.pending_replicas > 0:
                if pending_since is None:
                    pending_since = now
                elif now - pending_since >= PENDING_TRIGGER_DELAY:
                    wanted = math.ceil(cluster.state.pending_replicas
                                       / scn.cluster.node_capacity)
                    _provision_nodes(cluster, wanted)
                    pending_since = now
            else:
                pending_since = None

        try:
            cluster.check_invariants()
        except AssertionError as exc:
            raise SimulationError(f"invariant breach at t={t}: {exc}") from exc

        s = cluster.state
        ready = s.ready_replicas
        trace.rows.append({
            "t": t,
            "arrivals": arrivals,
            "ready": ready,
            "starting": s.total_replicas - ready,
            "pending": s.pending_replicas,
            "nodes_active": s.active_nodes,
            "queue": s.queue_depth,
            "latency": snap.latency,
            "utilization": snap.utilization,
            "action": action_obj,
            "decision_id": decision_id,
        })

    return trace
