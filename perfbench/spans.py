"""Span tracing of slosim's layers from outside the package.

`Tracer.installed()` replaces each layer's public function (or method) with
a wrapper that records a span: layer name, start, end, parent span and the
id of the simulation run it belongs to. Leaving the context puts every
original back. Nothing under `src/` knows about the wrappers; they only
observe calls, so traced runs must produce the same bytes as untraced ones.

Spans are kept in flat arrays while tracing and written out at the end.
A layer's self time is its span durations minus the part covered by child
spans; pass time that no root span covers is reported as the remainder.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from collections import Counter
from time import perf_counter

from slosim import cli, controllers, metrics, runner, scenario, sim, workload

# Layers whose spans belong to a whole pass rather than to one run.
PASS_LEVEL = ("scenario.load", "cli.run_experiment", "metrics.compare")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.counts: Counter[str] = Counter()
        self.run_id = 0
        self._stack: list[int] = []
        self._suspended = 0

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int, run_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def suspended(self):
        """Calls made inside record no spans and no counts."""
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    def _name(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, after=None, new_run: bool = False):
        """Wrap `fn` in a span; `after(result, *args)` may add counts."""
        name_id = self._name(name)
        pass_level = name in PASS_LEVEL

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._suspended:
                return fn(*args, **kwargs)
            if new_run:
                self.run_id += 1
            idx = self._open(name_id, 0 if pass_level else self.run_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(result, *args)
            return result
        return traced

    def counted_property(self, prop: property, name: str) -> property:
        def fget(obj):
            if not self._suspended:
                self.counts[name] += 1
            return prop.fget(obj)
        return property(fget, doc=prop.__doc__)

    # -- installation ------------------------------------------------------

    def _patches(self):
        """(owner, attribute, replacement) for every traced layer."""
        counts = self.counts
        wrap = self.wrap

        def refused(ok, *_):
            if not ok:
                counts["sim.provision_node.refused"] += 1

        def serialized(text, *_):
            counts["runner.serialize.bytes"] += len(text.encode())

        patches = [
            (scenario, "load_scenario", wrap(scenario.load_scenario,
                                             "scenario.load")),
            (scenario, "parse_scenario", wrap(scenario.parse_scenario,
                                              "scenario.load")),
            (workload, "arrivals_at", wrap(workload.arrivals_at,
                                           "workload.arrivals_at")),
            (sim.Cluster, "step", wrap(sim.Cluster.step, "sim.step")),
            (sim.Cluster, "schedule", wrap(sim.Cluster.schedule,
                                           "sim.schedule")),
            # node provisioning is part of the scheduling layer
            (sim.Cluster, "provision_node", wrap(sim.Cluster.provision_node,
                                                 "sim.schedule", refused)),
            (sim.Cluster, "check_invariants", wrap(
                sim.Cluster.check_invariants, "sim.check_invariants")),
            (sim.ClusterState, "ready_replicas", self.counted_property(
                sim.ClusterState.ready_replicas, "sim.ready_replicas.calls")),
            (runner, "sample", wrap(runner.sample, "signals.sample")),
            (controllers, "vpa_recommend", wrap(controllers.vpa_recommend,
                                                "controllers.vpa_recommend")),
            (runner.RunTrace, "to_jsonl", wrap(runner.RunTrace.to_jsonl,
                                               "runner.serialize",
                                               serialized)),
            (runner.RunTrace, "decisions_to_jsonl", wrap(
                runner.RunTrace.decisions_to_jsonl, "runner.serialize",
                serialized)),
            (metrics, "build_report", wrap(metrics.build_report,
                                           "metrics.build_report")),
            (metrics, "compare", wrap(metrics.compare, "metrics.compare")),
            (cli, "run_experiment", wrap(cli.run_experiment,
                                         "cli.run_experiment")),
        ]
        # cli imported `run` by name, so both bindings are replaced
        for owner in (runner, cli):
            patches.append((owner, "run", wrap(runner.run, "runner.run",
                                               new_run=True)))
        for cls in (controllers.HpaController, controllers.SloCostController):
            patches.append((cls, "decide", self._count_changes(
                wrap(cls.decide, "controllers.decide"))))
        return patches

    def _count_changes(self, decide):
        """Count decisions whose target differs from the one in force.

        The run loop schedules every decision's target right after it, so
        the scheduled total (placed plus pending) is the target in force.
        """
        @functools.wraps(decide)
        def counted(controller, snap, cluster):
            before = cluster.total_replicas + cluster.pending_replicas
            rec = decide(controller, snap, cluster)
            if not self._suspended:
                self.counts["controllers.decide.changed"] += (
                    rec.action.target_replicas != before)
            return rec
        return counted

    @contextlib.contextmanager
    def installed(self):
        """Trace every layer inside the block; restore the originals after."""
        patches = self._patches()
        saved = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in patches]
        try:
            for owner, attr, replacement in patches:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layers(self):
        """Per-layer self time and span count, and the root spans' total."""
        n = len(self.start)
        own = [self.end[i] - self.start[i] for i in range(n)]
        root_total = 0.0
        for i in range(n):
            if self.parent[i] >= 0:
                own[self.parent[i]] -= self.end[i] - self.start[i]
            else:
                root_total += self.end[i] - self.start[i]
        self_s: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        for i in range(n):
            name = self.names[self.name_id[i]]
            self_s[name] += own[i]
            calls[name] += 1
        return self_s, calls, root_total

    def write(self, path):
        """All spans as tab-separated lines: run, index, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{self.run[i]}\t{i}\t{self.parent[i]}\t"
                         f"{self.names[self.name_id[i]]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
