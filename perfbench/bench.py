"""Measure one workload and print its metrics; see README.md.

`measure()` returns the full report; its `result` entry is the one-line
summary printed last. With trace off it holds the end-to-end metrics, with
trace on the per-layer split of a separately traced pass.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy

import slosim
import spans
import workloads
from slosim import runner, scenario

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = ROOT / "BENCHMARK.json"
WORKDIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 7       # fewest fresh interpreters timed per run
MIN_TIMED_PASSES = 2    # a repeat is needed to check determinism
FLEET_FACTORS = (1, 10, 100)
FLEET_CONTROLLERS = ("proposed", "default_hpa")

RUN_SECONDS = 40
WORKLOADS = {
    "bundled_sweep": "what `slosim run` users wait for: 3 bundled scenarios x "
                     "4 controllers x 2 seeds with files and reports; about "
                     "half the time is serialization, writes and reports",
    "fleet_x100": "bursty with load and fleet limits x100 (~3.5k ready "
                  "replicas), in memory: O(replicas) scans in sim and "
                  "signals dominate, no serialization",
    "noisy_long": "bursty with noise_std 0.3 over 24 h (86,400 ticks), in "
                  "memory: per-tick RNG, VPA history sorting and trace "
                  "storage dominate; the seed changes arrivals",
}
# name -> (unit, better, bound); host time unless the unit says sim_
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "us_per_tick": ("us", "lower", 0.25),
    "peak_mem_mb": ("MB", "lower", 0.2),
    "run_ok_ratio": ("ratio", "higher", 0.01),
    "proposed_violation_s": ("sim_s", "lower", 0.1),
    "proposed_node_hours": ("sim_h", "lower", 0.1),
}
SELF_TIMED = ("scenario.load", "workload.arrivals_at", "sim.step",
              "sim.schedule", "sim.check_invariants", "signals.sample",
              "controllers.decide", "controllers.vpa_recommend", "runner.run",
              "runner.serialize", "metrics.build_report", "metrics.compare",
              "cli.run_experiment")
CALLED = ("workload.arrivals_at", "signals.sample", "controllers.decide")
PER_LAYER = {
    **{f"{layer}.self_s": ("s", "lower") for layer in SELF_TIMED},
    **{f"{layer}.calls": ("count", "lower") for layer in CALLED},
    "sim.ready_replicas.calls": ("count", "lower"),
    "sim.provision_node.refused": ("count", "lower"),
    "controllers.decide.changed_ratio": ("ratio", "lower"),
    "runner.serialize.bytes": ("B", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "unattributed.self_s": ("s", "lower"),
    "traced.wall_s": ("s", "lower"),
    "trace_overhead_s": ("s", "lower"),
    **{f"fleet_curve.x{f}.{kind}.us_per_tick": ("us", "lower")
       for f in FLEET_FACTORS for kind in FLEET_CONTROLLERS},
}


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, (u, b) in PER_LAYER.items()],
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"q1": q1, "median": median, "q3": q3, "n": len(values),
            "values": values}


def provenance(wl: workloads.Workload) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip() \
            if (ROOT / ".git").exists() else None
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "slosim": slosim.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "scenario_sha256": {name: workloads.canonical_sha(doc)
                            for name, doc in wl.docs.items()},
        "controllers": list(wl.controllers),
        "seeds": list(wl.seeds),
    }


def time_setup(wl: workloads.Workload) -> float:
    """Wall time of a fresh interpreter that imports and sets up `wl`."""
    start = perf_counter()
    _child(f"workloads.setup({wl.name!r}, {wl.seeds[0]!r})")
    return perf_counter() - start


def _child(code: str) -> str:
    """Run `code` in a fresh interpreter that imports slosim from src/.

    slosim uses no BLAS, but importing numpy starts an OpenBLAS thread per
    CPU; on a shared 2-vCPU host that start-up timed the other vCPU.
    """
    prelude = (f"import sys; sys.path[:0] = "
               f"{[str(ROOT / 'src'), str(HERE)]!r}; import workloads; ")
    return subprocess.run([sys.executable, "-c", prelude + code], cwd=ROOT,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
                          check=True, capture_output=True, text=True).stdout


def peak_rss_growth(wl: workloads.Workload, workdir: Path) -> int:
    """Peak memory of one pass, measured in its own fresh process."""
    return int(_child(f"print(workloads.peak_rss_growth({wl.name!r}, "
                      f"{wl.seeds[0]!r}, {str(workdir)!r}, {wl.horizon!r}))"))


class Outcome:
    """Run counts and digests, checked against the first pass."""

    def __init__(self, wl: workloads.Workload):
        self.workload = wl.name
        self.attempted = 0
        self.failed = 0
        self.reference: dict | None = None
        self.problems: list[str] = []

    def add(self, res: workloads.PassResult, label: str):
        self.attempted += len(res.outputs) + len(res.errors)
        for job, message in res.errors.items():
            self.failed += 1
            self.problems.append(f"{label} {job}: {message}")
        if self.reference is None:
            self.reference = res.outputs
            return
        for job, digests in res.outputs.items():
            if self.reference.get(job) != digests:
                self.failed += 1
                self.problems.append(f"{label} {job}: outputs differ from the "
                                     "first pass")

    def digests(self) -> dict:
        return {"/".join(map(str, (self.workload, *job))):
                {"trace.jsonl": t, "decisions.jsonl": d}
                for job, (t, d) in sorted((self.reference or {}).items())}


def measure(name: str, seed: int, seconds: float, trace: bool,
            workdir: Path = WORKDIR, horizon: float | None = None) -> dict:
    deadline = perf_counter() + seconds
    wl = workloads.make(name, seed, horizon)
    workdir.mkdir(parents=True, exist_ok=True)
    outcome = Outcome(wl)
    report = {"workload": name, "seed": seed, "trace": trace,
              "provenance": provenance(wl)}
    if trace:
        metrics = _traced(wl, deadline, workdir, outcome, report)
    else:
        metrics = _untraced(wl, deadline, workdir, outcome, report)
    report["problems"] = outcome.problems
    report["digests"] = outcome.digests()
    report["result"] = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": (END_TO_END.get(k) or PER_LAYER[k])[0]}
                    for k, v in metrics.items()},
    }
    return report


def _fits(lap: float, deadline: float) -> bool:
    """Whether one more lap like the last is expected to end by `deadline`."""
    return perf_counter() + lap <= deadline


def _untraced(wl, deadline, workdir, outcome, report) -> dict:
    # also the first fresh import, which fills the bytecode caches
    peak = peak_rss_growth(wl, workdir)
    # set-up times are spread over the run, so that one slow episode of
    # the host does not decide them; a lap starts only if it and the
    # set-ups still owed after it are expected to end by the deadline
    setup, passes, lap = [], [], 0.0
    while len(passes) < MIN_TIMED_PASSES or _fits(
            lap + max(0, SETUP_REPEATS - len(setup) - 1)
            * statistics.median(setup), deadline):
        start = perf_counter()
        setup.append(time_setup(wl))
        res = workloads.run_pass(wl, workdir)
        outcome.add(res, f"pass {len(passes)}")
        passes.append(res)
        lap = perf_counter() - start
    while len(setup) < SETUP_REPEATS:
        setup.append(time_setup(wl))
    walls = [p.wall_s for p in passes]
    per_tick = [p.run_s / max(1, p.ticks) * 1e6 for p in passes]
    report["setup_s"] = quartiles(setup)
    report["wall_s"] = quartiles(walls)
    report["us_per_tick"] = quartiles(per_tick)
    report["run_fail_ratio"] = outcome.failed / outcome.attempted
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "us_per_tick": statistics.median(per_tick),
        "peak_mem_mb": peak / 1e6,
        "run_ok_ratio": 1.0 - outcome.failed / outcome.attempted,
        "proposed_violation_s": passes[0].proposed_violation_s,
        "proposed_node_hours": passes[0].proposed_node_hours,
    }


def _traced(wl, deadline, workdir, outcome, report) -> dict:
    """Alternate untraced and traced passes; report the traced passes' mean."""
    curve = fleet_curve(wl.horizon)
    plain, traced, bytes_written = [], [], []
    self_s, calls, counts = Counter(), Counter(), Counter()
    unattributed, lap = 0.0, 0.0
    while not traced or _fits(lap, deadline):
        start = perf_counter()
        res = workloads.run_pass(wl, workdir)
        outcome.add(res, f"untraced pass {len(plain)}")
        plain.append(res.wall_s)
        tracer = spans.Tracer()
        with tracer.installed():
            res = workloads.run_pass(wl, workdir, tracer=tracer)
        outcome.add(res, f"traced pass {len(traced)}")
        traced.append(res.wall_s)
        bytes_written.append(res.bytes_written)
        layer_self, layer_calls, root_total = tracer.layers()
        self_s.update(layer_self)
        calls.update(layer_calls)
        counts.update(tracer.counts)
        unattributed += res.wall_s - root_total
        lap = perf_counter() - start
    tracer.write(workdir / f"spans-{wl.name}-seed{report['seed']}.tsv")

    n = len(traced)
    metrics = {f"{layer}.self_s": self_s[layer] / n for layer in SELF_TIMED}
    metrics.update({f"{layer}.calls": calls[layer] / n for layer in CALLED})
    metrics.update({
        "sim.ready_replicas.calls": counts["sim.ready_replicas.calls"] / n,
        "sim.provision_node.refused": counts["sim.provision_node.refused"] / n,
        "controllers.decide.changed_ratio":
            counts["controllers.decide.changed"]
            / max(1, calls["controllers.decide"]),
        "runner.serialize.bytes": counts["runner.serialize.bytes"] / n,
        "cli.bytes_written": statistics.fmean(bytes_written),
        "unattributed.self_s": unattributed / n,
        "traced.wall_s": statistics.fmean(traced),
        "trace_overhead_s": statistics.fmean(traced) - statistics.fmean(plain),
    })
    metrics.update(curve)
    report["untraced_wall_s"] = plain
    report["traced_wall_s"] = traced
    return metrics


def fleet_curve(horizon: float | None) -> dict:
    """us per tick of untraced `bursty` runs as the fleet grows."""
    out = {}
    for factor in FLEET_FACTORS:
        scn = scenario.parse_scenario(workloads.scaled_bursty(factor))
        if horizon is not None:
            scn = dataclasses.replace(scn, horizon=horizon)
        for kind in FLEET_CONTROLLERS:
            start = perf_counter()
            trace = runner.run(scn, kind)
            elapsed = perf_counter() - start
            out[f"fleet_curve.x{factor}.{kind}.us_per_tick"] = \
                elapsed / len(trace.rows) * 1e6
    return out


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--write-manifest", action="store_true",
                        help=f"write {MANIFEST.name} and exit")
    args = parser.parse_args(argv)
    if not args.write_manifest and None in (args.workload, args.seed,
                                            args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_manifest:
        MANIFEST.write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report.pop("result")
    print(json.dumps(report, indent=2))
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0
