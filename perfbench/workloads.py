"""The benchmark's workloads and one measured pass over each.

Workloads (see README.md for why each exists):

- bundled_sweep: the three bundled scenarios, all four controllers, two
  seeds, through `cli.run_experiment` into a scratch directory.
- fleet_x100: bundled `bursty` with load and fleet limits x100, run in
  memory for `proposed` and `default_hpa`.
- noisy_long: `bursty` with `noise_std: 0.3` over 24 h, run in memory for
  `hpa_vpa` and `proposed`; the only workload whose seed changes arrivals.

A pass drives slosim's public API only. Checking and hashing outputs
happens inside `PassClock.check()`, so it is excluded from the pass's wall
time and from traced spans.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import resource
import tempfile
from pathlib import Path
from time import perf_counter

from slosim import cli, controllers, metrics, runner, scenario, sim

SCENARIO_DIR = Path(scenario.__file__).resolve().parent / "scenarios"
BUNDLED = ("bursty", "mixed", "queue_driven")
NAMES = ("bundled_sweep", "fleet_x100", "noisy_long")

# bundled `bursty` fields scaled together to grow the fleet
FLEET_SCALED = {"workload": ("base_rate",),
                "cluster": ("initial_nodes", "max_nodes"),
                "controller": ("max_replicas", "max_step_up", "max_step_down")}


def bundled_doc(name: str) -> dict:
    return json.loads((SCENARIO_DIR / f"{name}.json").read_text())


def scaled_bursty(factor: int) -> dict:
    doc = bundled_doc("bursty")
    doc["name"] = f"bursty_x{factor}"
    for section, keys in FLEET_SCALED.items():
        for key in keys:
            doc[section][key] *= factor
    return doc


def canonical_sha(doc: dict) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclasses.dataclass
class Workload:
    name: str
    docs: dict[str, dict]        # scenario name -> scenario document
    controllers: tuple[str, ...]
    seeds: tuple[int, ...]
    via_cli: bool                # write files through cli.run_experiment
    horizon: float | None = None  # shortened horizon, for smoke tests

    def load(self) -> dict[str, scenario.ScenarioConfig]:
        """Parse and validate every scenario, as `slosim run` would."""
        out = {}
        for name, doc in self.docs.items():
            if self.via_cli:
                scn = scenario.load_scenario(SCENARIO_DIR / f"{name}.json")
                scn = dataclasses.replace(scn, seed=self.seeds[0],
                                          repeats=len(self.seeds),
                                          controllers=self.controllers)
            else:
                scn = scenario.parse_scenario(doc)
            if self.horizon is not None:
                scn = dataclasses.replace(scn, horizon=self.horizon)
            out[name] = scn
        return out

    def jobs(self) -> list[tuple[str, str, int]]:
        return [(name, kind, seed) for name in self.docs
                for kind in self.controllers for seed in self.seeds]


def make(name: str, seed: int, horizon: float | None = None) -> Workload:
    if name == "bundled_sweep":
        return Workload(name, {n: bundled_doc(n) for n in BUNDLED},
                        controllers.CONTROLLER_KINDS, (seed, seed + 1),
                        via_cli=True, horizon=horizon)
    if name == "fleet_x100":
        return Workload(name, {"bursty_x100": scaled_bursty(100)},
                        ("proposed", "default_hpa"), (seed,),
                        via_cli=False, horizon=horizon)
    if name == "noisy_long":
        doc = bundled_doc("bursty")
        doc["name"] = "bursty_noisy_24h"
        doc["horizon"] = 24 * 3600
        doc["workload"]["noise_std"] = 0.3
        return Workload(name, {doc["name"]: doc}, ("hpa_vpa", "proposed"),
                        (seed,), via_cli=False, horizon=horizon)
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


def setup(name: str, seed: int):
    """What a fresh process does before its first tick."""
    wl = make(name, seed)
    scn = next(iter(wl.load().values()))
    sim.Cluster(scn.cluster, initial_replicas=scn.controller.min_replicas)
    controllers.make_controller(wl.controllers[0], scn.controller,
                                mu=scn.service.per_replica_rate,
                                node_capacity=scn.cluster.node_capacity)


class PassClock:
    """Separates a pass's measured work from checking its outputs."""

    def __init__(self, tracer=None, checked: bool = True):
        self.tracer = tracer
        self.checked = checked
        self.excluded = 0.0

    def check(self, fn, *args):
        """Call `fn(*args)` untimed and untraced, unless checks are off."""
        if not self.checked:
            return
        start = perf_counter()
        with self.tracer.suspended() if self.tracer else contextlib.nullcontext():
            fn(*args)
        self.excluded += perf_counter() - start


@dataclasses.dataclass
class PassResult:
    wall_s: float = 0.0
    run_s: float = 0.0          # time inside runner.run
    ticks: int = 0
    bytes_written: int = 0
    outputs: dict = dataclasses.field(default_factory=dict)  # job -> digests
    errors: dict = dataclasses.field(default_factory=dict)   # job -> message
    proposed_violation_s: float = 0.0
    proposed_node_hours: float = 0.0


def run_pass(wl: Workload, workdir: Path, tracer=None,
             checked: bool = True) -> PassResult:
    res = PassResult()
    clock = PassClock(tracer, checked)
    with tempfile.TemporaryDirectory(prefix="pass-", dir=workdir) as outdir:
        start = perf_counter()
        if wl.via_cli:
            _cli_pass(wl, Path(outdir), res, clock)
        else:
            _memory_pass(wl, res, clock)
        res.wall_s = perf_counter() - start - clock.excluded
    return res


def peak_rss_growth(name: str, seed: int, workdir: str,
                    horizon: float | None) -> int:
    """Bytes by which one unchecked pass raises this process's peak RSS.

    Meant for a fresh process: the peak before the pass is then close to
    the resident size, which is read from /proc/self/statm.
    """
    wl = make(name, seed, horizon)
    wl.load()
    with open("/proc/self/statm") as fh:
        rss_before = int(fh.read().split()[1]) * resource.getpagesize()
    run_pass(wl, Path(workdir), checked=False)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - rss_before


def _check_report(report) -> str | None:
    for field in ("slo_violation_duration", "node_hours", "replica_hours",
                  "cost"):
        value = getattr(report, field)
        if not (math.isfinite(value) and value >= 0):
            return f"report.{field} = {value!r}"
    return None


def _record(res: PassResult, job, scn, report, n_rows: int, n_decisions: int,
            trace_bytes: bytes, decisions_bytes: bytes):
    """Check one finished run's outputs and keep their digests."""
    n_ticks = int(round(scn.horizon / scn.tick))
    per_decision = int(round(scn.controller.control_interval / scn.tick))
    problem = _check_report(report)
    if n_rows != n_ticks:
        problem = f"{n_rows} trace rows for {n_ticks} ticks"
    elif n_decisions != n_ticks // per_decision:
        problem = f"{n_decisions} decisions for {n_ticks} ticks"
    if problem:
        res.errors[job] = problem
        return
    res.outputs[job] = (hashlib.sha256(trace_bytes).hexdigest(),
                        hashlib.sha256(decisions_bytes).hexdigest())
    if job[1] == "proposed":
        res.proposed_violation_s += report.slo_violation_duration
        res.proposed_node_hours += report.node_hours


def _record_trace(res: PassResult, job, scn, report, trace):
    _record(res, job, scn, report, len(trace.rows), len(trace.decisions),
            trace.to_jsonl().encode(), trace.decisions_to_jsonl().encode())


def _memory_pass(wl: Workload, res: PassResult, clock: PassClock):
    scns = wl.load()
    for job in wl.jobs():
        name, kind, seed = job
        scn = scns[name]
        try:
            t0 = perf_counter()
            trace = runner.run(scn, kind, seed=seed)
            t1 = perf_counter()
            report = metrics.build_report(trace, scn.workload, scn.controller,
                                          scn.service.per_replica_rate)
        except Exception as exc:  # a failed run is counted, not fatal
            res.errors[job] = f"{type(exc).__name__}: {exc}"
            continue
        res.run_s += t1 - t0
        res.ticks += len(trace.rows)
        clock.check(_record_trace, res, job, scn, report, trace)
        del trace  # or the next run would start with two traces alive


def _cli_pass(wl: Workload, outdir: Path, res: PassResult, clock: PassClock):
    # cli imported `run` by name; time every call made through it
    inner = cli.run

    def timed_run(*args, **kwargs):
        t0 = perf_counter()
        trace = inner(*args, **kwargs)
        res.run_s += perf_counter() - t0
        res.ticks += len(trace.rows)
        return trace

    cli.run = timed_run
    try:
        for name, scn in wl.load().items():
            try:
                cli.run_experiment(scn, outdir, quiet=True)
            except Exception as exc:  # a failed run is counted, not fatal
                for job in wl.jobs():
                    if job[0] == name:
                        res.errors[job] = f"{type(exc).__name__}: {exc}"
                continue
            clock.check(_record_files, wl, name, scn, outdir / scn.name, res)
    finally:
        cli.run = inner


def _record_files(wl: Workload, name: str, scn, scenario_dir: Path,
                  res: PassResult):
    res.bytes_written += sum(p.stat().st_size
                             for p in scenario_dir.rglob("*") if p.is_file())
    comparison = json.loads((scenario_dir / "comparison.json").read_text())
    if [row["controller"] for row in comparison] != list(scn.controllers):
        for job in wl.jobs():
            if job[0] == name:
                res.errors[job] = "comparison.json rows do not match controllers"
        return
    for job in wl.jobs():
        if job[0] != name:
            continue
        run_dir = scenario_dir / job[1] / str(job[2])
        trace_bytes = (run_dir / "trace.jsonl").read_bytes()
        decisions_bytes = (run_dir / "decisions.jsonl").read_bytes()
        report = metrics.MetricsReport(
            **json.loads((run_dir / "report.json").read_text()))
        _record(res, job, scn, report, trace_bytes.count(b"\n"),
                decisions_bytes.count(b"\n"), trace_bytes, decisions_bytes)
