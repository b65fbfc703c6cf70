"""Command-line entry point: validate scenarios and run experiments."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__, metrics
from .runner import SimulationError, run
from .scenario import ConfigError, ScenarioConfig, load_scenario

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def run_experiment(scn: ScenarioConfig, outdir: Path,
                   quiet: bool = False) -> int:
    """Run every (controller, seed) pair and emit traces, reports, comparison.

    Seeds run outer and controllers inner, so that all controllers of a seed
    share its arrivals (see `workload`); reports are still aggregated and
    printed per controller, in the scenario's order.
    """
    scenario_dir = outdir / scn.name
    per_kind = [[] for _ in scn.controllers]
    for rep in range(scn.repeats):
        seed = scn.seed + rep
        for kind, reports in zip(scn.controllers, per_kind):
            trace = run(scn, kind, seed=seed)
            run_dir = scenario_dir / kind / str(seed)
            run_dir.mkdir(parents=True, exist_ok=True)
            with (run_dir / "trace.jsonl").open("w") as fh:
                fh.writelines(trace.jsonl_rows())  # never held whole
            (run_dir / "decisions.jsonl").write_text(trace.decisions_to_jsonl())
            report = metrics.build_report(trace, scn.workload, scn.controller,
                                          scn.service.per_replica_rate)
            (run_dir / "report.json").write_text(
                json.dumps(dataclasses.asdict(report), indent=2) + "\n")
            reports.append(report)
            del trace  # or the next run would start with two traces alive
    aggregated = []
    for kind, reports in zip(scn.controllers, per_kind):
        aggregated.append(metrics.aggregate_reports(reports))
        if not quiet:
            rep = aggregated[-1]
            print(f"{scn.name}/{kind}: violations={rep.slo_violation_count:g} "
                  f"duration={rep.slo_violation_duration:g}s "
                  f"node_hours={rep.node_hours:.3f}")

    comparison = metrics.compare(aggregated)
    (scenario_dir / "comparison.json").write_text(
        json.dumps(comparison, indent=2) + "\n")
    (scenario_dir / "comparison.csv").write_text(
        metrics.comparison_to_csv(comparison))
    if not quiet:
        print(f"comparison written to {scenario_dir / 'comparison.csv'}")
    return EXIT_OK


def _cmd_run(args) -> int:
    try:
        scn = load_scenario(args.scenario)
        overrides = {}
        if args.controllers is not None:
            overrides["controllers"] = tuple(args.controllers.split(","))
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.repeats is not None:
            overrides["repeats"] = args.repeats
        if overrides:  # validated once, with every override in place
            scn = dataclasses.replace(scn, **overrides)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return run_experiment(scn, Path(args.out), quiet=args.quiet)
    except SimulationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # the scenario validated, so this is a run failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def _cmd_validate(args) -> int:
    try:
        scn = load_scenario(args.scenario)
    except (ConfigError, OSError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"ok: scenario {scn.name!r}, horizon {scn.horizon:g}s, "
          f"{len(scn.controllers)} controller(s)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slosim",
        description="SLO- and cost-aware autoscaling simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment scenario")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--controllers",
                       help="comma-separated controller kinds to run")
    p_run.add_argument("--seed", type=int, help="override the base seed")
    p_run.add_argument("--repeats", type=int, help="number of seeds per controller")
    p_run.add_argument("--quiet", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("scenario")
    p_val.set_defaults(func=_cmd_validate)

    p_ver = sub.add_parser("version", help="print the version")
    p_ver.set_defaults(func=lambda args: (print(__version__), EXIT_OK)[1])

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
