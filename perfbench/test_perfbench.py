"""Tests of the benchmark itself: tracing wrappers, metric names, and a
short-horizon smoke run of every workload."""

import json
import math
import re

import pytest

import bench
import spans
import workloads

RECORDED_SEED = 1
HELD_OUT_SEED = 9173
SMOKE_HORIZON = 600.0
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _attributes(tracer):
    return [(owner, attr, owner.__dict__[attr])
            for owner, attr, _ in tracer._patches()]


def test_wrappers_restore_the_originals():
    tracer = spans.Tracer()
    before = _attributes(tracer)
    with pytest.raises(RuntimeError):
        with tracer.installed():
            for owner, attr, original in before:
                assert owner.__dict__[attr] is not original, (owner, attr)
            raise RuntimeError("leave the block early")
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, (owner, attr)


def test_metric_names_are_well_formed_and_unique():
    manifest = bench.manifest()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in manifest[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_committed_manifest_matches_the_code():
    assert json.loads(bench.MANIFEST.read_text()) == bench.manifest()


@pytest.fixture
def quick_setup(monkeypatch):
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)


def _check(report, expected):
    result = report["result"]
    assert result["correct"], report["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert math.isfinite(metric["value"]), name
    return result["metrics"]


@pytest.mark.parametrize("name,seed", [
    *((name, RECORDED_SEED) for name in workloads.NAMES),
    ("noisy_long", HELD_OUT_SEED),
])
def test_smoke_untraced(name, seed, quick_setup, tmp_path):
    report = bench.measure(name, seed, 0, trace=False, workdir=tmp_path,
                           horizon=SMOKE_HORIZON)
    metrics = _check(report, bench.END_TO_END)
    assert metrics["run_ok_ratio"]["value"] == 1.0
    assert metrics["proposed_node_hours"]["value"] > 0


def test_noisy_long_seed_changes_arrivals(tmp_path):
    digests = []
    for seed in (RECORDED_SEED, HELD_OUT_SEED):
        res = workloads.run_pass(workloads.make("noisy_long", seed, 60.0),
                                 tmp_path)
        digests.append(sorted(res.outputs.values()))
    assert digests[0] != digests[1]


def test_smoke_traced_split_adds_up(quick_setup, tmp_path):
    report = bench.measure("bundled_sweep", RECORDED_SEED, 0, trace=True,
                           workdir=tmp_path, horizon=SMOKE_HORIZON)
    metrics = {k: v["value"] for k, v in _check(report, bench.PER_LAYER).items()}
    layers = sum(metrics[f"{layer}.self_s"] for layer in bench.SELF_TIMED)
    assert layers + metrics["unattributed.self_s"] == pytest.approx(
        metrics["traced.wall_s"], rel=1e-9)
    assert metrics["runner.serialize.bytes"] > 0
    assert metrics["cli.bytes_written"] > metrics["runner.serialize.bytes"]
    ticks = SMOKE_HORIZON * len(workloads.BUNDLED) * 4 * 2
    assert metrics["workload.arrivals_at.calls"] == ticks
    assert metrics["signals.sample.calls"] == ticks
    assert 0 < metrics["controllers.decide.changed_ratio"] < 1
