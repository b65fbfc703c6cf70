"""Scenario parsing and the command-line workflow."""

import copy
import functools
import json
from dataclasses import fields

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from slosim import cli, metrics
from slosim.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from slosim.controllers import ControllerConfig
from slosim.runner import run
from slosim.scenario import ConfigError, load_scenario, parse_scenario
from slosim.sim import ClusterParams, ServiceModel
from slosim.workload import WorkloadSpec

from helpers import bundled_doc

MINIMAL = {
    "schema": 1,
    "name": "tiny",
    "horizon": 120,
    "workload": {"kind": "bursty", "base_rate": 5},
}

QUICK = {
    "schema": 1,
    "name": "quick",
    "horizon": 120,
    "tick": 1,
    "seed": 3,
    "workload": {"kind": "bursty", "base_rate": 5, "burst_amplitude": 4,
                 "burst_duration": 20, "burst_interval": 60},
    "service": {"per_replica_rate": 10, "base_latency": 0.05,
                "latency_cap": 0.4},
    "controller": {"control_interval": 15, "min_replicas": 1,
                   "max_replicas": 20},
    "controllers": ["default_hpa", "proposed"],
}

# every field of every section set away from its default
FULL = {
    "schema": 1,
    "name": "full",
    "horizon": 900,
    "tick": 0.5,
    "seed": 7,
    "repeats": 2,
    "controllers": ["proposed", "tuned_hpa"],
    "workload": {"kind": "queue_driven", "base_rate": 8, "burst_amplitude": 3,
                 "burst_duration": 30, "burst_interval": 300,
                 "batch_fraction": 0.25, "noise_std": 0.1,
                 "ramps": [[100, 200, 40]]},
    "service": {"per_replica_rate": 12, "base_latency": 0.04,
                "latency_cap": 0.5},
    "cluster": {"initial_nodes": 3, "node_capacity": 6, "max_nodes": 12,
                "pod_start_delay": 10, "node_provision_delay": 45,
                "node_idle_timeout": 400},
    "controller": {"min_replicas": 2, "max_replicas": 40,
                   "control_interval": 10, "slo_latency_target": 0.25,
                   "tolerance_band": 0.05,
                   "max_step_up": 5, "max_step_down": 4,
                   "scale_up_stabilization": 15,
                   "scale_down_stabilization": 90,
                   "cooldown_after_scale_up": 30, "drain_window": 20,
                   "target_utilization": 0.8, "cost_per_replica_hour": 0.2,
                   "cost_per_node_hour": 1.5, "forecast_alpha": 0.4,
                   "forecast_beta": 0.2},
}

# (section, its integer fields); "document" is the top level
SECTIONS = [
    ("document", ["seed", "repeats"]),
    ("workload", []),
    ("service", []),
    ("cluster", ["initial_nodes", "node_capacity", "max_nodes"]),
    ("controller", ["min_replicas", "max_replicas", "max_step_up",
                    "max_step_down"]),
]


def with_value(section, key, value):
    """FULL with one key of one section set to `value`."""
    doc = copy.deepcopy(FULL)
    (doc if section == "document" else doc[section])[key] = value
    return doc


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestParseScenario:
    def test_minimal_document_applies_defaults(self):
        scn = parse_scenario(MINIMAL)
        assert scn.tick == 1.0
        assert scn.seed == 0
        assert scn.repeats == 1
        assert scn.controller.min_replicas == 1
        assert scn.cluster.node_capacity == 8
        assert len(scn.controllers) == 4

    def test_schema_field_required(self):
        doc = {k: v for k, v in MINIMAL.items() if k != "schema"}
        with pytest.raises(ConfigError, match="schema"):
            parse_scenario(doc)

    def test_unknown_key_rejected_by_name(self):
        doc = dict(MINIMAL, controller={"cpu_limit": 2})
        with pytest.raises(ConfigError, match="cpu_limit"):
            parse_scenario(doc)

    def test_interval_must_be_multiple_of_tick(self):
        doc = dict(MINIMAL, tick=4, controller={"control_interval": 15})
        with pytest.raises(ConfigError) as err:
            parse_scenario(doc)
        assert "15" in str(err.value) and "4" in str(err.value)

    def test_missing_required_field_named(self):
        with pytest.raises(ConfigError, match="horizon"):
            parse_scenario({"schema": 1, "name": "x",
                            "workload": {"kind": "bursty"}})

    def test_bad_workload_kind_named(self):
        doc = dict(MINIMAL, workload={"kind": "sawtooth"})
        with pytest.raises(ConfigError, match="sawtooth"):
            parse_scenario(doc)

    def test_bad_ramp_segment_rejected(self):
        doc = dict(MINIMAL, workload={"kind": "queue_driven",
                                      "ramps": [[100, 50, 10]]})
        with pytest.raises(ConfigError, match="ramps"):
            parse_scenario(doc)

    def test_type_errors_name_the_field(self):
        doc = dict(MINIMAL, seed="abc")
        with pytest.raises(ConfigError, match="seed"):
            parse_scenario(doc)

    def test_invalid_json_file(self, tmp_path, capsys):
        # `json.load` raises RecursionError on the nested document; both
        # commands must still exit 1 with one line and no traceback
        for text in ("{not json", "[" * 100_000 + "]" * 100_000):
            path = tmp_path / "bad.json"
            path.write_text(text)
            with pytest.raises(ConfigError):
                load_scenario(path)
            assert main(["validate", str(path)]) == EXIT_CONFIG
            assert main(["run", str(path), "--out", str(tmp_path / "out"),
                         "--quiet"]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 2 and "Traceback" not in err
        assert "nests too deeply" in err


class TestSections:
    @pytest.mark.parametrize("section,key", [
        *((section, "bogus") for section, _ in SECTIONS),
        # cluster settings are not controller settings
        ("controller", "max_nodes"),
        ("controller", "pod_start_delay"),
        # keys that once parsed but that no run read: the run's seed picks
        # the noise, and each baseline fixes its own CPU target
        ("workload", "seed"),
        ("controller", "cpu_target"),
    ])
    def test_unknown_key_names_the_section(self, section, key):
        with pytest.raises(ConfigError,
                           match=rf"^{section}: unknown key\(s\) '{key}'$"):
            parse_scenario(with_value(section, key, 1))

    @pytest.mark.parametrize("section,key", [
        (section, key) for section, ints in SECTIONS for key in ints])
    def test_integer_field_rejects_fraction(self, section, key):
        with pytest.raises(ConfigError,
                           match=rf"^{section}\.{key}: expected an integer"):
            parse_scenario(with_value(section, key, 2.5))

    @pytest.mark.parametrize("section,ints", SECTIONS,
                             ids=[section for section, _ in SECTIONS])
    def test_every_field_parses_to_its_value(self, section, ints):
        scn = parse_scenario(FULL)
        if section == "document":
            obj, doc = scn, {k: v for k, v in FULL.items() if k != "schema"}
        else:
            obj, doc = getattr(scn, section), FULL[section]
        assert set(doc) == {f.name for f in fields(obj)}
        for key, value in doc.items():
            if isinstance(value, dict):
                continue  # a nested section, checked under its own name
            if isinstance(value, list):
                value = tuple(tuple(v) if isinstance(v, list) else v
                              for v in value)
            assert getattr(obj, key) == value
            if key in ints:
                assert type(getattr(obj, key)) is int


class TestValidateCommand:
    def test_valid_scenario_exits_zero(self, tmp_path, capsys):
        path = write_scenario(tmp_path, MINIMAL)
        assert main(["validate", str(path)]) == EXIT_OK
        assert "tiny" in capsys.readouterr().out

    def test_invalid_scenario_exits_config_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path, dict(MINIMAL, schema=99))
        assert main(["validate", str(path)]) == EXIT_CONFIG
        assert "schema" in capsys.readouterr().err

    def test_missing_file_exits_config_error(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    @pytest.mark.parametrize("section,key,value", [
        ("workload", "noise_std", float("nan")),
        ("document", "horizon", float("inf")),
        ("controller", "slo_latency_target", float("-inf")),
        ("workload", "ramps", [[True, 5, 3]]),
        # integers past the float range
        *(pytest.param(section, key, 10**400, id=f"{section}-{key}-10**400")
          for section, key in [("document", "horizon"),
                               ("workload", "base_rate"),
                               ("cluster", "pod_start_delay"),
                               ("controller", "scale_down_stabilization")]),
    ])
    def test_non_finite_and_boolean_numbers_rejected(self, tmp_path, capsys,
                                                     section, key, value):
        path = write_scenario(tmp_path, with_value(section, key, value))
        assert main(["validate", str(path)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    # each of these passed `validate` and then crashed `run`, or ran silently
    @pytest.mark.parametrize("section,key,value", [
        ("cluster", "node_capacity", 0),
        ("cluster", "pod_start_delay", -5),
        ("workload", "burst_interval", 0),
        ("cluster", "node_capacity", -1),
        ("cluster", "initial_nodes", 20),       # above max_nodes 12
        ("workload", "burst_duration", 301),    # above burst_interval 300
        ("workload", "burst_duration", -10),
        ("controller", "slo_latency_target", 0),
        ("controller", "target_utilization", 0),
        ("controller", "drain_window", 0),
        ("controller", "max_step_up", -3),      # turned scale-ups into downs
        ("controller", "max_step_down", -3),
        ("controller", "tolerance_band", -0.1),
        ("controller", "cost_per_replica_hour", -0.1),  # a negative cost
        ("controller", "cost_per_node_hour", -1),
        ("controller", "forecast_alpha", 1.5),
        ("controller", "forecast_beta", -0.1),
        ("document", "horizon", 0.4),           # under one tick of 0.5
    ])
    def test_values_that_break_a_run_rejected(self, tmp_path, capsys,
                                              section, key, value):
        path = write_scenario(tmp_path, with_value(section, key, value))
        assert main(["validate", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        # top-level checks name the field alone
        assert (f"{key}:" if section == "document" else f"{section}: {key}") in err

    # seeds outside [0, 2**31) were folded onto another seed's stream
    @pytest.mark.parametrize("section,key,value", [
        ("document", "seed", -5),
        ("document", "seed", 2**31 - 1),        # FULL repeats twice
    ])
    def test_seed_outside_stream_range_rejected(self, tmp_path, capsys,
                                                section, key, value):
        path = write_scenario(tmp_path, with_value(section, key, value))
        assert main(["validate", str(path)]) == EXIT_CONFIG
        assert "seed" in capsys.readouterr().err

    def test_largest_seeds_accepted(self, tmp_path):
        doc = with_value("document", "seed", 2**31 - 2)
        assert main(["validate", str(write_scenario(tmp_path, doc))]) == EXIT_OK

    def test_non_utf8_file_exits_config_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(dict(QUICK, name="bé"),
                                    ensure_ascii=False).encode("latin-1"))
        assert main(["validate", str(path)]) == EXIT_CONFIG
        assert main(["run", str(path), "--out", str(tmp_path / "out"),
                     "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and "UTF-8" in err[0] and "UTF-8" in err[1]

    # both passed `validate`; the run's request counts summed to infinity
    # and it stopped on a broken conservation invariant, exit 2
    @pytest.mark.parametrize("base_rate,horizon", [(1e308, 60), (1e307, 600)])
    def test_arrivals_past_the_float_range_rejected(self, tmp_path, capsys,
                                                    base_rate, horizon):
        doc = bundled_doc("bursty")
        doc.update(horizon=horizon, controllers=["default_hpa", "proposed"])
        doc["workload"]["base_rate"] = base_rate
        path = write_scenario(tmp_path, doc)
        assert main(["validate", str(path)]) == EXIT_CONFIG
        assert main(["run", str(path), "--out", str(tmp_path / "out"),
                     "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all("workload:" in line for line in err)
        assert not (tmp_path / "out").exists()

    def test_fractional_sums_near_1e8_run(self, tmp_path, capsys):
        """A rate of 3.3 per replica and a 0.5 s tick leave the request sums
        fractional near 1e8; their rounding once read as a leak at
        t=153.5, exit 2."""
        doc = bundled_doc("bursty")
        doc.update(tick=0.5, controllers=["default_hpa", "proposed"])
        doc["workload"]["base_rate"] = 1e6
        doc["service"]["per_replica_rate"] = 3.3
        path = write_scenario(tmp_path, doc)
        assert main(["validate", str(path)]) == EXIT_OK
        assert main(["run", str(path), "--out", str(tmp_path / "out"),
                     "--quiet"]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_noise_past_the_float_range_beyond_the_horizon_runs(self,
                                                               tmp_path):
        """Arrivals are filled past the horizon; only ticks a run reads can
        fail it."""
        doc = bundled_doc("bursty")
        doc.update(horizon=1, controllers=["default_hpa", "proposed"])
        doc["workload"].update(base_rate=1e308 / 1.01, burst_amplitude=1,
                               noise_std=0.3)
        path = write_scenario(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path / "out"),
                     "--quiet"]) == EXIT_OK

    def test_noise_summed_past_the_float_range_is_named(self, tmp_path,
                                                        capsys):
        """Each tick's count is finite, but two noisy ticks sum past the
        float range: the run names the overflow, not a broken invariant."""
        doc = bundled_doc("bursty")
        doc.update(horizon=1.5, tick=0.5, seed=3,
                   controllers=["default_hpa", "proposed"])
        doc["controller"]["control_interval"] = 0.5
        doc["workload"].update(base_rate=1e308 / 1.01, burst_amplitude=1,
                               noise_std=0.3)
        path = write_scenario(tmp_path, doc)
        assert main(["validate", str(path)]) == EXIT_OK
        assert main(["run", str(path), "--out", str(tmp_path / "out"),
                     "--quiet"]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "arrivals summed to t=1.0 pass the float range" in err
        assert "invariant breach" not in err

    def test_queue_driven_without_ramps_runs_at_its_base_rate(self,
                                                              tmp_path):
        doc = dict(QUICK, workload={"kind": "queue_driven", "base_rate": 5})
        path = write_scenario(tmp_path, doc)
        assert main(["validate", str(path)]) == EXIT_OK
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out), "--quiet"]) \
            == EXIT_OK
        rows = (out / "quick/proposed/3/trace.jsonl").read_text().splitlines()
        assert {json.loads(row)["arrivals"] for row in rows} == {5}

    def test_ramps_rejected_off_queue_driven(self, tmp_path, capsys):
        doc = with_value("workload", "kind", "bursty")  # FULL keeps its ramps
        assert main(["validate", str(write_scenario(tmp_path, doc))]) \
            == EXIT_CONFIG
        assert "workload: ramps" in capsys.readouterr().err

    # each name wrote its runs outside --out, or into --out itself
    @pytest.mark.parametrize("name", [
        ".", "..", "../escaped", "a/b", "a\\b", "a\0b", "{tmp}/escaped"])
    def test_name_outside_the_output_directory_rejected(self, tmp_path,
                                                        capsys, name):
        work = tmp_path / "work"
        work.mkdir()
        path = write_scenario(work, dict(QUICK, name=name.format(tmp=work)))
        assert main(["validate", str(path)]) == EXIT_CONFIG
        assert main(["run", str(path), "--out", str(work / "out"),
                     "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all("name:" in line for line in err)
        assert list(tmp_path.rglob("*")) == [work, path]

    @pytest.mark.parametrize("kinds", [
        ["proposed"], ["proposed", "proposed"],
        ["proposed", "proposed", "default_hpa"],
    ])
    def test_fewer_than_two_controllers_rejected(self, tmp_path, capsys,
                                                 kinds):
        path = write_scenario(tmp_path, dict(QUICK, controllers=kinds))
        assert main(["validate", str(path)]) == EXIT_CONFIG
        assert "controllers" in capsys.readouterr().err

    # each message once echoed the whole value: the seed's line was 3 MB
    @pytest.mark.parametrize("field,edit", [
        ("document.seed", lambda doc: doc.update(seed=[1] * 10**6)),
        ("name:", lambda doc: doc.update(name="a/" + "b" * (10**6 - 2))),
        ("workload: unknown key(s)", lambda doc: doc["workload"].update(
            {f"key{i}": 1 for i in range(10**5)})),
        ("workload: unknown workload kind",
         lambda doc: doc["workload"].update(kind="k" * 10**6)),
        ("controllers: unknown kind",
         lambda doc: doc.update(controllers=["proposed", "k" * 10**6])),
        # a key is echoed with its escapes, so a newline splits no line
        ("workload: unknown key(s) 'a\\nb'",
         lambda doc: doc["workload"].update({"a\nb": 1})),
    ], ids=["seed", "name", "workload_keys", "workload_kind",
            "controller_kind", "workload_newline_key"])
    def test_long_rejected_value_is_cut_short(self, tmp_path, capsys, field,
                                              edit):
        doc = bundled_doc("bursty")
        edit(doc)
        path = write_scenario(tmp_path, doc)
        assert main(["validate", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and len(err.encode()) < 1000
        assert field in err and "Traceback" not in err


# Every numeric field of every section, and the edge values the property
# below sets them to. A huge count is 10**4 rather than 1e300: counts have no
# upper limit, and a run's cost grows with its node and replica counts.
NUMERIC_FIELDS = [
    (section, key) for section, _ in SECTIONS
    for key, value in (FULL if section == "document" else FULL[section]).items()
    if key != "schema" and isinstance(value, (int, float))]
INTEGER_FIELDS = {section: ints for section, ints in SECTIONS}
EDGE_VALUES = [0, -1, -0.5, 0.5, 1e-9, 2.5, "huge"]
MAX_TICKS = 200


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(["bursty", "mixed", "queue_driven"]),
       edits=st.lists(st.tuples(st.sampled_from(NUMERIC_FIELDS),
                                st.sampled_from(EDGE_VALUES)),
                      min_size=1, max_size=4))
# demand past the float range: 1e300 rps over 1e-9 rps per replica
@example(name="bursty", edits=[(("workload", "base_rate"), "huge"),
                               (("service", "per_replica_rate"), 1e-9)])
# request sums fractional and past 1e9, whose rounding is no leak
@example(name="bursty", edits=[(("workload", "base_rate"), 1e8),
                               (("service", "per_replica_rate"), 3.3)])
def test_accepted_document_runs_and_reports(name, edits):
    """A document that parses runs every controller and reports; any other
    document is refused with ConfigError."""
    doc = bundled_doc(name)
    doc["horizon"] = 120
    for (section, key), value in edits:
        if value == "huge":
            value = 10**4 if key in INTEGER_FIELDS[section] else 1e300
        (doc if section == "document" else doc.setdefault(section, {}))[key] = value
    try:
        scn = parse_scenario(doc)
    except ConfigError:
        return
    assume(scn.horizon <= MAX_TICKS * scn.tick)
    for kind in scn.controllers:
        trace = run(scn, kind)
        metrics.build_report(trace, scn.workload, scn.controller,
                             scn.service.per_replica_rate)


# A new value for every field a document sets, each chosen to change a 900 s
# noisy run of bundled `bursty`, or of the scenario FIELD_SCENARIO names.
# The fields come from the section dataclasses, so a field added later fails
# the test below until it has a value here.
NEW_VALUES = {
    "seed": 43,
    "workload.kind": "mixed",
    "workload.base_rate": 8,
    "workload.burst_amplitude": 6,
    "workload.burst_duration": 60,
    "workload.burst_interval": 400,
    "workload.batch_fraction": 0.5,
    "workload.noise_std": 0.3,
    "workload.ramps": [[300, 1200, 60]],
    "service.per_replica_rate": 8,
    "service.base_latency": 0.1,
    "service.latency_cap": 0.3,
    "cluster.initial_nodes": 1,
    "cluster.node_capacity": 4,
    "cluster.max_nodes": 3,
    "cluster.pod_start_delay": 30,
    "cluster.node_provision_delay": 120,
    "cluster.node_idle_timeout": 60,
    "controller.min_replicas": 2,
    "controller.max_replicas": 4,
    "controller.control_interval": 30,
    "controller.slo_latency_target": 0.1,
    "controller.tolerance_band": 0.3,
    "controller.max_step_up": 2,
    "controller.max_step_down": 1,
    "controller.scale_up_stabilization": 60,
    "controller.scale_down_stabilization": 30,
    "controller.cooldown_after_scale_up": 30,
    "controller.drain_window": 5,
    "controller.target_utilization": 0.4,
    "controller.cost_per_replica_hour": 0.2,
    "controller.cost_per_node_hour": 2,
    "controller.forecast_alpha": 0.9,
    "controller.forecast_beta": 0.9,
}
FIELD_SCENARIO = {"workload.batch_fraction": "mixed",
                  "workload.ramps": "queue_driven"}
DOCUMENT_FIELDS = ["seed"] + [
    f"{section}.{f.name}"
    for section, cls in (("workload", WorkloadSpec), ("service", ServiceModel),
                         ("cluster", ClusterParams),
                         ("controller", ControllerConfig))
    for f in fields(cls)]


def noisy_doc(name):
    doc = bundled_doc(name)
    doc["horizon"] = 900
    doc["workload"]["noise_std"] = 0.2
    return doc


def run_outputs(scn, kind):
    """Everything `slosim run` writes for one run, apart from the file names."""
    trace = run(scn, kind)
    return (trace.to_jsonl(), trace.decisions_to_jsonl(),
            metrics.build_report(trace, scn.workload, scn.controller,
                                 scn.service.per_replica_rate))


@functools.cache
def unperturbed_outputs(name, kind):
    return run_outputs(parse_scenario(noisy_doc(name)), kind)


@pytest.mark.parametrize("field", DOCUMENT_FIELDS)
def test_every_document_field_takes_effect(field):
    """A field no run reads would be config that validates and does nothing."""
    assert field in NEW_VALUES, f"no new value for {field}"
    name = FIELD_SCENARIO.get(field, "bursty")
    doc = noisy_doc(name)
    section, _, key = field.rpartition(".")
    (doc[section] if section else doc)[key] = NEW_VALUES[field]
    scn = parse_scenario(doc)
    assert any(run_outputs(scn, kind) != unperturbed_outputs(name, kind)
               for kind in scn.controllers), f"{field} changed no output"


class TestRunCommand:
    def test_output_layout_per_controller_and_seed(self, tmp_path):
        path = write_scenario(tmp_path, QUICK)
        out = tmp_path / "out"
        code = main(["run", str(path), "--out", str(out), "--repeats", "2",
                     "--quiet"])
        assert code == EXIT_OK
        for kind in ("default_hpa", "proposed"):
            for seed in ("3", "4"):
                run_dir = out / "quick" / kind / seed
                assert (run_dir / "trace.jsonl").exists()
                assert (run_dir / "decisions.jsonl").exists()
                report = json.loads((run_dir / "report.json").read_text())
                assert report["controller"] == kind
        assert (out / "quick" / "comparison.json").exists()
        assert (out / "quick" / "comparison.csv").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        path = write_scenario(tmp_path, QUICK)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", str(path), "--out", str(out_a), "--quiet"])
        main(["run", str(path), "--out", str(out_b), "--quiet"])
        rel = "quick/proposed/3/trace.jsonl"
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()

    def test_arrivals_identical_across_controllers(self, tmp_path):
        path = write_scenario(tmp_path, QUICK)
        out = tmp_path / "out"
        main(["run", str(path), "--out", str(out), "--quiet"])

        def arrivals(kind):
            lines = (out / "quick" / kind / "3" / "trace.jsonl").read_text()
            return [json.loads(l)["arrivals"] for l in lines.splitlines()]

        assert arrivals("default_hpa") == arrivals("proposed")

    def test_controller_order_changes_no_output(self, tmp_path, capsys):
        """Controllers of a seed share its arrivals; whichever runs first
        fills them."""
        doc = dict(QUICK, horizon=600)
        doc["workload"] = dict(QUICK["workload"], base_rate=40, noise_std=0.2)
        path = write_scenario(tmp_path, doc)
        outs = []
        for order in ("default_hpa,proposed", "proposed,default_hpa"):
            out = tmp_path / order
            assert main(["run", str(path), "--out", str(out), "--repeats",
                         "2", "--controllers", order]) == EXIT_OK
            outs.append(out)
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines if "violations" in line] \
            == ["quick/default_hpa", "quick/proposed",
                "quick/proposed", "quick/default_hpa"]
        for kind in ("default_hpa", "proposed"):
            for seed in ("3", "4"):
                for name in ("trace.jsonl", "decisions.jsonl", "report.json"):
                    rel = f"quick/{kind}/{seed}/{name}"
                    assert (outs[0] / rel).read_bytes() \
                        == (outs[1] / rel).read_bytes(), rel

    def test_controller_filter_flag(self, tmp_path):
        path = write_scenario(tmp_path, QUICK)
        out = tmp_path / "out"
        main(["run", str(path), "--out", str(out),
              "--controllers", "default_hpa,tuned_hpa", "--quiet"])
        assert (out / "quick" / "tuned_hpa").exists()
        assert not (out / "quick" / "proposed").exists()

    def test_single_controller_flag_exits_config_error(self, tmp_path,
                                                       capsys):
        path = write_scenario(tmp_path, QUICK)
        out = tmp_path / "out"
        code = main(["run", str(path), "--out", str(out),
                     "--controllers", "proposed", "--quiet"])
        assert code == EXIT_CONFIG
        assert "controllers" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_controllers_flag_exits_config_error(self, tmp_path,
                                                       capsys):
        path = write_scenario(tmp_path, QUICK)
        out = tmp_path / "out"
        code = main(["run", str(path), "--out", str(out),
                     "--controllers", "", "--quiet"])
        assert code == EXIT_CONFIG
        assert "controllers" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_range_seed_flag_exits_config_error(self, tmp_path):
        path = write_scenario(tmp_path, QUICK)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out), "--seed", "-1",
                     "--quiet"]) == EXIT_CONFIG
        assert not out.exists()

    def test_seed_and_repeats_flags_validated_together(self, tmp_path):
        """The last seed, run once, was refused while the document's two
        repeats were still in place."""
        path = write_scenario(tmp_path, dict(QUICK, repeats=2))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out), "--seed",
                     str(2**31 - 1), "--repeats", "1", "--quiet"]) == EXIT_OK
        assert (out / f"quick/proposed/{2**31 - 1}/trace.jsonl").exists()

    def test_missing_output_dir_created(self, tmp_path):
        path = write_scenario(tmp_path, QUICK)
        out = tmp_path / "deep" / "nested" / "out"
        assert main(["run", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
        assert out.exists()

    def test_bad_scenario_exits_config_error(self, tmp_path):
        path = write_scenario(tmp_path, dict(QUICK, horizon=-5))
        assert main(["run", str(path), "--quiet"]) == EXIT_CONFIG

    def test_unexpected_error_exits_runtime(self, tmp_path, capsys,
                                            monkeypatch):
        def broken_run(*args, **kwargs):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(cli, "run", broken_run)
        path = write_scenario(tmp_path, QUICK)
        code = main(["run", str(path), "--out", str(tmp_path / "out"),
                     "--quiet"])
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err == \
            "error: ZeroDivisionError: division by zero\n"

    def test_csv_header_in_comparison(self, tmp_path):
        path = write_scenario(tmp_path, QUICK)
        out = tmp_path / "out"
        main(["run", str(path), "--out", str(out), "--quiet"])
        text = (out / "quick" / "comparison.csv").read_text()
        assert text.startswith("controller,slo_count,slo_duration_s,ttscale_s,")


class TestVersionCommand:
    def test_prints_version(self, capsys):
        assert main(["version"]) == EXIT_OK
        out = capsys.readouterr().out.strip()
        assert out and out[0].isdigit()
