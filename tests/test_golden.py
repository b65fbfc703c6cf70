"""Golden digests: bundled runs must keep their exact output bytes.

A refactor that changes no behaviour leaves every digest unchanged. A change
that alters outputs on purpose updates the digests here and says why in
CHANGES.md.
"""

import dataclasses
import hashlib
import json
from importlib import resources

import pytest

from slosim.runner import run
from slosim.scenario import bundled_scenario, parse_scenario

# (scenario, controller) -> (sha256 of trace.jsonl, sha256 of decisions.jsonl)
GOLDEN = {
    ("bursty", "default_hpa"): (
        "2cdabdfe7ccc4161bdb2a8b8b919059ab73c4cedec888763f20f5b228de21c74",
        "a38094fe60a9a27a8f478ed757cd12af29335d280cb7c3e74155edfbaaee754d"),
    ("bursty", "tuned_hpa"): (
        "5b08e954aa1640c4860a8886906edbeb644d45f9a78b98e11b8cbdc18b33658a",
        "84e01fb6421331565aef5fa0bd20c3b4a6f815411d9beeaf28a50285d264db20"),
    ("bursty", "hpa_vpa"): (
        "004fc109e8f677ace5903f82852d7f462ae36ea5987510ebc76336163b60bc81",
        "d72132d83af857514b04c873d9324f9a17553bcb921005000d8f7b09363bc3eb"),
    ("bursty", "proposed"): (
        "4b3ab92936b09fa475b38cea3454679071019027b852ae6ca91f45fcf718e48b",
        "5e9e978f371f53bee504357a0fd7cd75d36b940b82fd3cb30d66ecd1ecb97eff"),
    ("mixed", "default_hpa"): (
        "2ff8187409fbe2ae81e3aa72e1e522fe928a6fb62ba9e03003ff908b02e2a04b",
        "6bd8d9d3513822253f33ac2f6e83a4d808fb622ec9cb988af3725ac580c83501"),
    ("mixed", "tuned_hpa"): (
        "1368b2ae2dfe26a7ec031c76e4192e09a79f073002ea560c02106657a8e83b25",
        "72058818f3a4911509b25862229e8be831e83167551fd9b113b3e02f23c1b707"),
    ("mixed", "hpa_vpa"): (
        "5a4f7abb2aa211841e43b29d401b4266a7a8c25b5a552b8446b67986545e3a85",
        "f9c05c547a68be7b6929ec31638eca6c3fbf5a049c983a7b800d808035ff1a98"),
    ("mixed", "proposed"): (
        "440c7186fd4097a27d61b7dfd25e27d1dccf92d08adc067afa68915e85590e39",
        "b369bb55bf7799c58c30e46b454b459229e9b7222349e764e1fa4279bebd7f39"),
    ("queue_driven", "default_hpa"): (
        "f41466eb79d88ff153b810c283a020ddc54aa7d2b7ee83160cdba1a519211a7f",
        "82ae015edc5847f27bd5fd2b3b13cc19e9304d8ac6047e7986d9a552530f2fc7"),
    ("queue_driven", "tuned_hpa"): (
        "f75903c597e93fab68e78a665325b3280b3d27125738dba632f81003a7c53e85",
        "688b3adba890e7954e9aeb4c7b77ab675c39c4cd30b12b1001c6b3c11aceb73f"),
    ("queue_driven", "hpa_vpa"): (
        "783fd16bd00b38840eb57e99b7252dad9680ab3cd935ebc963d5b32f76008adc",
        "3378d5decca65424c053c04b12e872d3250ac7ac9a55f98f30eaadbfd6a7a918"),
    ("queue_driven", "proposed"): (
        "7eae67e2387e2eb5dd90acb66cb8048ad81e90a79884a766b9fe9531b9a0d0db",
        "4450c366b7279173aef39913681bc11a8aa75c97158b256514354543ca049ddb"),
}


# bundled `bursty` over 6 h with noise_std 0.3 and seed 1: the VPA history
# grows to 1,440 samples with repeats, and 36 bursts end inside the horizon
NOISY_GOLDEN = {
    "hpa_vpa": (
        "fbb7920fd6f95e8ca7e68367cb8e8f61bc9f9e9588c7fcadd787e5ebdb797e6e",
        "5a491c6cbffae7a8a8bc382c134a2aa71ef6d2d336e31b63270f442783284f8c"),
    "proposed": (
        "94a21c9aa44edff8df5778a5660f15779aa9002cc44c44e5ebe9b8cf1dddeab2",
        "4e56c7852324807bd3480b355db68abaaa3d704ad439da0d30100ad7b516d35d"),
}


# bundled `bursty` with load and fleet limits x100, as the fleet_x100
# benchmark runs it: 200 to 432 active nodes, and `default_hpa` retires 32
# of them at once, so first-fit placement and retirement are pinned at the
# scale the bundled runs never reach (they stay under 20 nodes)
FLEET_FACTOR = 100
FLEET_GOLDEN = {
    "default_hpa": (
        "9006e8b65966ef31071b7bdca63ed04dd84cc908eaf73b2af0014c936c9f74ab",
        "1763e70db335ab2bbd8efeb743228095d3515285ac6e37822dbcfa5e87f3ab5e"),
    "proposed": (
        "820e70947afa5ac1ffd7cb3d4d98086770a93ff4507cd32ae390074abded9061",
        "61fe21af2cdbb889629feffb21567bf3db4e00921b6fef5bba0cb9b05cec1c99"),
}


# bundled `bursty` over 15 min at half-second ticks, starting without nodes
# and with an integer latency cap: row 0 has no ready replica, so its
# latency is the cap itself and is written as the integer 5
EDGE_GOLDEN = {
    "default_hpa": (
        "8cedd534759e8b96be64def6b70b3a8dbf523a1b0fbd5e4d78cee5098a575fda",
        "cd9c434d8c79feb78495549f914801c74ba1c56d2b4ccbf82b5ea4d3ef1b3ff0"),
    "tuned_hpa": (
        "3896b10b9d451de020c7af3e73b0bd9faec3f0a704ba5a920deb7408bb9be7da",
        "47ca42006f13a77401ad99f9fafaed76bf39239a0a46a7608394be5f08ded03a"),
    "hpa_vpa": (
        "e74f5942ea84282f2230fc220003ed85b908dc50e816fc3a6ef34d8741cdd941",
        "88f800a02dd9230d400edba25d497d9b344c343bc24d4fac8fa2cc9d14c89bad"),
    "proposed": (
        "1268d41cdff458ba188b4248993d146d80c8d08d0616337ddbd54729ae40ebb1",
        "e6dacf61f8a30d6edde37f740b1566c6c4c996726cf9e2bddb92eb6b8b25d403"),
}


def _scaled(obj, factor: int, *names: str):
    return dataclasses.replace(
        obj, **{name: getattr(obj, name) * factor for name in names})


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_bundled_run_is_pinned(all_runs):
    assert set(all_runs) == set(GOLDEN)


@pytest.mark.parametrize("scenario,controller", sorted(GOLDEN))
def test_output_bytes_match_golden_digests(all_runs, scenario, controller):
    trace = all_runs[(scenario, controller)]
    trace_sha, decisions_sha = GOLDEN[(scenario, controller)]
    assert _sha256(trace.to_jsonl()) == trace_sha
    assert _sha256(trace.decisions_to_jsonl()) == decisions_sha


@pytest.mark.parametrize("controller", sorted(NOISY_GOLDEN))
def test_long_noisy_run_matches_golden_digests(controller):
    scn = bundled_scenario("bursty")
    scn = dataclasses.replace(
        scn, horizon=6 * 3600.0, seed=1,
        workload=dataclasses.replace(scn.workload, noise_std=0.3))
    trace = run(scn, controller)
    trace_sha, decisions_sha = NOISY_GOLDEN[controller]
    assert _sha256(trace.to_jsonl()) == trace_sha
    assert _sha256(trace.decisions_to_jsonl()) == decisions_sha


@pytest.mark.parametrize("controller", sorted(FLEET_GOLDEN))
def test_fleet_scale_run_matches_golden_digests(controller):
    scn = bundled_scenario("bursty")
    scn = dataclasses.replace(
        scn,
        workload=_scaled(scn.workload, FLEET_FACTOR, "base_rate"),
        cluster=_scaled(scn.cluster, FLEET_FACTOR, "initial_nodes",
                        "max_nodes"),
        controller=_scaled(scn.controller, FLEET_FACTOR, "max_replicas",
                           "max_step_up", "max_step_down"))
    assert scn.horizon == 3600.0
    trace = run(scn, controller)
    trace_sha, decisions_sha = FLEET_GOLDEN[controller]
    assert _sha256(trace.to_jsonl()) == trace_sha
    assert _sha256(trace.decisions_to_jsonl()) == decisions_sha


@pytest.mark.parametrize("controller", sorted(EDGE_GOLDEN))
def test_integer_latency_cap_half_second_run_matches_golden_digests(controller):
    doc = json.loads((resources.files("slosim") / "scenarios"
                      / "bursty.json").read_text())
    doc["horizon"] = 900
    doc["tick"] = 0.5
    doc["service"]["latency_cap"] = 5
    doc["cluster"]["initial_nodes"] = 0
    trace = run(parse_scenario(doc), controller)
    text = trace.to_jsonl()
    assert text.startswith('{"t": 0.0, "arrivals": 2, "ready": 0, ')
    assert '"latency": 5, ' in text.partition("\n")[0]
    trace_sha, decisions_sha = EDGE_GOLDEN[controller]
    assert _sha256(text) == trace_sha
    assert _sha256(trace.decisions_to_jsonl()) == decisions_sha
