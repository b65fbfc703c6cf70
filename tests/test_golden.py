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
        "6e29d4ffc92aada608f2ac44110467dac72696c36b8417377549fbc690c5744c"),
    ("bursty", "tuned_hpa"): (
        "5b08e954aa1640c4860a8886906edbeb644d45f9a78b98e11b8cbdc18b33658a",
        "a4786c5127446f49a5d0e404c28c6edb21da8ce7d596f382db729ccc7d29a7d2"),
    ("bursty", "hpa_vpa"): (
        "004fc109e8f677ace5903f82852d7f462ae36ea5987510ebc76336163b60bc81",
        "ade1f935d4ef64449c7639e6abe65e41f86a7c974de4162c9d413bba8a65435a"),
    ("bursty", "proposed"): (
        "4b3ab92936b09fa475b38cea3454679071019027b852ae6ca91f45fcf718e48b",
        "ef854e091c3a58400256349d71d4db71be2fe606658046914012b6b23939f4dd"),
    ("mixed", "default_hpa"): (
        "2ff8187409fbe2ae81e3aa72e1e522fe928a6fb62ba9e03003ff908b02e2a04b",
        "5753dce3bd914ae37a2134343851fee7dc271a5c96e3e3408acc1107b6fdd153"),
    ("mixed", "tuned_hpa"): (
        "1368b2ae2dfe26a7ec031c76e4192e09a79f073002ea560c02106657a8e83b25",
        "c55b0be4b949f60a5b51db8c4c8e9ea15be7d40940b95a9af92f03e183132206"),
    ("mixed", "hpa_vpa"): (
        "5a4f7abb2aa211841e43b29d401b4266a7a8c25b5a552b8446b67986545e3a85",
        "588b2de59ccb58f7279231e807b67a70ee9a74864b059564dd6d07b5c1236ebb"),
    ("mixed", "proposed"): (
        "440c7186fd4097a27d61b7dfd25e27d1dccf92d08adc067afa68915e85590e39",
        "dbd6794b8728c210296ce5b7038186607b4371890f30c5a555f2b92eb98ec97c"),
    ("queue_driven", "default_hpa"): (
        "f41466eb79d88ff153b810c283a020ddc54aa7d2b7ee83160cdba1a519211a7f",
        "ee68dcd3932d46ff19763d0ff89cf9153a55eef6572200b0145018496b59a305"),
    ("queue_driven", "tuned_hpa"): (
        "f75903c597e93fab68e78a665325b3280b3d27125738dba632f81003a7c53e85",
        "884e2801d83fc5ce4ba7d0d43baf7f8c282d09610b1a7543e64b97d90a28d96b"),
    ("queue_driven", "hpa_vpa"): (
        "783fd16bd00b38840eb57e99b7252dad9680ab3cd935ebc963d5b32f76008adc",
        "f12e7af179cf2f8dcb88aafd6cc245c0a7d811b365c95d318ddb3d4204aa60a8"),
    ("queue_driven", "proposed"): (
        "7eae67e2387e2eb5dd90acb66cb8048ad81e90a79884a766b9fe9531b9a0d0db",
        "c42ad5c87f7176e23eae7572b2da1953ae3494c7cc176305ca0474e5c6d7fd05"),
}


# bundled `bursty` over 6 h with noise_std 0.3 and seed 1: the VPA history
# grows to 1,440 samples with repeats, and 36 bursts end inside the horizon
NOISY_GOLDEN = {
    "hpa_vpa": (
        "fbb7920fd6f95e8ca7e68367cb8e8f61bc9f9e9588c7fcadd787e5ebdb797e6e",
        "d7a971cf49b27ded6abbb1ff6130806fc51eab60e2d15bc3840be1db33585c2e"),
    "proposed": (
        "94a21c9aa44edff8df5778a5660f15779aa9002cc44c44e5ebe9b8cf1dddeab2",
        "690af1b957fa3939e2053d433007cc58d6dd23b3bdbb3bb39166987ef92bb008"),
}


# bundled `bursty` with load and fleet limits x100, as the fleet_x100
# benchmark runs it: 200 to 432 active nodes, and `default_hpa` retires 32
# of them at once, so first-fit placement and retirement are pinned at the
# scale the bundled runs never reach (they stay under 20 nodes). `tuned_hpa`
# fills part of a run of emptied nodes 91 times and part of a run of fresh
# nodes 38 times, and once retires several fresh nodes in one step
FLEET_FACTOR = 100
FLEET_GOLDEN = {
    "default_hpa": (
        "9006e8b65966ef31071b7bdca63ed04dd84cc908eaf73b2af0014c936c9f74ab",
        "7cd24412317f22450d3c0c255ae155a415ecf35202d8267f37764cc19fcc3274"),
    "tuned_hpa": (
        "2ab9e481619437fcb450c6b7c343d2369b7cc5f1a380137073789688a5f3c25e",
        "397020a13e1715d15ad66d752753c7c408622a5118e583e96645898e8f449e0e"),
    "proposed": (
        "820e70947afa5ac1ffd7cb3d4d98086770a93ff4507cd32ae390074abded9061",
        "3d20322e1763f722bdacafd9733709eb55e9725933a707e7782a347a384411e5"),
}


# bundled `bursty` over 15 min at half-second ticks, starting without nodes
# and with an integer latency cap: row 0 has no ready replica, so its
# latency is the cap itself and is written as the integer 5
EDGE_GOLDEN = {
    "default_hpa": (
        "8cedd534759e8b96be64def6b70b3a8dbf523a1b0fbd5e4d78cee5098a575fda",
        "368ba6c585ae0bed5e5b25dd8d59346c98084bf7d3f8d1b2c252df53877be3fa"),
    "tuned_hpa": (
        "3896b10b9d451de020c7af3e73b0bd9faec3f0a704ba5a920deb7408bb9be7da",
        "0fb25a23eff999b07054612f64fcd27afa285a69b75a5c7fbc32f454ef3d83e5"),
    "hpa_vpa": (
        "e74f5942ea84282f2230fc220003ed85b908dc50e816fc3a6ef34d8741cdd941",
        "4fef7ffa6faeb451e9925ee50350f439ae4b1669f0846ec3aeb8204bf3fba236"),
    "proposed": (
        "1268d41cdff458ba188b4248993d146d80c8d08d0616337ddbd54729ae40ebb1",
        "2bd8f6140008f9ba63513f1b791d2b327f889db70d1b3aea95dd4540d12c34c6"),
}


# bundled `bursty` with six initial nodes and a 30 min idle timeout, seed 1:
# nodes that held pods and nodes that never did stand idle side by side when
# a burst fills them, so the fill order between the two kinds is pinned here
# (the runs above never fill a node while both kinds are idle)
CHURN_GOLDEN = {
    "default_hpa": (
        "942b82f104ea8dbb22f4905ac17683ed981b8473ecd5696076d4e90c0f6427ed",
        "7135693b991f704f3e4f9fb49653177a3b18437a40c2c451830c71818854fde7"),
    "tuned_hpa": (
        "b80e1cee45cb1589c498ee0802ad2543cce7cb5fe7090b5a8f3baedee942cb2c",
        "fc96648d3f35fadde8f8df0a68e136523aab46d7a36910ef01cff00aa505f912"),
    "proposed": (
        "0c78af5608fc19c49f9957640fb6a1078eab00e4b351d8d0d81bb06c99fa2c85",
        "9094dab11d6fcd88bde6992cfa0b043e59127358ecc838e2103111bd62640d8c"),
}


# bundled `bursty` with two-slot nodes, a 5 s idle timeout, a 5 s provision
# delay and noise_std 0.3, seed 3: nodes empty and retire within seconds, so
# several nodes that emptied at one time retire in one step (5, 7 and 16
# times for the three controllers)
RETIRE_GOLDEN = {
    "default_hpa": (
        "75eaddf4ba0422effc06e9a134e5a482955a7746a82bbfe1f69224881e4beb39",
        "16f78a26adc6e2a15b1a82232e6405bb0892213a03f72704f2370b55baec8a2d"),
    "tuned_hpa": (
        "887db58e3bec9f93de06ef8640b19c06a1d3da550bcbc22b4aae959e9485b7d2",
        "041df20e79114d2ac4a3b45946c9bcb36421dde086a821939e177102870e6a77"),
    "proposed": (
        "64fb736d83a3d5b213ee561fa1047cb185c9aafae2f6c099bd84e07c969e77ec",
        "eab371f9aeb6eb87647e85eb1f021a1c560180e484c45b045295499eaef83a72"),
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


@pytest.mark.parametrize("controller", sorted(CHURN_GOLDEN))
def test_mixed_idle_fill_run_matches_golden_digests(controller):
    doc = json.loads((resources.files("slosim") / "scenarios"
                      / "bursty.json").read_text())
    doc["seed"] = 1
    doc["cluster"]["initial_nodes"] = 6
    doc["cluster"]["node_idle_timeout"] = 1800
    trace = run(parse_scenario(doc), controller)
    trace_sha, decisions_sha = CHURN_GOLDEN[controller]
    assert _sha256(trace.to_jsonl()) == trace_sha
    assert _sha256(trace.decisions_to_jsonl()) == decisions_sha


@pytest.mark.parametrize("controller", sorted(RETIRE_GOLDEN))
def test_fast_retirement_run_matches_golden_digests(controller):
    doc = json.loads((resources.files("slosim") / "scenarios"
                      / "bursty.json").read_text())
    doc["seed"] = 3
    doc["cluster"]["node_capacity"] = 2
    doc["cluster"]["node_idle_timeout"] = 5
    doc["cluster"]["node_provision_delay"] = 5
    doc["workload"]["noise_std"] = 0.3
    trace = run(parse_scenario(doc), controller)
    trace_sha, decisions_sha = RETIRE_GOLDEN[controller]
    assert _sha256(trace.to_jsonl()) == trace_sha
    assert _sha256(trace.decisions_to_jsonl()) == decisions_sha
