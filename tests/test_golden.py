"""Golden digests: known runs must keep their exact output bytes.

A refactor that changes no behaviour leaves every digest unchanged. A change
that alters outputs on purpose updates the digests here and says why in
CHANGES.md.

Each case below builds one scenario, and `GOLDEN` holds, for every
(case, controller) run of it, the sha256 of its trace.jsonl and of its
decisions.jsonl.
"""

import dataclasses
import hashlib

import pytest

from slosim import workload
from slosim.runner import run
from slosim.scenario import parse_scenario

from helpers import arrivals_oracle, bundled_doc

BUNDLED = ("bursty", "mixed", "queue_driven")


def _scaled(obj, factor: int, *names: str):
    return dataclasses.replace(
        obj, **{name: getattr(obj, name) * factor for name in names})


def _noisy_6h():
    # bundled `bursty` over 6 h with noise_std 0.3 and seed 1: the VPA history
    # grows to 1,440 samples with repeats, and 36 bursts end inside the horizon
    scn = parse_scenario(bundled_doc("bursty"))
    return dataclasses.replace(
        scn, horizon=6 * 3600.0, seed=1,
        workload=dataclasses.replace(scn.workload, noise_std=0.3))


FLEET_FACTOR = 100


def _fleet_x100():
    # bundled `bursty` with load and fleet limits x100, as the fleet_x100
    # benchmark runs it: 200 to 432 active nodes, and `default_hpa` retires 32
    # of them at once, so first-fit placement and retirement are pinned at the
    # scale the bundled runs never reach (they stay under 20 nodes).
    # `tuned_hpa` fills part of a run of emptied nodes 91 times and part of a
    # run of fresh nodes 38 times, and once retires several fresh nodes in one
    # step
    scn = parse_scenario(bundled_doc("bursty"))
    scn = dataclasses.replace(
        scn,
        workload=_scaled(scn.workload, FLEET_FACTOR, "base_rate"),
        cluster=_scaled(scn.cluster, FLEET_FACTOR, "initial_nodes",
                        "max_nodes"),
        controller=_scaled(scn.controller, FLEET_FACTOR, "max_replicas",
                           "max_step_up", "max_step_down"))
    assert scn.horizon == 3600.0
    return scn


def _half_second_edge():
    # bundled `bursty` over 15 min at half-second ticks, starting without
    # nodes and with an integer latency cap: row 0 has no ready replica, so
    # its latency is the cap itself and is written as the integer 5
    doc = bundled_doc("bursty")
    doc["horizon"] = 900
    doc["tick"] = 0.5
    doc["service"]["latency_cap"] = 5
    doc["cluster"]["initial_nodes"] = 0
    return parse_scenario(doc)


def _mixed_idle_fill():
    # bundled `bursty` with six initial nodes and a 30 min idle timeout, seed
    # 1: nodes that held pods and nodes that never did stand idle side by side
    # when a burst fills them, so the fill order between the two kinds is
    # pinned here (the other runs never fill a node while both kinds are idle)
    doc = bundled_doc("bursty")
    doc["seed"] = 1
    doc["cluster"]["initial_nodes"] = 6
    doc["cluster"]["node_idle_timeout"] = 1800
    return parse_scenario(doc)


def _fast_retirement():
    # bundled `bursty` with two-slot nodes, a 5 s idle timeout, a 5 s
    # provision delay and noise_std 0.3, seed 3: nodes empty and retire within
    # seconds, so several nodes that emptied at one time retire in one step
    # (5, 6 and 18 times for the three controllers)
    doc = bundled_doc("bursty")
    doc["seed"] = 3
    doc["cluster"]["node_capacity"] = 2
    doc["cluster"]["node_idle_timeout"] = 5
    doc["cluster"]["node_provision_delay"] = 5
    doc["workload"]["noise_std"] = 0.3
    return parse_scenario(doc)


def _matrix_case(name: str, noise_std: float, tick: float):
    # a bundled scenario at seed 3 with its noise and tick changed; the seed
    # reaches only noisy arrivals, so the noiseless tick-1 runs are the
    # bundled runs and have no case of their own
    def build():
        doc = bundled_doc(name)
        doc["seed"] = 3
        doc["workload"]["noise_std"] = noise_std
        doc["tick"] = tick
        return parse_scenario(doc)
    return build


CASES = {
    **{name: lambda name=name: parse_scenario(bundled_doc(name))
       for name in BUNDLED},
    "noisy_6h": _noisy_6h,
    "fleet_x100": _fleet_x100,
    "half_second_edge": _half_second_edge,
    "mixed_idle_fill": _mixed_idle_fill,
    "fast_retirement": _fast_retirement,
    # the byte-identity matrix: the bundled scenarios x noise_std {0, 0.3}
    # x tick {1, 0.5, 2.5} x their four controllers
    **{f"{name}_noise{noise_std}_tick{tick}": _matrix_case(name, noise_std,
                                                           tick)
       for name in BUNDLED for noise_std in (0, 0.3) for tick in (1, 0.5, 2.5)
       if (noise_std, tick) != (0, 1)},
}

# (case, controller) -> (sha256 of trace.jsonl, sha256 of decisions.jsonl)
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

    ("noisy_6h", "hpa_vpa"): (
        "f6a2ea70048238cac728714b393722b24776745a1df375d2e3623c6fbe5fb960",
        "be313c6775f48355985d6d41a9bbaade2991cc3cfa05b320a5d9f5beb77a4ca6"),
    ("noisy_6h", "proposed"): (
        "d929e3b89729bf1f5921d900c07eaf393397ef4a4bef3b42610794c9c6c266cc",
        "ed8a17c70d8b05a363f897b94bf7988364ced3acac5f60406d7d154c60e2aa58"),

    ("fleet_x100", "default_hpa"): (
        "9006e8b65966ef31071b7bdca63ed04dd84cc908eaf73b2af0014c936c9f74ab",
        "7cd24412317f22450d3c0c255ae155a415ecf35202d8267f37764cc19fcc3274"),
    ("fleet_x100", "tuned_hpa"): (
        "2ab9e481619437fcb450c6b7c343d2369b7cc5f1a380137073789688a5f3c25e",
        "397020a13e1715d15ad66d752753c7c408622a5118e583e96645898e8f449e0e"),
    ("fleet_x100", "proposed"): (
        "820e70947afa5ac1ffd7cb3d4d98086770a93ff4507cd32ae390074abded9061",
        "3d20322e1763f722bdacafd9733709eb55e9725933a707e7782a347a384411e5"),

    ("half_second_edge", "default_hpa"): (
        "8cedd534759e8b96be64def6b70b3a8dbf523a1b0fbd5e4d78cee5098a575fda",
        "368ba6c585ae0bed5e5b25dd8d59346c98084bf7d3f8d1b2c252df53877be3fa"),
    ("half_second_edge", "tuned_hpa"): (
        "3896b10b9d451de020c7af3e73b0bd9faec3f0a704ba5a920deb7408bb9be7da",
        "0fb25a23eff999b07054612f64fcd27afa285a69b75a5c7fbc32f454ef3d83e5"),
    ("half_second_edge", "hpa_vpa"): (
        "e74f5942ea84282f2230fc220003ed85b908dc50e816fc3a6ef34d8741cdd941",
        "4fef7ffa6faeb451e9925ee50350f439ae4b1669f0846ec3aeb8204bf3fba236"),
    ("half_second_edge", "proposed"): (
        "1268d41cdff458ba188b4248993d146d80c8d08d0616337ddbd54729ae40ebb1",
        "2bd8f6140008f9ba63513f1b791d2b327f889db70d1b3aea95dd4540d12c34c6"),

    ("mixed_idle_fill", "default_hpa"): (
        "942b82f104ea8dbb22f4905ac17683ed981b8473ecd5696076d4e90c0f6427ed",
        "7135693b991f704f3e4f9fb49653177a3b18437a40c2c451830c71818854fde7"),
    ("mixed_idle_fill", "tuned_hpa"): (
        "b80e1cee45cb1589c498ee0802ad2543cce7cb5fe7090b5a8f3baedee942cb2c",
        "fc96648d3f35fadde8f8df0a68e136523aab46d7a36910ef01cff00aa505f912"),
    ("mixed_idle_fill", "proposed"): (
        "0c78af5608fc19c49f9957640fb6a1078eab00e4b351d8d0d81bb06c99fa2c85",
        "9094dab11d6fcd88bde6992cfa0b043e59127358ecc838e2103111bd62640d8c"),

    ("fast_retirement", "default_hpa"): (
        "c1e69dc25b4ee987454de9cb90f94f11f0931481a5868b5db396ec2c7ed5c414",
        "feada3b9113d1001936ab9524a510d5f86cfad50b44490784cf3545549601426"),
    ("fast_retirement", "tuned_hpa"): (
        "2aeccae76ea327a5a8e12a82976b0139a30396a78119b35964ac6c71acdeaeed",
        "bfa945ba22bc592210526f13fe3e3bef4dd25af5c2a2bf91da382eca86b3524d"),
    ("fast_retirement", "proposed"): (
        "68ca91f03cf3c4d3829ed1a635b5ecceb444c59394b1523a948d64900b278d16",
        "c8b1362edef0d722a6d5e09799ddbf39b0dcddf5668fb6e23388a8c6c42c6757"),

    ("bursty_noise0_tick0.5", "default_hpa"): (
        "31d87759c4610494d8d763d0d37f2719ef5cc8598332dfa7e7d075b3266499d9",
        "1bd73f1ce8ba806b68d2a9604f25b1d8268d0ad69c1874b7c792ea9f3b0851ca"),
    ("bursty_noise0_tick0.5", "tuned_hpa"): (
        "c70da22c87a67a191ba6d5c033892855a4e731156960b1876e6fb7ba42a19df6",
        "6491112447367738bccb5f548baa538a6dc16d9952c65f4b66c8fd4aca4c349f"),
    ("bursty_noise0_tick0.5", "hpa_vpa"): (
        "8df166185e2f995677be34c0884c8fa9a226e69c7ec5c4f68607c77199778519",
        "cfb5ac82f4728ca15ec95258b02205c651b84f5128f947f6c85fd377d45cc2cc"),
    ("bursty_noise0_tick0.5", "proposed"): (
        "34f6662cc0128aefa80e75e2dfd128798e096896eaa78bcdefcbc139af87aefc",
        "01adef4a05be2ec95a1db9960d149e12ca762e307a879b8c11d54cda434fc649"),

    ("bursty_noise0_tick2.5", "default_hpa"): (
        "2675d182c58741cf06d8d2d5cede6d2e69309128f2869f960240ead4736fe4e2",
        "41ea479b5ab9368694649c660ea2dc7f86e0013aeff0ee4937437c71bfcb754a"),
    ("bursty_noise0_tick2.5", "tuned_hpa"): (
        "36b1086608364bb2fddfb804d92c641c601a87a658d2df1766e96bea09e51a88",
        "7c73c2fe29fc3461b09d2a9d5f16fcefe75df3e1426a7f5a41d5d05783936dc8"),
    ("bursty_noise0_tick2.5", "hpa_vpa"): (
        "557174b5632cc35117646f3d1d0814cb275a237e7863b92e2147036679185efe",
        "e88b09dc7e07e7dde5b61a727d159aab01af871528633a634cb8f4fa5728cf8d"),
    ("bursty_noise0_tick2.5", "proposed"): (
        "7597382e5ae4aed1e09be86d1ee78bc79ae65a2b0af8d1674f66756ab3324a38",
        "182b0a53e3e37ebd2712b5e8342d667c547900bd5e0719a6dd0fe9e758289390"),

    ("bursty_noise0.3_tick1", "default_hpa"): (
        "94b7859ea24efe9f081bf9d19d5d49bd63a3686f8a8024b958311ea404ffe301",
        "eb35d8bd12be7d3ca1d7764634c971cb82fed3e90790ce218ff6ce5e57a43f26"),
    ("bursty_noise0.3_tick1", "tuned_hpa"): (
        "ef4289f5352ad3fc9326cb022a0317b170bc82bb11c509ff408891372279c089",
        "1c061f4a45a91a2f16119a2c9e92d1c7016af5c0060d882b9b8574eec841c0b7"),
    ("bursty_noise0.3_tick1", "hpa_vpa"): (
        "8c9722663c704d74d452cd95e3667f16c41898a9a7732fdd5de20631a675f1da",
        "f8464ae1da454b09436f5ff871255bad7f30d3542f2f7e6f25dcdc55b55dc473"),
    ("bursty_noise0.3_tick1", "proposed"): (
        "3ea1eaff4098a4c697748c09e7868cf47d5dbef3c683039077ede3a7374a8c19",
        "1335c16c59a7652deeb0a96e90752f46cd8428d31e42b0d5711204b959e6e1c4"),

    ("bursty_noise0.3_tick0.5", "default_hpa"): (
        "40e75997d0fb1635f40d4383201e3e6231ee44d77817cead9434af1ef6110b63",
        "62d3204466f93bb8378ed570a675120919c97707d6d923bd4df2d9e9bc0110cd"),
    ("bursty_noise0.3_tick0.5", "tuned_hpa"): (
        "ee0ecd4b45fa1b8bb2c1ca24d9bf3d977bc001498c0c29d8cb9fefcee8cf9068",
        "658ff6d17024d7b99ca3276599ee7b42cbf158e43ad7a0755caa96cda209e5e1"),
    ("bursty_noise0.3_tick0.5", "hpa_vpa"): (
        "bdff16f73377edb17f0155614233bd5ba9d011b272a056539fc0a7a6ba4c4067",
        "b81ed45961e35bbb8b61c73ffb0cd76ad3ef39752f007176d6fd160127c1e519"),
    ("bursty_noise0.3_tick0.5", "proposed"): (
        "a8edce7a621248c15394916b609a19c0003e171ceb85639a5dfa36eb3e07bb2a",
        "bd2210cd765fe267e210bfb2aa4099540fc3aa1abde59eb672a6ec9fac6ac54e"),

    ("bursty_noise0.3_tick2.5", "default_hpa"): (
        "c0a7caaec03f6a1eb792953d23e26d472a0e2af53e29ecfff7ddf66ec70aa446",
        "01af2ee7bb86e8312ab518995b249d1a5dcde557f23626d53885415d811fde2b"),
    ("bursty_noise0.3_tick2.5", "tuned_hpa"): (
        "09fd8d14f1f31b5bb6b3eb8f10e75ad6a85914daea7aa3534dd14808b6a44e1b",
        "31f543db7d70e7555f712fa27dc6df9624c2d29a8963cafa869e680ea0e13e89"),
    ("bursty_noise0.3_tick2.5", "hpa_vpa"): (
        "89c830dd4909e799860598b6041aa895c646ebced71742d8a696be7bd6f38e8e",
        "ceb432682dec397e61cf51876effb04d73bdbc97d0b9cc2acb17d254e9aafbe3"),
    ("bursty_noise0.3_tick2.5", "proposed"): (
        "ab42417ed9ab90f6141c85d35e42b95bf86b77baf6ed1a0acdb0fd9fe3da74ca",
        "1f89aecdd3c816f0307411fdec72660c8c8002b5ac46c249920961c52196a981"),

    ("mixed_noise0_tick0.5", "default_hpa"): (
        "c3052614ceed1be94fee0902b105da759ddd7ce7d3db9ccbe389fbf3749ded3e",
        "8a3d4df37f10a28bfa8a343de77f99b05b171ff69e2c9257069684b13afc8dc2"),
    ("mixed_noise0_tick0.5", "tuned_hpa"): (
        "2f0369bfd1ae0ce9002dbe3915569cc070162bb11a16ca4c0f91d81cd20fe802",
        "3f0c8d3f212b0fb6ca0b23cebeb9c2a0b5da11bf8b7101125b8a692e265c2103"),
    ("mixed_noise0_tick0.5", "hpa_vpa"): (
        "c063524fa40c47dc45728d16a91771421a884308c16f987a9011fadcdac3b37e",
        "96cdad9e68a87706793b42844e4407bbe658586d857316f98cfc228a5889b645"),
    ("mixed_noise0_tick0.5", "proposed"): (
        "850903f7fbde3ed703949818d6129987bacc2a8992d2e17511f5f38c58437bf9",
        "060830fcb7ef51d1d1cab2223e6b4937e55c46b2d72ebf9436a14b55d8e549ed"),

    ("mixed_noise0_tick2.5", "default_hpa"): (
        "3d17a4733cb70f1007b93a5823e379cc40475218a51b9a8cdec88d3131e31ee1",
        "dcdf53e75858bb5e6c3354f5b6fea1799f3aafbd93be51b97759ffe4de2c99d9"),
    ("mixed_noise0_tick2.5", "tuned_hpa"): (
        "fa6f63fff7aa26acec146c4f984f5b958d7ab0baa405ab16ce94d1294f338a4c",
        "69dd8702d2f25853eaaa3f0174651b91aa349d18a6450f4ccce9a6c0ba004683"),
    ("mixed_noise0_tick2.5", "hpa_vpa"): (
        "77c30b1adff079e81989fef95b516a9a20c6d11a1605bbef2dcce54806774ca5",
        "9135445708f05802b626b07f44ca25a5ba6ac35def5ce8c4c83d03a2ca468ead"),
    ("mixed_noise0_tick2.5", "proposed"): (
        "4d1e04ee8f4d84cd471dad38291e37d2c756c43f2900653cb5434deb8276d9e9",
        "c2cc344a38da83c500725fc36404325dce167169bf4fb6ab55f13837e5501d04"),

    ("mixed_noise0.3_tick1", "default_hpa"): (
        "7d6d2f12f1b1a2d2ffccf485e168aae136721f0e66ecec676c9009895d02315f",
        "7ea3375cb33ea5b3afa4b2f4a8c1f36027cf584a5083772282f48e26be96cc4b"),
    ("mixed_noise0.3_tick1", "tuned_hpa"): (
        "fbef4eed03d468a19046f28066c3838ac1e4c3cfd9f472e9b8d68adf9fe1f847",
        "9b32c839d36e28e697b5aad4aa26e592177f1d41325f449056ae846242a37f9a"),
    ("mixed_noise0.3_tick1", "hpa_vpa"): (
        "b7781ecc3cbf0e6e9eb80bdee1ead251e220bb535ac5b00fedeecf1ea0a9d40d",
        "540abe0a5b1f9c596a5eacf47639659e356ec8e8551f24278791be53cf447df6"),
    ("mixed_noise0.3_tick1", "proposed"): (
        "9dcbd3cfde622e780f9972cc83adbc6c7b9d64a45ec349dbeef4e77e764ba69f",
        "bf5bf0a322fa8a0437eb0a28165e99543b23f908d914e12965ae789532af2924"),

    ("mixed_noise0.3_tick0.5", "default_hpa"): (
        "aa4abed58dc77d083d4ba09f729e0438f17fc7bb389c5df582815df99287ed40",
        "aead318155e362771cd18ed79f6bed5523da7341ff856ee5c12b9e0218dcd96e"),
    ("mixed_noise0.3_tick0.5", "tuned_hpa"): (
        "c75aa774c5c07cf7b9c721e469b97b171691d66efbd81ac16e213d0f1659afd2",
        "fc6becc13fded145edc10d20de4d9afe50aab4bb8d4eaa1b827f54c63a5d88be"),
    ("mixed_noise0.3_tick0.5", "hpa_vpa"): (
        "e79e99a5eda6b498454267509e96fa8ebce846e4c158619dafaec3f41f9b0ce9",
        "34618ce203c8d3b0b40f563ed593db9cd4d5c4c97d35f601ebe6cd34d9f2cea9"),
    ("mixed_noise0.3_tick0.5", "proposed"): (
        "9368d48fb02eba807737070925c25354827fd7dabcde81292313f395f15bdbd2",
        "ab077e71fc688032a5febc89176ee8c376a8ac604ae03dd06256a5bd63291a19"),

    ("mixed_noise0.3_tick2.5", "default_hpa"): (
        "cb33cc5d4a1b561bc046ac0bba8a5d907daca5eeb562f59338402e52d98b066f",
        "0828fc0ebab91c4835ab1ed733a9ad8a3c52a10e61d3ce5d75433f194dc221d8"),
    ("mixed_noise0.3_tick2.5", "tuned_hpa"): (
        "c9e61ea4eafa736b2176eac7b1ab1ecd85da23eb59eac439bc427f51b6f2a830",
        "46dd962e701b4fd872267deb2b01f53fd9702bc9964168ac146664fd4a90c0ad"),
    ("mixed_noise0.3_tick2.5", "hpa_vpa"): (
        "168dd734695e5ea73efa36482a003177106957767332e19610e86f3202510f6d",
        "ff84d259b05f7acdf3a0c79e597b5bb2c3acd8e3a16c95e20a02fe15423b43c3"),
    ("mixed_noise0.3_tick2.5", "proposed"): (
        "67aa99d77dbdb4608afd8d79933ec8bd727292bdc3109469542b2075dd3fb273",
        "8dedd1d1957d6bbbc63089105cd8a6c4dc384f14618a715859f8cabeff68546f"),

    ("queue_driven_noise0_tick0.5", "default_hpa"): (
        "ffd4b5dc00eabd9a639cbc2ddb922bd755fd6c950a7621d35b5ec2f77de3529b",
        "018fce32adbe7b222f3febf4a13786280ef08ab49467629c39b7018d47edfd24"),
    ("queue_driven_noise0_tick0.5", "tuned_hpa"): (
        "da0c08a7505de6dc82faa28c9536b805c6f4605ac849411d3da2fe2f5860155f",
        "9572ac1eaf711fefbc8fb4fce0b6d258f990eeb6dc1ef501dc823f0a0af4d817"),
    ("queue_driven_noise0_tick0.5", "hpa_vpa"): (
        "c616bdace9a99a73d342fe20cd715ae8d15e922992ce8b0db655c3913ae635d4",
        "c8f26c0605763ba57b20ee1d891e48771733bbd9df8cc9f89628eabee683c5ac"),
    ("queue_driven_noise0_tick0.5", "proposed"): (
        "c9bd7e32f2b58a7cd73c1577f84348d1a5170b15bbfb04998dee96117c3144f7",
        "8a9c8034f22a7c4e0e9192180d0e49cb062dc3e788ce7f03d1c4b2cf153b3d40"),

    ("queue_driven_noise0_tick2.5", "default_hpa"): (
        "6f002eccf341d70469caa33daec12016525e72b73d0b758af6d1d3761567cfea",
        "c0f193a53350bcd9ce9210d3e058b2fa3ce5dffc0cac9929724c21c796efe8e3"),
    ("queue_driven_noise0_tick2.5", "tuned_hpa"): (
        "cc4247f4955276709b4146ade4a0e3644b5010507b38fc44c7bb9ae1a77df181",
        "1db2437d3bb9de5acde9993788048fd4237ef95d155e0746e9a1ac2b2b19744e"),
    ("queue_driven_noise0_tick2.5", "hpa_vpa"): (
        "3658af59e610833a267f406911e14e6dd821939aa8c44f81271514a67919d8c7",
        "9c9800543652b0709aff5072957bcabd90f08a509f7a84c85aa2b4da2ccd8de4"),
    ("queue_driven_noise0_tick2.5", "proposed"): (
        "c260035272540aeb7f41871ef712039491555d903d45ba7525665d35f9381adc",
        "47cbfd89585801069d447b5ef736587993ddb1ea9c8b174f869f625ff521e89e"),

    ("queue_driven_noise0.3_tick1", "default_hpa"): (
        "d80c2105d49a6e7d7cff1fb787eff008f605aebda157bedc3bbb307aac691da9",
        "81689b8ccaa9b1222ac202d5245d6ffc23cc811d8e63eb3e935ae50487e919f4"),
    ("queue_driven_noise0.3_tick1", "tuned_hpa"): (
        "1efd4bb1fd832c2fe50cf62c4cd97d34a3670654d9a8bf4300a1f1d218169f55",
        "3e3f2165f8389c0c3c2186794eba2536608fbdec8799052377f251d4aee0f066"),
    ("queue_driven_noise0.3_tick1", "hpa_vpa"): (
        "a40116770c80a5a3bff9905ef13bf77f924dc74041c57bb9776ddd57032746d0",
        "73fbd16583ce43938b843687ff40f81184491df7c2b7f17b903bd12b63d045a4"),
    ("queue_driven_noise0.3_tick1", "proposed"): (
        "e8b8a5c9be582f90ea5162fd357bd7f35760901a4d3876e696f0290ba6109b73",
        "e287df2167273fe4031bdfb7d585ac283cf561dc157f7386cb475731af2edb32"),

    ("queue_driven_noise0.3_tick0.5", "default_hpa"): (
        "ea134d814b6e5641a601b129b08731f63b464e53f7f000ec26ba20163cbfd07e",
        "cf23333114236f5150e50717f1557fa167a008ba86bfad6451a3fcb61beacf34"),
    ("queue_driven_noise0.3_tick0.5", "tuned_hpa"): (
        "686bb42130355d82fcea0666a0f8d2d8679a08fd6a09c833a75b6023d23c5e02",
        "935cb0579b7c7af09ab7ecad0754eaade1760cf23e8f2073422db26e0fab65f7"),
    ("queue_driven_noise0.3_tick0.5", "hpa_vpa"): (
        "759d61cbbc748d1cb53edcf559b224abc60b90912d03f903877d7a55dbb14ff7",
        "ee330a2ca0c2d89f797ea8c7f69e01514a949593f127de6d66c0632a0ce36711"),
    ("queue_driven_noise0.3_tick0.5", "proposed"): (
        "520c65d811c9848c80af0d18041f9a8adbbfb5768266985877fab0151ab4cae9",
        "03a783511b5a06cc3675dac72de7450d9cd3ad63580f36c8125609b4139d1a72"),

    ("queue_driven_noise0.3_tick2.5", "default_hpa"): (
        "4578ae561e78e2b4354d0f3e36315feae298e65fa1cc00a27fd1ac41cf99be1c",
        "9f934587ad9935c8444619bdb33690c2abb59c04a7761396cd9bed9fd6a68092"),
    ("queue_driven_noise0.3_tick2.5", "tuned_hpa"): (
        "c85c66b3e10a21b18678f0701309f5419893a4f5baaaf6ffa9623707fbc11140",
        "c695b270b651338dd925a90c522eaeccf73a3181d812fd48ad31a251503e46d2"),
    ("queue_driven_noise0.3_tick2.5", "hpa_vpa"): (
        "00ba23c3de5a682169aca10382421df0f0db5f402591a10074f2189fce0e0518",
        "b3b491851b962786ab3ebbaaea54fe1c66b6b7d7f9d21fbeb8b0831394c9baee"),
    ("queue_driven_noise0.3_tick2.5", "proposed"): (
        "41116ac29d8d03a707afd76cd9b0c4e921918d4d6f6292e6b25d4be2413e9757",
        "e8ced2da4bcaf6a9573be95dd82e54d30d6dbb8437b4bcf770254ec3a52fb163"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_bundled_run_is_pinned(all_runs):
    assert set(all_runs) == {key for key in GOLDEN if key[0] in BUNDLED}


def test_every_case_is_pinned():
    assert {case for case, _ in GOLDEN} == set(CASES)


@pytest.mark.parametrize("case,controller", list(GOLDEN))
def test_output_bytes_match_golden_digests(case, controller):
    trace = run(CASES[case](), controller)
    assert (_sha256(trace.to_jsonl()), _sha256(trace.decisions_to_jsonl())) \
        == GOLDEN[(case, controller)]


@pytest.mark.parametrize("case,controller", [
    key for key in GOLDEN if CASES[key[0]]().workload.noise_std])
def test_noisy_digests_match_the_per_tick_oracle(case, controller,
                                                 monkeypatch):
    """A noisy run with every tick's arrivals taken from the per-tick oracle
    writes the golden bytes, so a noisy digest pins the noise contract and
    not only the code that fills the blocks."""
    monkeypatch.setattr(workload, "arrivals_at", arrivals_oracle)
    trace = run(CASES[case](), controller)
    assert (_sha256(trace.to_jsonl()), _sha256(trace.decisions_to_jsonl())) \
        == GOLDEN[(case, controller)]


@pytest.mark.parametrize("controller", [
    controller for case, controller in GOLDEN if case == "half_second_edge"])
def test_integer_latency_cap_is_written_on_row_0(controller):
    text = run(_half_second_edge(), controller).to_jsonl()
    assert text.startswith('{"t": 0.0, "arrivals": 2, "ready": 0, ')
    assert '"latency": 5, ' in text.partition("\n")[0]
