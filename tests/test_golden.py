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

from slosim.runner import run
from slosim.scenario import parse_scenario

from helpers import bundled_doc

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
    # (5, 7 and 16 times for the three controllers)
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
        "fbb7920fd6f95e8ca7e68367cb8e8f61bc9f9e9588c7fcadd787e5ebdb797e6e",
        "d7a971cf49b27ded6abbb1ff6130806fc51eab60e2d15bc3840be1db33585c2e"),
    ("noisy_6h", "proposed"): (
        "94a21c9aa44edff8df5778a5660f15779aa9002cc44c44e5ebe9b8cf1dddeab2",
        "690af1b957fa3939e2053d433007cc58d6dd23b3bdbb3bb39166987ef92bb008"),

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
        "75eaddf4ba0422effc06e9a134e5a482955a7746a82bbfe1f69224881e4beb39",
        "16f78a26adc6e2a15b1a82232e6405bb0892213a03f72704f2370b55baec8a2d"),
    ("fast_retirement", "tuned_hpa"): (
        "887db58e3bec9f93de06ef8640b19c06a1d3da550bcbc22b4aae959e9485b7d2",
        "041df20e79114d2ac4a3b45946c9bcb36421dde086a821939e177102870e6a77"),
    ("fast_retirement", "proposed"): (
        "64fb736d83a3d5b213ee561fa1047cb185c9aafae2f6c099bd84e07c969e77ec",
        "eab371f9aeb6eb87647e85eb1f021a1c560180e484c45b045295499eaef83a72"),

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
        "374e9346ab5d92c2ca90e8f2881ae789a37c03c6d6aa3d986d3d44fc117a4d37",
        "b7df82b20412e6b02a05f5ffffb4f3bd27fd11dcd49fd85955a44d4fa7c5ce69"),
    ("bursty_noise0.3_tick1", "tuned_hpa"): (
        "056895c43c3a1c45d53a687c0d4396501120f7e58d0167e494307940dd25eb68",
        "e9c2e911dbb17675a29f84257982d901c9b340bf90ce6394ad6d4b1f2ae2f10e"),
    ("bursty_noise0.3_tick1", "hpa_vpa"): (
        "a700fb25dccb9a99b5f55c4b3cab62527daaa5723a5c6a719db4ce569da29ccb",
        "ffed7406baa4ead9c1e98ee0c5dac05f9e40038e65f7603ced1626ea55e574b0"),
    ("bursty_noise0.3_tick1", "proposed"): (
        "369f4aeb70ef8baae62d3ed97fe23c7c49c3163030e387fd4da7aef4a4637a5f",
        "854b0f0642c8acbe8bd491675ebce43ecea642810ce452c2118db77ebcf6d209"),

    ("bursty_noise0.3_tick0.5", "default_hpa"): (
        "350c9d0247376ee58f3bed84d6a7c1d960a4791b30cc9970edc31d24094ff45d",
        "f62d7602794aed9d5ffa1a07f46714cbb72ce04e7ed2753c6381a713b3348435"),
    ("bursty_noise0.3_tick0.5", "tuned_hpa"): (
        "eb9bb746cb449eed637194f3444c1391c82f96232bf498ee3e4ad72b81859232",
        "f3c87ad1c4ba5f998e773e551179863118de302398413534acbfa73b1ff22a36"),
    ("bursty_noise0.3_tick0.5", "hpa_vpa"): (
        "bb040d2c956b41dcb0a82b1bf3b384cff300a449132fb00205adc4121cb705a2",
        "e35351dd765b570d8727584ed03050f309513607873051d55e42eb7c381dbb82"),
    ("bursty_noise0.3_tick0.5", "proposed"): (
        "de5f51ea5a147b6366f73e3c2b24045151382c851e68a9ca54e9254b2a3e6d9a",
        "5727b84708f065ed841bbceb05ca31095d0cdaa41f18b19ff03a5d5b28f186e9"),

    ("bursty_noise0.3_tick2.5", "default_hpa"): (
        "982d114ac8e51a925f614560ddc9d546e171fa57248d6cf38c45589519a5f45d",
        "8275cd4d61b3f23c4882e6badc6c5aea14b8bc58ccd37001e4484220231122ed"),
    ("bursty_noise0.3_tick2.5", "tuned_hpa"): (
        "09c8dd31ff8e7214f74d0a189e372d8115c2c6eb9971605a2cce9e40d842da7a",
        "7b8b74fb8760f9237c713c75abedc5b97e8f297180bc55dc6abb216a7bb5ab2f"),
    ("bursty_noise0.3_tick2.5", "hpa_vpa"): (
        "977e25a28371a28b3b46cc6ad1de8ef786d41b4f9638bf7d29c87d4945ddbeb1",
        "9541e0b6881e58db104976b86389a5fe1d778da9e18f74c85fc2874163b199fc"),
    ("bursty_noise0.3_tick2.5", "proposed"): (
        "2d33c366dbbcba9487f92cc19479c48742090e0fa3093567e38e9a17c62e1641",
        "125ffacc2182711d4de3142d003e52cc2c388a26e5e8499fc8a3268d433459ef"),

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
        "78621799cd172f5f359c73059632e947d1050e204f5fafb28186b7a8813c9157",
        "02c622281fa8bef4a318590d83b68344dfd8eaaad1ff1d5107820cdeb5404a41"),
    ("mixed_noise0.3_tick1", "tuned_hpa"): (
        "f7c0a6b27ca2fb1cf86b9a9b08f08777b37aed3166288eab1f2285c788c7e04d",
        "2b5f0472f789201dbb69bbf511316c67f52f3b901f43a42dd09adaec0cec3a74"),
    ("mixed_noise0.3_tick1", "hpa_vpa"): (
        "69a3958efeffe9723503c9983f264ddace51f8fff8cf025351992267dd377205",
        "3fe4ab71604fed25ab340917e17de5fe4bfcd9c85ece42759b94755ab1b0a00e"),
    ("mixed_noise0.3_tick1", "proposed"): (
        "9d15f37cface20e63b3284f6eff342b9ef802ed03c7d3ff6a1bcdb35399bec70",
        "eef709dc8d15bf11736ba0795c61e649b206228073c9422117305073479eb05c"),

    ("mixed_noise0.3_tick0.5", "default_hpa"): (
        "880dfbeaeb4a0a6cb59f62e97fa07ffbc2e331badf65d101a3bf35dae85f7090",
        "61a372e1cb90ac8c8e2b315acf3b4e0f4a0ee890884f2838180bc74c294f7703"),
    ("mixed_noise0.3_tick0.5", "tuned_hpa"): (
        "a106943818fa41adb0e230bf9c7ad76fb7e3fa8698816d0a71614a32297400da",
        "e2b896244e7ff4fa8abe9467620bc2b349b722bd7bd88e9eeeaba0b38d7d557d"),
    ("mixed_noise0.3_tick0.5", "hpa_vpa"): (
        "88135c2eed4df93b395d1e3d5f386cdd964c6cb5a9ab7a794f98f8a6b1a6cdd4",
        "3bef1c674806cf639ffa303b0cbbdf87438c70a6d0015d716fdd3be19817dcc0"),
    ("mixed_noise0.3_tick0.5", "proposed"): (
        "6fe77e18abd1799ceafa4ab21b3d625e471dd2ace2debedfe7653910542a445c",
        "422000e3abf10f448dca7e48ec82dc4a6aa18e7484e945e0a47d6ac7794b8e90"),

    ("mixed_noise0.3_tick2.5", "default_hpa"): (
        "0b0652bcfef223931b58d1142571e0a30472a23697a229b046de98eb34e7142e",
        "6ad51296c08e1ea663cdced1796aace63fe82842c601ff43c87dacc2a2f97637"),
    ("mixed_noise0.3_tick2.5", "tuned_hpa"): (
        "d23ff5dd204ca2434a3055e80a02474bd6d87b00bb6f265796b11790a214be22",
        "2acc42cb266c6d0f26f4c18ce97a6879b196713b3a7f4e004a552efd5a7d85f7"),
    ("mixed_noise0.3_tick2.5", "hpa_vpa"): (
        "0285d17ac7c014ed7892146036b5c30590de8301ba62b08497391bf21baedba1",
        "7fd74b0eca073d69c42c7998d192757aa826b2e5ba02521ed02a920b7ff9f9eb"),
    ("mixed_noise0.3_tick2.5", "proposed"): (
        "b97c93fe646c35a388b93c552b12d600dcc40af60b03af072132cc0fe661c76d",
        "03e91f4f69f2c454adae07c690e8db402ae3ffb7dda27111f39b4e0f96951f85"),

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
        "f5ba826cf982128bd450b5a7bc44f398103baf726bda6f37bd70c670f7e40e9e",
        "13915a5ce5b8f5fd9581961e463b110265a45044e95b875c3f2a7d60b93463de"),
    ("queue_driven_noise0.3_tick1", "tuned_hpa"): (
        "26ecadb40350d70dca157efaa8dd4369111d8a3993ac6f736576946c9aed89b6",
        "8b02b1151c9461fa55d9f538af1995959c7030f02aa211b523b1840fbe986892"),
    ("queue_driven_noise0.3_tick1", "hpa_vpa"): (
        "342d021896c47ae6cbcc7545f96fae9c4101f77093fcd3c76b5ba1307c5408d3",
        "d95beebc410f53ef84c612a27eb88c409e1edfa52adca8d29448271e146ae503"),
    ("queue_driven_noise0.3_tick1", "proposed"): (
        "69c1d460fdb23cf1cb663b0d031e381670d0e7376ed81138817f271165967c19",
        "c4b2d82c1da4879cdfcdb0c7ae466b32f5fe0166d1becb6db21bdb23c92e0ed7"),

    ("queue_driven_noise0.3_tick0.5", "default_hpa"): (
        "24bd68243da73c9c686091dd46727c09ad8a4ae040eb1b1d3ddd15bc8df9f550",
        "17b665d5e34271dc8d5f8bcc322c54dbe8e184719d0accfcc59d3756957c9d57"),
    ("queue_driven_noise0.3_tick0.5", "tuned_hpa"): (
        "6966bc995032e1cb7b5e9f8f0e6c3242500d768c17538bfa66d3ffa36106df20",
        "9946c56fcdbc4d77e6c960010889f0ecb98b504e422ee012e5dd5b6e1c46fa61"),
    ("queue_driven_noise0.3_tick0.5", "hpa_vpa"): (
        "e90b816733a56437194af97d6698a42b227df35eec104037105862970beb3958",
        "4b577446a92d70a57a1d9fcf36e1b0b0489f980b15cda52f66ab259d607d8330"),
    ("queue_driven_noise0.3_tick0.5", "proposed"): (
        "303fa9532b0ab8f7cf53c74d0afcee2c52660a41e747e6cd81a54f590083a5ed",
        "10b53ffaf96da9d479c974dbd832398e3155a06ae7fc67d99cfa0fc769f464c2"),

    ("queue_driven_noise0.3_tick2.5", "default_hpa"): (
        "6c3c758f1ac7b28f71a83048c537f5d9c31d4f6a624e25e273d7c942beca22d3",
        "5be7f219ba1c131645170f9bcb780c24d8b75213ef1c8cbcc0087c10143129c1"),
    ("queue_driven_noise0.3_tick2.5", "tuned_hpa"): (
        "88f58506cff9dd6a6353aa6830caaa512b85ca4a1b67e52d8997970e876e8bd5",
        "1e5737fe028ae71e244e59aefdb1f422c4d5d822dd4b12d79a641ae9eed58d56"),
    ("queue_driven_noise0.3_tick2.5", "hpa_vpa"): (
        "b1839bcd9a5d4e6c91ecd20d394335fc606eea8a7524410d27241e06c84545b7",
        "6cd772894f5bf13b64c825a6ffde3e8002b2ab624749e5ff4626e51031dbfe25"),
    ("queue_driven_noise0.3_tick2.5", "proposed"): (
        "a964e3da0304bb3c0bd382a294af79fe14855e03b1f0eff10f242b1ec96d2ae8",
        "b87380cb9a98121a46e071f485334cd55a0808338fda0e1af87f264b3eea2e8b"),
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


@pytest.mark.parametrize("controller", [
    controller for case, controller in GOLDEN if case == "half_second_edge"])
def test_integer_latency_cap_is_written_on_row_0(controller):
    text = run(_half_second_edge(), controller).to_jsonl()
    assert text.startswith('{"t": 0.0, "arrivals": 2, "ready": 0, ')
    assert '"latency": 5, ' in text.partition("\n")[0]
