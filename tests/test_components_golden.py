"""Component formation against recorded runs of the object protocols.

The digests below were taken from `form_components` while both of its
runs were per-node state machines under `simkernel.run_protocol`: the
max-ID flood `_CompFloodNode`, which still runs there, and the
organisation `_CompOrgNode` (join, relay aggregate, near registration,
convergecast, totals flood), which the round kernel `_CompOrgRounds`
replaced (see CHANGES.md).  Each case covers the components, `comp_of`,
both runs' ledgers, the trace text of both runs and their round and
delivery counts; the stuck cases cover the nodes named when `max_rounds`
runs out, in the organisation run alone and through `form_components`.
"""

import functools
import io

import numpy as np
import pytest

from swarmtopo import boundary
from swarmtopo.simkernel import run_protocol
from conftest import COMPONENT_CASES, COMPONENT_GRAPHS, run_digests, sha, stuck_digest


def thresholds(g) -> dict:
    """A quarter of the nodes BOUNDARY or more, half of them, and all."""
    deg = g.degrees()[g.ids]
    return {"low": int(np.percentile(deg, 25)), "mid": int(np.percentile(deg, 50)),
            "all": int(deg.max())}


def classes_of(g, level: str) -> np.ndarray:
    return boundary.central_classify(g, thresholds(g)[level])


def component_digests(g) -> dict:
    """Per threshold: (components, comp_of, flood ledger, organisation
    ledger, trace) digests cut to 16 hex digits, both runs' rounds used
    and both runs' deliveries."""
    out = {}
    for level in thresholds(g):
        buf = io.StringIO()
        res = boundary.form_components(g, classes_of(g, level), trace=buf)
        comps = repr([(c.component_id, c.members, c.size, c.near_set_size)
                      for c in res.components])
        flood, org = (run_digests(r, "") for r in res.results)
        out[level] = (sha(comps)[:16], sha(res.comp_of.astype("<i8").tobytes())[:16],
                      flood["ledger"][:16], org["ledger"][:16], sha(buf.getvalue())[:16],
                      (flood["rounds_used"], org["rounds_used"]),
                      (flood["deliveries"], org["deliveries"]))
    return out


def organisation(g, level: str):
    """The organisation run alone, after the flood: run(max_rounds=...)."""
    member = classes_of(g, level) == int(boundary.NodeClass.BOUNDARY)
    nodes = run_protocol(g, lambda v, nb: boundary._CompFloodNode(v, nb, bool(member[v]))).nodes
    fields = np.zeros((3, g.max_id + 1), dtype=np.int64)
    fields[:, g.ids] = np.array([(nodes[v].root, nodes[v].parent, nodes[v].via)
                                 for v in g.id_list]).T
    return boundary._CompOrgRounds(g, member, *fields).run


GOLDEN = {
    "dense-60-1": {
        "low": ("a679479364ead1b9", "a621746c7892c8ea", "0fd441d1099b22b2", "688b77c723589ca1",
                 "ef158dd23c0de989", (7, 13), (2929, 4717)),
        "mid": ("bf2ef7c164971bc2", "2a5934fcf0c70936", "fca1dd1a7bdaff6b", "c7bb6ad71719add9",
                 "f86e307566374dee", (6, 12), (3188, 5374)),
        "all": ("ae62cf1c069de1d9", "cc34b7d210d7231f", "60f6e451dc78b44d", "b9641221605836cd",
                 "26b496971c0f8585", (5, 11), (3858, 5705)),
    },
    "dense-250-2": {
        "low": ("0000d3c22ffb0f2a", "0e6d89a88571c1ba", "cbacd13853357eea", "67bb567500b0a51d",
                 "1523b19a7f32653f", (12, 21), (20548, 22633)),
        "mid": ("6246c9f2a4d242f7", "129073d74ce0489f", "2069b6a0f036cbc2", "6fabed99893aa250",
                 "25f481bb7193244e", (9, 17), (20631, 27238)),
        "all": ("1099afa02e7bfa86", "a9ffe474eb675870", "d894932f5919e06d", "3095805cb37cc2d4",
                 "315737b7aca70bd2", (7, 15), (24357, 31683)),
    },
    "dense-800-3": {
        "low": ("833294dc7bb95cbf", "5a44e031e0efb320", "5331c9679cbb032a", "ccb9eea3b062c6df",
                 "d96598d5d1cbb6ef", (19, 32), (67941, 70039)),
        "mid": ("a1f616b7873c44e8", "eafdfad5bc82b06e", "0edc193418f13b73", "ac24bd53244266cf",
                 "958b35d63ad37a47", (13, 27), (105090, 95268)),
        "all": ("e6e0f1b6ea957ef9", "3d3b3fb1fb7b3f81", "ce72b70724e317ab", "77973e2b549bdbc0",
                 "b73fdef7c8e84df3", (13, 27), (122863, 107520)),
    },
    "gapped-60-4": {
        "low": ("c94c4d82881ba4ad", "c58dbf8907b2ee17", "da2d839c5c9ef01e", "9f20588919aae450",
                 "dee1bb9eb7a53f02", (7, 13), (1873, 3862)),
        "mid": ("22fc461f8b00cc9d", "62d8bbc6c4bd28b5", "041d515ca2e91cc0", "c414037c5d1c4904",
                 "8c67db5862551a60", (5, 11), (2914, 5271)),
        "all": ("a64e00428c52c71a", "485787a1fb8a1133", "912b2bbbad39d0b3", "8ff778a31655c8b6",
                 "ddd00b79ee6cc244", (5, 11), (3317, 5868)),
    },
    "gapped-250-5": {
        "low": ("8c79228daf64fc95", "b17bf4e90dc14a92", "665b468a6901f640", "3bb43403a850d81a",
                 "25d4b03237789b66", (12, 19), (17322, 19788)),
        "mid": ("9af818eb141db3ee", "3f2775e41336cd33", "9bc225bff1e2e92b", "3da237508d036458",
                 "b07d509e8e1b29ce", (8, 15), (21432, 26912)),
        "all": ("0ea18cc1b08a59e8", "3d8dd915b30000f4", "c2ed5d523af170d9", "ca42f57f0f9d03e7",
                 "5b8c40ace52cc8f5", (8, 17), (23728, 30712)),
    },
    "gapped-800-6": {
        "low": ("aeef7ea53d49cbfa", "c54aa0a69f7e58c0", "6a7fb7cfdfc7fe51", "b706081847806602",
                 "c3bc56810f2804b5", (18, 32), (71350, 93103)),
        "mid": ("e9a0db7a9d1e6a74", "5ad3aee7fefb9f06", "10f53ee45b084a6e", "de7943e5a93ca7cd",
                 "07169f322c08968b", (14, 28), (116435, 94354)),
        "all": ("53028e6114f13ebb", "9d65e1faab928cfa", "4a3a0a2da2ec0204", "1cdd93c6c6996560",
                 "6e4160c79e9db51d", (10, 21), (106442, 107400)),
    },
    "crowded-400-7": {
        "low": ("15659093e6096b71", "0be971cca07c7460", "c9783bcda7058aa4", "63262b454c4d9380",
                 "d055742a88dbd8c1", (6, 12), (137983, 183249)),
        "mid": ("165a8d26074c7c08", "d1ea7f9e06b2e3bc", "6b6ca9ca6af85ecc", "32aed900a4cdfc75",
                 "e26067ba092e0a2a", (6, 12), (130879, 207858)),
        "all": ("366e0bdd956ee7d7", "3aef4266e8fe12c0", "4ceebfbbebc3763e", "d0cf07fb24ef3557",
                 "41270c624dcb0bb8", (5, 11), (162212, 224236)),
    },
    "path-40": {
        "low": ("95d148dab05f7178", "0bfef624fde7efd6", "aeda82b8696891f8", "dea665dcf03ccc54",
                 "bd5d6eaeb074530c", (22, 45), (286, 310)),
        "mid": ("95d148dab05f7178", "0bfef624fde7efd6", "aeda82b8696891f8", "dea665dcf03ccc54",
                 "bd5d6eaeb074530c", (22, 45), (286, 310)),
        "all": ("95d148dab05f7178", "0bfef624fde7efd6", "aeda82b8696891f8", "dea665dcf03ccc54",
                 "bd5d6eaeb074530c", (22, 45), (286, 310)),
    },
    "star": {
        "low": ("971de99be39d33e0", "e9ce0ec84e99834a", "8a2e6ff7f4384482", "094260a9575af573",
                 "abd87050d80a5dc5", (4, 9), (20, 83)),
        "mid": ("971de99be39d33e0", "e9ce0ec84e99834a", "8a2e6ff7f4384482", "094260a9575af573",
                 "abd87050d80a5dc5", (4, 9), (20, 83)),
        "all": ("7f34dd8311627e20", "c64eae82d65ea8a2", "5b956bbb66f06a64", "354c130da3257ca9",
                 "1ef0a34d9be6e237", (4, 9), (33, 55)),
    },
    "star-gapped": {
        "low": ("391986f1be4ac813", "3374c11ced1ce430", "ec23fbee47ef9b3c", "3732806b1c488933",
                 "84411a5cb8e39096", (4, 9), (17, 65)),
        "mid": ("391986f1be4ac813", "3374c11ced1ce430", "ec23fbee47ef9b3c", "3732806b1c488933",
                 "84411a5cb8e39096", (4, 9), (17, 65)),
        "all": ("038efc4a45985220", "f8af770e03486812", "0f569b522c1e56e2", "5da517f468b8e189",
                 "5b3b5e889e24af4a", (4, 9), (27, 47)),
    },
    "single": {
        "low": ("9aa85434bd91b320", "e788377f5d888e06", "fed03e92497129b1", "ba915740b1dc15da",
                 "9650c9c0b2f65c73", (2, 5), (0, 0)),
        "mid": ("9aa85434bd91b320", "e788377f5d888e06", "fed03e92497129b1", "ba915740b1dc15da",
                 "9650c9c0b2f65c73", (2, 5), (0, 0)),
        "all": ("9aa85434bd91b320", "e788377f5d888e06", "fed03e92497129b1", "ba915740b1dc15da",
                 "9650c9c0b2f65c73", (2, 5), (0, 0)),
    },
    "standard-20k": {
        "low": ("70afba86faf34567", "dc3969e56f1f0c0f", "2d11f95043b38c6f", "1af2835e3945aa77",
                 "4e879e76182b60b4", (48, 86), (7531189, 5522798)),
        "mid": ("2b014fa293d7ebb3", "e55e356b3f0d7708", "ecb3f5b3c2195b00", "51686c8179e8c9b4",
                 "b16b252054991987", (37, 74), (8812447, 5422762)),
        "all": ("78942fd4eaf67f68", "7446afdc00978618", "8d49e0c054ff7ce4", "5a77a312e7c2b06f",
                 "bab5010f7f8d9152", (30, 61), (9221213, 6086431)),
    },
    "ring-48": {
        "low": ("8e7a9a049da83b23", "395a048334e7a147", "1fd60a4ae77d1154", "dad3038ceda163e6",
                 "c9782af2fb28b402", (26, 53), (414, 382)),
        "mid": ("8e7a9a049da83b23", "395a048334e7a147", "1fd60a4ae77d1154", "dad3038ceda163e6",
                 "c9782af2fb28b402", (26, 53), (414, 382)),
        "all": ("8e7a9a049da83b23", "395a048334e7a147", "1fd60a4ae77d1154", "dad3038ceda163e6",
                 "c9782af2fb28b402", (26, 53), (414, 382)),
    },
    "scattered-70": {
        "low": ("faf8f603854ee0db", "503b5ae13243555e", "b868ef43565de015", "69993437f30410a9",
                 "d10206433fcaae8a", (4, 12), (34, 437)),
        "mid": ("d780db0387bd0e1d", "3e283c1ba397dbe2", "89f2d78778cfcadc", "b77c4e94abbb04e4",
                 "96373097eae09553", (6, 16), (205, 702)),
        "all": ("93febdc2f99c911e", "e74c53ebe907ea3b", "9751d338d3315a11", "9a9a970ec86cb0a9",
                 "25388ecc18ac61d2", (7, 15), (507, 753)),
    },
}

# (graph, threshold, "org" for the organisation run alone or "form" for
# form_components, max_rounds)
STUCK_CASES = {
    "org@dense-250-2@low@1": ("dense-250-2", "low", "org", 1),
    "org@dense-250-2@low@2": ("dense-250-2", "low", "org", 2),
    "org@dense-250-2@low@3": ("dense-250-2", "low", "org", 3),
    "org@dense-800-3@mid@9": ("dense-800-3", "mid", "org", 9),
    "org@ring-48@all@3": ("ring-48", "all", "org", 3),
    "org@ring-48@all@14": ("ring-48", "all", "org", 14),
    "org@ring-48@all@40": ("ring-48", "all", "org", 40),
    "org@scattered-70@low@2": ("scattered-70", "low", "org", 2),
    "org@scattered-70@low@3": ("scattered-70", "low", "org", 3),
    "org@gapped-250-5@mid@6": ("gapped-250-5", "mid", "org", 6),
    "form@path-40@low@1": ("path-40", "low", "form", 1),
    "form@dense-800-3@low@24": ("dense-800-3", "low", "form", 24),
    "form@gapped-250-5@low@16": ("gapped-250-5", "low", "form", 16),
}

GOLDEN_STUCK = {
    "org@dense-250-2@low@1":
        "19ee96242f9b4a9561d162760345a25472d85c106d53f4aa438b421a8ab22613",
    "org@dense-250-2@low@2":
        "d7b41c2c0356dcde1268d92634492c2b3cf2188c2e473871481984778de08330",
    "org@dense-250-2@low@3":
        "5fded28aeb73739eda803abcfce1a996243f5b1a9de85d1e65cbd0e391a2c41f",
    "org@dense-800-3@mid@9":
        "6d950431939f8a6cdb79732bc968e3f0e2cbd0762d6f70bfa3d91f7135443e4f",
    "org@ring-48@all@3":
        "3f8e47a4490f5e0cf1a593130ac1b5f9b280cabb8ec2ec30ec19fc24062be6c3",
    "org@ring-48@all@14":
        "68d50e6ca2c2c0958f68e41865ff7e984ad2301a3c1d61c9e2179a2a1f86bb32",
    "org@ring-48@all@40":
        "5ea910ea56c51aa9788ec1dd87315de378bd240df8e3e9e5f472e77829ac9a0f",
    "org@scattered-70@low@2":
        "088a4d5f6b0c4c5a298cf68d2e241718fdbc69345c70166d88fa63ab0043da93",
    "org@scattered-70@low@3":
        "afa6557bd089e2922cc55da6cc641697bc8999dcbcd92f5e4abeb69a117ab01c",
    "org@gapped-250-5@mid@6":
        "702b49a4174c29f34b4ccffdeb51d0b3ca44cd5b156e5c93f3baf17c73204d04",
    "form@path-40@low@1":
        "d104bf7614d8fd3e1fb00602bd9b20356ae1866e85bb0fac81fde51f70162e78",
    "form@dense-800-3@low@24":
        "98977159edadc464f0dd31d4d1fadaaa0351bdb3ded9b661d146f8cf0eb140f8",
    "form@gapped-250-5@low@16":
        "b0b1a9bc48c936b2f8595e8635ff774faceaed4c320fe95b0d5db98d60fe7f17",
}


@pytest.mark.parametrize("name", COMPONENT_CASES)
def test_components_match_recorded_protocols(name):
    assert component_digests(COMPONENT_GRAPHS[name]()) == GOLDEN[name]


@pytest.mark.parametrize("name", list(STUCK_CASES))
def test_round_limit_names_recorded_stuck_nodes(name):
    graph, level, run, max_rounds = STUCK_CASES[name]
    g = COMPONENT_GRAPHS[graph]()
    if run == "org":
        call = organisation(g, level)
    else:
        call = functools.partial(boundary.form_components, g, classes_of(g, level))
    assert stuck_digest(call, max_rounds) == GOLDEN_STUCK[name]
