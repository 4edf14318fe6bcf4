"""Component formation against recorded runs.

`form_components` runs the max-ID flood `_CompFloodNode` on
`simkernel.run_protocol`, then the organisation kernel `_CompOrgRounds`
(join, relay aggregate, near registration, convergecast, totals echo).
GOLDEN pins the components, `comp_of` and the flood (ledger, trace,
rounds, deliveries) to digests recorded before the organisation talked
only along its convergecast tree; they are unchanged by that protocol
change.  GOLDEN_ORG pins the organisation run (ledger, trace, rounds,
deliveries) as it talks now, members and their `via` relays alone.  The
stuck cases cover the nodes named when `max_rounds` runs out, in the
organisation run alone and through `form_components` (see CHANGES.md for
the ones re-recorded with the organisation).
"""

import functools
import io

import numpy as np
import pytest

from swarmtopo import boundary
from conftest import (COMPONENT_CASES, COMPONENT_GRAPHS, flood_fields, run_digests, sha,
                      stuck_digest)

FLOOD_KINDS = {str(boundary.K_MC), str(boundary.K_MF)}


def thresholds(g) -> dict:
    """A quarter of the nodes BOUNDARY or more, half of them, and all."""
    deg = g.degrees()[g.ids]
    return {"low": int(np.percentile(deg, 25)), "mid": int(np.percentile(deg, 50)),
            "all": int(deg.max())}


def classes_of(g, level: str) -> np.ndarray:
    return boundary.central_classify(g, thresholds(g)[level])


def component_digests(g) -> dict:
    """Per threshold: the components, `comp_of` and flood digests (cut to 16
    hex digits) with the flood's rounds and deliveries, and the same four
    for the organisation run.  The trace splits by message kind."""
    out = {}
    for level in thresholds(g):
        buf = io.StringIO()
        res = boundary.form_components(g, classes_of(g, level), trace=buf)
        comps = repr([(c.component_id, c.members, c.size, c.near_set_size)
                      for c in res.components])
        lines = buf.getvalue().splitlines(keepends=True)
        flood = "".join(line for line in lines if line.split(",")[2] in FLOOD_KINDS)
        org = "".join(line for line in lines if line.split(",")[2] not in FLOOD_KINDS)
        runs = [run_digests(r, t) for r, t in zip(res.results, (flood, org))]
        flood_run, org_run = ((d["ledger"][:16], d["trace"][:16], d["rounds_used"],
                               d["deliveries"]) for d in runs)
        out[level] = ((sha(comps)[:16], sha(res.comp_of.astype("<i8").tobytes())[:16])
                      + flood_run, org_run)
    return out


def organisation(g, level: str):
    """The organisation run alone, after the flood: run(max_rounds=...)."""
    member = classes_of(g, level) == int(boundary.NodeClass.BOUNDARY)
    return boundary._CompOrgRounds(g, member, *flood_fields(g, member)).run


# (components, comp_of, flood ledger, flood trace, flood rounds, flood deliveries)
GOLDEN = {
    "dense-60-1": {
        "low": ("a679479364ead1b9", "a621746c7892c8ea", "0fd441d1099b22b2", "c693f5d936105696",
                 7, 2929),
        "mid": ("bf2ef7c164971bc2", "2a5934fcf0c70936", "fca1dd1a7bdaff6b", "05723f181a2ed309",
                 6, 3188),
        "all": ("ae62cf1c069de1d9", "cc34b7d210d7231f", "60f6e451dc78b44d", "dd4493f6e412c964",
                 5, 3858),
    },
    "dense-250-2": {
        "low": ("0000d3c22ffb0f2a", "0e6d89a88571c1ba", "cbacd13853357eea", "82366fb1d97fa6eb",
                 12, 20548),
        "mid": ("6246c9f2a4d242f7", "129073d74ce0489f", "2069b6a0f036cbc2", "62ad61029381a7de",
                 9, 20631),
        "all": ("1099afa02e7bfa86", "a9ffe474eb675870", "d894932f5919e06d", "093222e2b7bf8c40",
                 7, 24357),
    },
    "dense-800-3": {
        "low": ("833294dc7bb95cbf", "5a44e031e0efb320", "5331c9679cbb032a", "a3d2c705d982ec81",
                 19, 67941),
        "mid": ("a1f616b7873c44e8", "eafdfad5bc82b06e", "0edc193418f13b73", "d560e70d7f822aa7",
                 13, 105090),
        "all": ("e6e0f1b6ea957ef9", "3d3b3fb1fb7b3f81", "ce72b70724e317ab", "1d4b9eb9ed3f50eb",
                 13, 122863),
    },
    "gapped-60-4": {
        "low": ("c94c4d82881ba4ad", "c58dbf8907b2ee17", "da2d839c5c9ef01e", "43bbc324f8cb9950",
                 7, 1873),
        "mid": ("22fc461f8b00cc9d", "62d8bbc6c4bd28b5", "041d515ca2e91cc0", "426df253086a1a19",
                 5, 2914),
        "all": ("a64e00428c52c71a", "485787a1fb8a1133", "912b2bbbad39d0b3", "37efc299ed2d4e38",
                 5, 3317),
    },
    "gapped-250-5": {
        "low": ("8c79228daf64fc95", "b17bf4e90dc14a92", "665b468a6901f640", "e6ce8bcfc8ecf0f1",
                 12, 17322),
        "mid": ("9af818eb141db3ee", "3f2775e41336cd33", "9bc225bff1e2e92b", "3b91dd4ef074118b",
                 8, 21432),
        "all": ("0ea18cc1b08a59e8", "3d8dd915b30000f4", "c2ed5d523af170d9", "4aaac73a1afeedca",
                 8, 23728),
    },
    "gapped-800-6": {
        "low": ("aeef7ea53d49cbfa", "c54aa0a69f7e58c0", "6a7fb7cfdfc7fe51", "4f2acae45261b93d",
                 18, 71350),
        "mid": ("e9a0db7a9d1e6a74", "5ad3aee7fefb9f06", "10f53ee45b084a6e", "b0efe0fb1c194fa7",
                 14, 116435),
        "all": ("53028e6114f13ebb", "9d65e1faab928cfa", "4a3a0a2da2ec0204", "ef589ebdb20b5663",
                 10, 106442),
    },
    "crowded-400-7": {
        "low": ("15659093e6096b71", "0be971cca07c7460", "c9783bcda7058aa4", "248e5a8cee47db5f",
                 6, 137983),
        "mid": ("165a8d26074c7c08", "d1ea7f9e06b2e3bc", "6b6ca9ca6af85ecc", "7991d03fd9daf856",
                 6, 130879),
        "all": ("366e0bdd956ee7d7", "3aef4266e8fe12c0", "4ceebfbbebc3763e", "cfc3ba2eb7a39750",
                 5, 162212),
    },
    "path-40": {
        "low": ("95d148dab05f7178", "0bfef624fde7efd6", "aeda82b8696891f8", "6f570967ee9b8117",
                 22, 286),
        "mid": ("95d148dab05f7178", "0bfef624fde7efd6", "aeda82b8696891f8", "6f570967ee9b8117",
                 22, 286),
        "all": ("95d148dab05f7178", "0bfef624fde7efd6", "aeda82b8696891f8", "6f570967ee9b8117",
                 22, 286),
    },
    "star": {
        "low": ("971de99be39d33e0", "e9ce0ec84e99834a", "8a2e6ff7f4384482", "0fcdc0618b3630a9",
                 4, 20),
        "mid": ("971de99be39d33e0", "e9ce0ec84e99834a", "8a2e6ff7f4384482", "0fcdc0618b3630a9",
                 4, 20),
        "all": ("7f34dd8311627e20", "c64eae82d65ea8a2", "5b956bbb66f06a64", "9888da5e10ba231e",
                 4, 33),
    },
    "star-gapped": {
        "low": ("391986f1be4ac813", "3374c11ced1ce430", "ec23fbee47ef9b3c", "64b5ab5e4ad1720f",
                 4, 17),
        "mid": ("391986f1be4ac813", "3374c11ced1ce430", "ec23fbee47ef9b3c", "64b5ab5e4ad1720f",
                 4, 17),
        "all": ("038efc4a45985220", "f8af770e03486812", "0f569b522c1e56e2", "32175685c7334f26",
                 4, 27),
    },
    "single": {
        "low": ("9aa85434bd91b320", "e788377f5d888e06", "fed03e92497129b1", "52eea727f7d50874",
                 2, 0),
        "mid": ("9aa85434bd91b320", "e788377f5d888e06", "fed03e92497129b1", "52eea727f7d50874",
                 2, 0),
        "all": ("9aa85434bd91b320", "e788377f5d888e06", "fed03e92497129b1", "52eea727f7d50874",
                 2, 0),
    },
    "standard-20k": {
        "low": ("70afba86faf34567", "dc3969e56f1f0c0f", "2d11f95043b38c6f", "13ff186e5e95302c",
                 48, 7531189),
        "mid": ("2b014fa293d7ebb3", "e55e356b3f0d7708", "ecb3f5b3c2195b00", "8e47c5b7d1286142",
                 37, 8812447),
        "all": ("78942fd4eaf67f68", "7446afdc00978618", "8d49e0c054ff7ce4", "2f63a45cda07615e",
                 30, 9221213),
    },
    "ring-48": {
        "low": ("8e7a9a049da83b23", "395a048334e7a147", "1fd60a4ae77d1154", "3f4adaa68777675b",
                 26, 414),
        "mid": ("8e7a9a049da83b23", "395a048334e7a147", "1fd60a4ae77d1154", "3f4adaa68777675b",
                 26, 414),
        "all": ("8e7a9a049da83b23", "395a048334e7a147", "1fd60a4ae77d1154", "3f4adaa68777675b",
                 26, 414),
    },
    "scattered-70": {
        "low": ("faf8f603854ee0db", "503b5ae13243555e", "b868ef43565de015", "a509c13175e273e3",
                 4, 34),
        "mid": ("d780db0387bd0e1d", "3e283c1ba397dbe2", "89f2d78778cfcadc", "acd65a4892c4d850",
                 6, 205),
        "all": ("93febdc2f99c911e", "e74c53ebe907ea3b", "9751d338d3315a11", "116ed62dddab2357",
                 7, 507),
    },
}

# (organisation ledger, trace, rounds, deliveries)
GOLDEN_ORG = {
    "dense-60-1": {
        "low": ("479c57de1fb0d3f9", "a74a0dee966dace7", 13, 2687),
        "mid": ("a83674571c17f5ba", "f5754b4133766881", 11, 3635),
        "all": ("2cb09c9f918d5c76", "e8bc1d65663d04ae", 10, 4275),
    },
    "dense-250-2": {
        "low": ("dadc0337562cf36b", "bf5eb678cb63db62", 22, 10451),
        "mid": ("83d5f5d9c5fa7d91", "d6c112761e654449", 18, 15964),
        "all": ("3cf9f41337cf2b7a", "7f731c84424c842d", 14, 23753),
    },
    "dense-800-3": {
        "low": ("00462fc8ed1e9eae", "bc84620565e8066f", 35, 31530),
        "mid": ("c28cf864404b43fb", "e127ec24d5401de3", 26, 57277),
        "all": ("2a9f21023cefdd7d", "496baa75c007c58c", 26, 80632),
    },
    "gapped-60-4": {
        "low": ("8e17bc341f469a59", "f1d8efde6368d4d1", 12, 1637),
        "mid": ("0b32ce83e0c07cb6", "ddc3b2870d834036", 10, 3151),
        "all": ("b04eccd0c3b369c9", "7be8227486c81f48", 10, 4392),
    },
    "gapped-250-5": {
        "low": ("106b3190eedb8c77", "1733fa49f9ef978a", 22, 8967),
        "mid": ("dc79857b18a2a17d", "9f0949748efcdfd8", 14, 15722),
        "all": ("a6f0da2f6782ef98", "6fc362b9275afbdc", 16, 23022),
    },
    "gapped-800-6": {
        "low": ("97ad2fba4a854edf", "bf08f67e0750351a", 35, 32953),
        "mid": ("2dde18c93b0965f3", "2faf4983dcd4c436", 28, 57190),
        "all": ("fab37b7190dbf9c9", "a05aa4a4b0ff552e", 20, 80540),
    },
    "crowded-400-7": {
        "low": ("479a0c77cfe916bd", "6a212b233c906ccc", 12, 85780),
        "mid": ("d40729d3556e0d76", "a180d71028ed6965", 12, 121198),
        "all": ("584a8288fa079976", "1b42d7190550ec68", 10, 168154),
    },
    "path-40": {
        "low": ("6c9eeed28df4bc31", "df2cdcb3d7cdc59f", 44, 232),
        "mid": ("6c9eeed28df4bc31", "df2cdcb3d7cdc59f", 44, 232),
        "all": ("6c9eeed28df4bc31", "df2cdcb3d7cdc59f", 44, 232),
    },
    "star": {
        "low": ("a4b8a74575be25ba", "e105ae316acc62ec", 8, 83),
        "mid": ("a4b8a74575be25ba", "e105ae316acc62ec", 8, 83),
        "all": ("0e1db1d23f9bd15d", "8ad6a43aac250b8e", 8, 41),
    },
    "star-gapped": {
        "low": ("9d7f9c4f3d57b1d7", "c1ddd1b48f322911", 8, 65),
        "mid": ("9d7f9c4f3d57b1d7", "c1ddd1b48f322911", 8, 65),
        "all": ("30a48964ade1dc2c", "ebbafcc06d4bd253", 8, 35),
    },
    "single": {
        "low": ("70b516067f47085a", "4b44b0ea068b44b5", 4, 0),
        "mid": ("70b516067f47085a", "4b44b0ea068b44b5", 4, 0),
        "all": ("70b516067f47085a", "4b44b0ea068b44b5", 4, 0),
    },
    "standard-20k": {
        "low": ("dec0371847e17f96", "f3fbf2f1b315a2e3", 95, 2004898),
        "mid": ("04741edce8603560", "5b08f0b6bb70152e", 74, 3232926),
        "all": ("c44d8dfdf141eade", "53c52ebcdabbd545", 60, 4564803),
    },
    "ring-48": {
        "low": ("0221da9c7e93cf6c", "5febf517ebadd7bb", 52, 286),
        "mid": ("0221da9c7e93cf6c", "5febf517ebadd7bb", 52, 286),
        "all": ("0221da9c7e93cf6c", "5febf517ebadd7bb", 52, 286),
    },
    "scattered-70": {
        "low": ("708361b7ffec15c5", "047abf0261728db1", 8, 54),
        "mid": ("33341cd51228bd9a", "b071dd227ad12b01", 12, 284),
        "all": ("a508a33bd4b39205", "4bb815306a643ddb", 14, 561),
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
        "3e49f429978825cd5e9bc1f93c8813b68f90d8a3f078aecd2af3271ab32f6e75",
    "org@dense-800-3@mid@9":
        "799ed8b8cf35d7bbd31daf74c1c0d79157409f2c7644914c3b8b5195b56fd294",
    "org@ring-48@all@3":
        "a90212fdda24d207a867044bff3c4124a0c93184a26ecf4aedbfdbae36ada4d4",
    "org@ring-48@all@14":
        "3c1f076519c9c9b67216505ab98e2a77dc5a062d52a735e05972a4fe8400b215",
    "org@ring-48@all@40":
        "65caf65c65ec0ee52447f4662d8326976ae7fc67e7450b66a14d8b15f084c028",
    "org@scattered-70@low@2":
        "a1f80abd9bd83514bae115325a93b92a222c74f490ccd41337f4c3028feb365b",
    "org@scattered-70@low@3":
        "133c980990f5cf69929d9cdafb9792344ae5e0042cc65ebb8960c3950a227155",
    "org@gapped-250-5@mid@6":
        "af23173a7340ecd03dea87518f345aedfefff464f18eefeb574b07131a02525b",
    "form@path-40@low@1":
        "d104bf7614d8fd3e1fb00602bd9b20356ae1866e85bb0fac81fde51f70162e78",
    "form@dense-800-3@low@24":
        "9f3eb0ac72bb15d6bb343f1b7c6cdcbc2496a2148a0a1fb9855f8d1232ce2d07",
    "form@gapped-250-5@low@16":
        "076818fab2ff048612265de698302914e0b0e0458117f61798f4d403f4d920e4",
}


@pytest.mark.parametrize("name", COMPONENT_CASES)
def test_components_match_recorded_protocols(name):
    digests = component_digests(COMPONENT_GRAPHS[name]())
    assert {k: v[0] for k, v in digests.items()} == GOLDEN[name]
    assert {k: v[1] for k, v in digests.items()} == GOLDEN_ORG[name]


@pytest.mark.parametrize("name", list(STUCK_CASES))
def test_round_limit_names_recorded_stuck_nodes(name):
    graph, level, run, max_rounds = STUCK_CASES[name]
    g = COMPONENT_GRAPHS[graph]()
    if run == "org":
        call = organisation(g, level)
    else:
        call = functools.partial(boundary.form_components, g, classes_of(g, level))
    assert stuck_digest(call, max_rounds) == GOLDEN_STUCK[name]
