"""Component formation against recorded runs.

`form_components` runs the max-ID flood kernel `_CompFloodRounds`, then
the organisation kernel `_CompOrgRounds` (join, relay aggregate, near
registration, convergecast to the roots), both on
`simkernel.run_protocol`.  GOLDEN pins the components, `comp_of`, the
flood's per-ID (root, parent, via) and the flood run (ledger, trace,
rounds, deliveries).  The components and `comp_of` are the digests
recorded before the organisation talked only along its convergecast tree.
The flood run was re-recorded when the flood began from what classify
told each node (its largest member neighbour) instead of a round of
members announcing themselves; the (root, parent, via) digests were
computed before that change and after it, and are equal (see
CHANGES.md).  The flood's digests and stuck cases were recorded while it
ran as per-node state machines on an executor that no longer exists; the
round kernel reproduces them unchanged.  GOLDEN_ORG pins the organisation
run (ledger, trace, rounds, deliveries) as it talks now, members and
their `via` relays alone, ending when the last root has its totals; it
was re-recorded when the totals stopped being echoed back down the tree,
and each new trace equals the old one without its echo lines.  Its
ledger and trace digests were re-recorded again when UP, UPF and JAGG
stopped carrying the root and relay their receivers already hold; the
broadcasts per node and every trace line's (round, node, kind) are
unchanged.  The stuck
cases cover the nodes named when `max_rounds` runs out, in the
organisation run alone and through `form_components` (see CHANGES.md for
the ones re-recorded with the organisation, and `form@path-40@low@1`,
re-recorded with the flood).  On `dense-800-3` and `gapped-250-5` the
organisation runs one round longer than the flood, so a cutoff reaches
it through `form_components` only in that last round.
"""

import functools
import io

import numpy as np
import pytest

from swarmtopo import boundary
from conftest import (COMPONENT_CASES, COMPONENT_GRAPHS, below_20k, component_traces,
                      flood_fields, run_digests, sha, stuck_digest, traced_costs, traced_senders)

def thresholds(g) -> dict:
    """A quarter of the nodes BOUNDARY or more, half of them, and all."""
    deg = g.degrees()[g.ids]
    return {"low": int(np.percentile(deg, 25)), "mid": int(np.percentile(deg, 50)),
            "all": int(deg.max())}


def classes_of(g, level: str) -> np.ndarray:
    return boundary.central_classify(g, thresholds(g)[level])


def component_digests(g) -> dict:
    """Per threshold: the components, `comp_of`, the flood's per-ID (root,
    parent, via) and flood ledger and trace digests (cut to 16 hex digits)
    with the flood's rounds and deliveries, and the ledger, trace, rounds
    and deliveries of the organisation run.  The trace splits by message
    kind."""
    out = {}
    for level in thresholds(g):
        buf = io.StringIO()
        classes = classes_of(g, level)
        fields = flood_fields(g, classes == int(boundary.NodeClass.BOUNDARY))
        res = boundary.form_components(g, classes, trace=buf)
        comps = repr([(c.component_id, c.members, c.size, c.near_set_size)
                      for c in res.components])
        runs = [run_digests(r, t, g.max_id + 1)
                for r, t in zip(res.results, component_traces(buf.getvalue()))]
        flood_run, org_run = ((d["ledger"][:16], d["trace"][:16], d["rounds_used"],
                               d["deliveries"]) for d in runs)
        out[level] = ((sha(comps)[:16], sha(res.comp_of.astype("<i8").tobytes())[:16],
                       sha(fields[:, g.ids].astype("<i8").tobytes())[:16]) + flood_run, org_run)
    return out


def organisation(g, level: str):
    """The organisation run alone, after the flood: run(max_rounds=...),
    on a new kernel at each call."""
    member = classes_of(g, level) == int(boundary.NodeClass.BOUNDARY)

    def run(max_rounds):
        kernel = boundary._CompOrgRounds(g, member, *flood_fields(g, member))
        return boundary.run_protocol(kernel, max_rounds)
    return run


# (components, comp_of, flood fields, flood ledger, flood trace, flood rounds,
# flood deliveries)
GOLDEN = {
    "dense-60-1": {
        "low": ("a679479364ead1b9", "a621746c7892c8ea", "d0817da9278a3c47",
                 "695a3010fb217383", "f1be222b6a8185c1", 6, 2662),
        "mid": ("bf2ef7c164971bc2", "2a5934fcf0c70936", "36a2c02ab5d498b8",
                 "4aead93cc2aa62b2", "4ddfef52f88e4f6f", 5, 2689),
        "all": ("ae62cf1c069de1d9", "cc34b7d210d7231f", "ffb924392d9fc83a",
                 "40f1386b131bdc85", "b8d461394eb39f04", 4, 2428),
    },
    "dense-250-2": {
        "low": ("0000d3c22ffb0f2a", "0e6d89a88571c1ba", "6149e02455dd21cd",
                 "8fd5496077c08f0b", "97edbbaba23e32f1", 11, 18912),
        "mid": ("6246c9f2a4d242f7", "129073d74ce0489f", "0b3cc5801631a219",
                 "98bf446f4776a7a7", "ce3fa5ffad59f6f3", 8, 17356),
        "all": ("1099afa02e7bfa86", "a9ffe474eb675870", "c7c41a5e447e79fe",
                 "1d3f1c09373f6830", "d22b8a673abdd282", 6, 16427),
    },
    "dense-800-3": {
        "low": ("833294dc7bb95cbf", "5a44e031e0efb320", "60ab2138ed2886fe",
                 "fc4d9db6edab92b9", "3c3a5c90fe4f20b0", 18, 61170),
        "mid": ("a1f616b7873c44e8", "eafdfad5bc82b06e", "d713a73a18a747ab",
                 "e700aa6c066e2621", "ea8f06b2f53bd0e6", 12, 92395),
        "all": ("e6e0f1b6ea957ef9", "3d3b3fb1fb7b3f81", "d51903f069ba14cd",
                 "369d6d3804287721", "bc802e2cfe41468a", 12, 95975),
    },
    "gapped-60-4": {
        "low": ("c94c4d82881ba4ad", "c58dbf8907b2ee17", "1cf82312ccb46f95",
                 "65b4faa7d95b01b1", "2d8382e6f4e41a73", 6, 1534),
        "mid": ("22fc461f8b00cc9d", "62d8bbc6c4bd28b5", "928590c1a9f78c8d",
                 "62d671df9fb3ea6a", "f2da4d0bbeeb3cf0", 4, 2366),
        "all": ("a64e00428c52c71a", "485787a1fb8a1133", "3c7abb111af8c6e4",
                 "2d468970749d0cb0", "e205a4e8d13124c2", 4, 1841),
    },
    "gapped-250-5": {
        "low": ("8c79228daf64fc95", "b17bf4e90dc14a92", "970b9e464ce17229",
                 "b4079c0adbc909c3", "712231ea74c5b479", 11, 15496),
        "mid": ("9af818eb141db3ee", "3f2775e41336cd33", "2263b577e9911785",
                 "0104e70eeb11d7f2", "8831138451a92077", 7, 17948),
        "all": ("0ea18cc1b08a59e8", "3d8dd915b30000f4", "81f0d3c18de00750",
                 "016e0c20611c5981", "ea997348e5260643", 7, 16038),
    },
    "gapped-800-6": {
        "low": ("aeef7ea53d49cbfa", "c54aa0a69f7e58c0", "63364c285baa246c",
                 "bee9e0671d2df06e", "32e356ea752eb0a3", 17, 64121),
        "mid": ("e9a0db7a9d1e6a74", "5ad3aee7fefb9f06", "3350c5a793863125",
                 "01cc5645c3d3116b", "cecf5d466607e9a5", 13, 103908),
        "all": ("53028e6114f13ebb", "9d65e1faab928cfa", "752ec2168900c058",
                 "43a073d0d7e8c274", "3288ebee01272cf3", 9, 79582),
    },
    "crowded-400-7": {
        "low": ("15659093e6096b71", "0be971cca07c7460", "9b8b71e9ea516507",
                 "3dca08b1be47d5cb", "32dfd8e386e4f4af", 5, 127696),
        "mid": ("165a8d26074c7c08", "d1ea7f9e06b2e3bc", "aea7b7de9ea1d19b",
                 "ffbbb2b2141131b0", "fac63cb641a07f7d", 5, 109615),
        "all": ("366e0bdd956ee7d7", "3aef4266e8fe12c0", "18a95b689cbe3255",
                 "313d79a7676b6edc", "81b9236e378fccd5", 4, 106130),
    },
    "path-40": {
        "low": ("95d148dab05f7178", "0bfef624fde7efd6", "18915577c53a90e9",
                 "e7492779eb3780a9", "749f3fe4187ca2e3", 21, 208),
        "mid": ("95d148dab05f7178", "0bfef624fde7efd6", "18915577c53a90e9",
                 "e7492779eb3780a9", "749f3fe4187ca2e3", 21, 208),
        "all": ("95d148dab05f7178", "0bfef624fde7efd6", "18915577c53a90e9",
                 "e7492779eb3780a9", "749f3fe4187ca2e3", 21, 208),
    },
    "star": {
        "low": ("971de99be39d33e0", "e9ce0ec84e99834a", "fa71b8677a4259d7",
                 "b4f1afe01a088140", "3bbf9c6b5a3b4698", 3, 13),
        "mid": ("971de99be39d33e0", "e9ce0ec84e99834a", "fa71b8677a4259d7",
                 "b4f1afe01a088140", "3bbf9c6b5a3b4698", 3, 13),
        "all": ("7f34dd8311627e20", "c64eae82d65ea8a2", "14de118e58c76891",
                 "d378284c2f607ba4", "fdb42e98ae84b8aa", 3, 19),
    },
    "star-gapped": {
        "low": ("391986f1be4ac813", "3374c11ced1ce430", "400d7d112bd03722",
                 "70254e2c5c687954", "3a619e8be2823612", 3, 11),
        "mid": ("391986f1be4ac813", "3374c11ced1ce430", "400d7d112bd03722",
                 "70254e2c5c687954", "3a619e8be2823612", 3, 11),
        "all": ("038efc4a45985220", "f8af770e03486812", "a3dc6b724b9b72a4",
                 "e99d4c1076d3a63e", "339a0d8cbb77a650", 3, 15),
    },
    "single": {
        "low": ("9aa85434bd91b320", "e788377f5d888e06", "411a08912d84815d",
                 "2ea9ab9198d16380", "e3b0c44298fc1c14", 1, 0),
        "mid": ("9aa85434bd91b320", "e788377f5d888e06", "411a08912d84815d",
                 "2ea9ab9198d16380", "e3b0c44298fc1c14", 1, 0),
        "all": ("9aa85434bd91b320", "e788377f5d888e06", "411a08912d84815d",
                 "2ea9ab9198d16380", "e3b0c44298fc1c14", 1, 0),
    },
    "standard-20k": {
        "low": ("70afba86faf34567", "dc3969e56f1f0c0f", "939d9a68d4faa423",
                 "bb8e9134758a255e", "5dd7c4dce3e74886", 47, 7124518),
        "mid": ("2b014fa293d7ebb3", "e55e356b3f0d7708", "b3116d1ce176216d",
                 "4363f69b03551c34", "63353687b70a2e55", 36, 8095331),
        "all": ("78942fd4eaf67f68", "7446afdc00978618", "c0d7e3201b3f5ff1",
                 "d5d0e94f61eb10e8", "2723336385ec9a4c", 29, 7699585),
    },
    "ring-48": {
        "low": ("8e7a9a049da83b23", "395a048334e7a147", "a72650d50c9fa587",
                 "a6bbfbadbaa53869", "cfc44b5a29b13176", 25, 318),
        "mid": ("8e7a9a049da83b23", "395a048334e7a147", "a72650d50c9fa587",
                 "a6bbfbadbaa53869", "cfc44b5a29b13176", 25, 318),
        "all": ("8e7a9a049da83b23", "395a048334e7a147", "a72650d50c9fa587",
                 "a6bbfbadbaa53869", "cfc44b5a29b13176", 25, 318),
    },
    "scattered-70": {
        "low": ("faf8f603854ee0db", "503b5ae13243555e", "a54a96ea244348ec",
                 "22d74477b41fd462", "531e344cdd35b468", 3, 7),
        "mid": ("d780db0387bd0e1d", "3e283c1ba397dbe2", "cd6f0b7f7df9621b",
                 "0f50bfcc1b8d5c1a", "e6d564d75a467c85", 5, 116),
        "all": ("93febdc2f99c911e", "e74c53ebe907ea3b", "7e549ae3f414088e",
                 "c1c0ac1da1da42ac", "c41ad83ccf965560", 6, 315),
    },
}

# (organisation ledger, trace, rounds, deliveries)
GOLDEN_ORG = {
    "dense-60-1": {
        "low": ("d5a2f3e94b53c8fe", "fcdf7e89bed07e69", 8, 2192),
        "mid": ("b018413f1a049336", "201632054539432b", 7, 2825),
        "all": ("b98782789c57b07f", "5962afa7d5a0c361", 6, 2845),
    },
    "dense-250-2": {
        "low": ("7c53bbc4bf81a455", "f146f7e2e04fdd48", 12, 8809),
        "mid": ("9825a2db747094f1", "277027e3d649c947", 10, 12370),
        "all": ("a0330da3b423da20", "fd061764a4e435e8", 8, 15823),
    },
    "dense-800-3": {
        "low": ("08422536e9edb9d7", "cb2c76256ff79771", 19, 26032),
        "mid": ("288bd1ed8677e7c4", "d0594330283110f5", 14, 43992),
        "all": ("17b0ebf58b6856f4", "a72b8fa25003fade", 14, 53744),
    },
    "gapped-60-4": {
        "low": ("1e10e1ac40d90e42", "8e509ac56eaeb279", 7, 1368),
        "mid": ("eb23b35c73a3f279", "4ca22c6d4063c566", 6, 2461),
        "all": ("7ab6a789a6436b1e", "4c66af60d016e954", 6, 2916),
    },
    "gapped-250-5": {
        "low": ("eee30399b3c9f333", "bd524f4fa4a12c88", 12, 7435),
        "mid": ("124d31e614f98d64", "53d2b216d2c6c6e2", 8, 12150),
        "all": ("6e079658da9a88cb", "d15026cfe91e2d54", 9, 15332),
    },
    "gapped-800-6": {
        "low": ("2e759df139097b88", "5937e2e2959fb611", 19, 26757),
        "mid": ("e46048e0d5f9e9b8", "7dc58160f88f0ac1", 15, 43700),
        "all": ("99342d3e1ae6146e", "4c3e6701a94191ea", 11, 53680),
    },
    "crowded-400-7": {
        "low": ("315e191548099c39", "6ea4a9cb40e8d9a9", 7, 74614),
        "mid": ("835788d7e755eeb9", "ec2d776ea8b3eb09", 7, 97814),
        "all": ("36bbd9ed9d87737b", "f4dce98dab514f8f", 6, 112072),
    },
    "path-40": {
        "low": ("83aae7c45cf70edc", "67b8a58428477ea7", 23, 154),
        "mid": ("83aae7c45cf70edc", "67b8a58428477ea7", 23, 154),
        "all": ("83aae7c45cf70edc", "67b8a58428477ea7", 23, 154),
    },
    "star": {
        "low": ("09529942f372e8c1", "0f16bbf313d410bf", 5, 69),
        "mid": ("09529942f372e8c1", "0f16bbf313d410bf", 5, 69),
        "all": ("bca9d61e39f9858e", "3955b5b5b117e68e", 5, 27),
    },
    "star-gapped": {
        "low": ("96bbceb72e23eed2", "0a8fb8144bdfd330", 5, 53),
        "mid": ("96bbceb72e23eed2", "0a8fb8144bdfd330", 5, 53),
        "all": ("c948be9e857a7329", "2919213d2a2b301a", 5, 23),
    },
    "single": {
        "low": ("5f53396c8adcbf1a", "d9c2d2c40634aa12", 3, 0),
        "mid": ("5f53396c8adcbf1a", "d9c2d2c40634aa12", 3, 0),
        "all": ("5f53396c8adcbf1a", "d9c2d2c40634aa12", 3, 0),
    },
    "standard-20k": {
        "low": ("09099d1d3d198f82", "9bbdbc9574289980", 49, 1653270),
        "mid": ("286eed24c31de5e3", "fe5236b0e039e3a9", 38, 2479037),
        "all": ("4a61a7b41cdab622", "5b56fb3b8951a0c7", 31, 3043175),
    },
    "ring-48": {
        "low": ("04c4c45d20101ec7", "da33c6ccbad8513a", 27, 190),
        "mid": ("04c4c45d20101ec7", "da33c6ccbad8513a", 27, 190),
        "all": ("04c4c45d20101ec7", "da33c6ccbad8513a", 27, 190),
    },
    "scattered-70": {
        "low": ("267f9e4d90ec55df", "94adfc17814c1c8d", 5, 38),
        "mid": ("c0a8162be15946ce", "0341ce589b0a91e7", 7, 208),
        "all": ("a0a054a131db02be", "81e90e7103fafa1f", 8, 369),
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
    "org@ring-48@all@26": ("ring-48", "all", "org", 26),
    "org@scattered-70@low@2": ("scattered-70", "low", "org", 2),
    "org@scattered-70@low@3": ("scattered-70", "low", "org", 3),
    "org@gapped-250-5@mid@6": ("gapped-250-5", "mid", "org", 6),
    "form@path-40@low@1": ("path-40", "low", "form", 1),
    "form@dense-800-3@low@18": ("dense-800-3", "low", "form", 18),
    "form@gapped-250-5@low@11": ("gapped-250-5", "low", "form", 11),
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
    "org@ring-48@all@26":
        "182bf89fa925d510466540bffa8cb92c71ad276929162b447ce31f7c218fdd29",
    "org@scattered-70@low@2":
        "a1f80abd9bd83514bae115325a93b92a222c74f490ccd41337f4c3028feb365b",
    "org@scattered-70@low@3":
        "650d9c6be3c864c73fea688c3721695ee25a7d3fe8c3ddbcbafaec90fa8733be",
    "org@gapped-250-5@mid@6":
        "af23173a7340ecd03dea87518f345aedfefff464f18eefeb574b07131a02525b",
    "form@path-40@low@1":
        "ebfaaac9073947beea3a6822939000e51b2efa62264fdee6b6f4dc4f5b280d16",
    "form@dense-800-3@low@18":
        "7ce57b78f8aa8ef031c34595beb1d18f141ba20cbc6fc252fe78f28222c3f169",
    "form@gapped-250-5@low@11":
        "925aad0b59d245b7b14bb82f77cd05f7912c822acc248db575c8ba4f539cb15c",
}


@pytest.mark.parametrize("name", COMPONENT_CASES)
def test_components_match_recorded_protocols(name):
    digests = component_digests(COMPONENT_GRAPHS[name]())
    assert {k: v[0] for k, v in digests.items()} == GOLDEN[name]
    assert {k: v[1] for k, v in digests.items()} == GOLDEN_ORG[name]


@pytest.mark.parametrize("name", below_20k(COMPONENT_GRAPHS))
def test_components_match_recorded_protocols_in_small_pieces(name, small_pieces):
    test_components_match_recorded_protocols(name)


@pytest.mark.parametrize("name", list(STUCK_CASES))
def test_round_limit_names_recorded_stuck_nodes(name):
    graph, level, run, max_rounds = STUCK_CASES[name]
    g = COMPONENT_GRAPHS[graph]()
    if run == "org":
        call = organisation(g, level)
        # a second call runs a new kernel, not the one the first spent
        assert stuck_digest(call, max_rounds) == stuck_digest(call, max_rounds)
    else:
        call = functools.partial(boundary.form_components, g, classes_of(g, level))
    assert stuck_digest(call, max_rounds) == GOLDEN_STUCK[name]


ORG_KINDS = {k.code: k for k in (boundary.K_JOIN, boundary.K_JAGG, boundary.K_NEAR, boundary.K_UP,
                                 boundary.K_UPF)}


@pytest.mark.parametrize("name", COMPONENT_CASES)
def test_organisation_charges_declared_units(name):
    # each node's traced organisation messages charge it their kinds'
    # units, and the ledger holds their totals; a relay's JAGG repeats
    # (member, parent) once per member naming it as `via`
    g = COMPONENT_GRAPHS[name]()
    for level in thresholds(g):
        classes = classes_of(g, level)
        member = classes == int(boundary.NodeClass.BOUNDARY)
        via = flood_fields(g, member)[2]
        named = np.bincount(via[g.ids[member[g.ids]]], minlength=g.max_id + 1)
        buf = io.StringIO()
        org = boundary.form_components(g, classes, trace=buf).results[1]
        lines = component_traces(buf.getvalue())[1]
        senders, kinds = traced_senders(lines)
        declared = [ORG_KINDS[k].units(named[v] if k == boundary.K_JAGG.code else 0)
                    for v, k in zip(senders.tolist(), kinds.tolist())]
        units = traced_costs(org, lines, g.max_id + 1)[1]
        assert np.array_equal(units, np.bincount(senders, weights=declared,
                                                 minlength=g.max_id + 1).astype(np.int64))
