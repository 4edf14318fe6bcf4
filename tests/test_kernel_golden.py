"""The aggregation, value-flood, classification and distance-flood round
kernels against recorded runs of the object protocols they replaced.

The digests below were taken from the per-node `_AggNode`, `_FloodNode`,
`_ClassifyNode` and `_DistNode` state machines run through
`simkernel.run_protocol` (see CHANGES.md), on the graphs of
`test_tree_golden.py`.  Each call's entry covers its output, the per-ID
ledger (rebuilt from the trace, as in `test_tree_golden.py`), the trace
text and the round and delivery counts; the stuck cases cover the nodes
named when `max_rounds` runs out.  `broadcast_down` now returns the one
value every node holds; the `flood` output digest hashes it as the per-ID
list it used to return, None at unused IDs.

The `agg_hist` ledger and trace digests were re-recorded when histogram
messages became the window of nonzero bins (see CHANGES.md); their
outputs, rounds, deliveries and stuck digest were the recorded ones
until histogram leaves fell silent (a parent holds each leaf child's
bin).  Then the ledger, trace, rounds, deliveries and stuck digest were
re-recorded: the new trace is the old one without its round-0 lines
(the leaves'), every later round lowered by one, and the outputs are
the recorded ones (see CHANGES.md).

The `flood` ledger, trace, rounds and deliveries were re-recorded when the
value flood became a broadcast down the tree, re-sent only by nodes with
children; its outputs are the recorded ones.  Its stuck digests name the
recorded nodes and were re-recorded when the broadcast's state name, a
flag that always read False there, gave way to the kernel's name.  The
`distance` and `distance_mixed` ledger and trace digests were re-recorded
when a distance message stopped charging the distance field its receiver
never reads (3 id-units, not 4); their outputs, rounds, deliveries and
stuck digests are the recorded ones (see CHANGES.md for both).

When the distance flood stopped opening with the members' own broadcasts
(their neighbours start the waves at distance 1), the `distance` and
`distance_mixed` ledger, trace, round and delivery digests were
re-recorded; their outputs are the recorded ones.  The stuck digests of
the aggregation and value-flood cases were re-recorded when a round limit
began to name only the tree neighbours that act on the last round's
broadcasts, and those of the distance cases with the distance flood
change (see CHANGES.md for both).

The `agg_max@star@0` stuck case ran as `agg_sum@star@0` until SUM was
deleted; MAX stops in the same round at the same nodes, so its digest is
the recorded one.

When a runner-up distance message stopped carrying an anchor, the
`distance` and `distance_mixed` ledger and trace digests of the runs that
send one were re-recorded, and so were the stuck digests that name a
runner-up slot, whose state no longer shows an anchor; the outputs,
rounds, deliveries, broadcasts per node and every trace line's (round,
node, kind) are unchanged (see CHANGES.md).
"""

import functools
import io

import numpy as np
import pytest

from swarmtopo import boundary, convergetree
from swarmtopo.convergetree import AggOp
from conftest import (GOLDEN_CASES, GOLDEN_GRAPHS, below_20k, run_digests, sha, stuck_digest,
                      traced_costs, traced_senders)

BINS = 16


def calls(g) -> dict:
    """Every rewritten protocol call on `g`, as name -> call(trace=..., max_rounds=...)."""
    tree = convergetree.build_tree(g)
    deg = g.degrees()
    delta = int(deg[g.ids].max())
    thr = int(np.percentile(deg[g.ids], 25))
    mu_est = max(4, int(np.median(deg[g.ids])))
    classes = boundary.central_classify(g, thr)
    comp_of = boundary.form_components(g, classes).comp_of
    # scattered sources under five labels: competing waves, ties, dropped slots
    mixed = np.zeros(g.max_id + 1, dtype=np.int64)
    mixed[g.ids] = np.where(g.ids % 13 == 0, 1 + g.ids % 5, 0)
    agg = functools.partial(convergetree.aggregate, tree)
    return {
        "agg_max": functools.partial(agg, AggOp.MAX, deg),
        "agg_hist": functools.partial(agg, AggOp.HISTOGRAM_MERGE, deg, BINS),
        "flood": functools.partial(convergetree.broadcast_down, tree, (delta, thr)),
        "classify": lambda trace=None: boundary.classify(g, thr, trace=trace),
        "distance": functools.partial(boundary.distance_flood, g, comp_of, mu_est),
        "distance_mixed": functools.partial(boundary.distance_flood, g, mixed, mu_est),
    }


def output_bytes(g, name: str, out) -> bytes:
    if name == "flood":
        held = [None] * (g.max_id + 1)
        for v in g.id_list:
            held[v] = out
        return repr(held).encode()
    if name == "classify":
        return out.tobytes()
    if name.startswith("distance"):
        return b"".join(a.tobytes() for a in (out.hop, out.comp, out.hop2, out.comp2,
                                                out.anchor_q))
    return repr(out).encode()  # aggregate: the root's tuple


def kernel_digests(g) -> dict:
    """Per call: (output, ledger, trace) digests cut to 16 hex digits, rounds
    used and deliveries."""
    out = {}
    for name, call in calls(g).items():
        buf = io.StringIO()
        value, res = call(trace=buf)
        d = run_digests(res, buf.getvalue(), g.max_id + 1)
        out[name] = (sha(output_bytes(g, name, value))[:16], d["ledger"][:16], d["trace"][:16],
                     d["rounds_used"], d["deliveries"])
    return out


GOLDEN = {
    "dense-60-1": {
        "agg_max": ("5e784258e23111e5", "bf7f60bcb3956567", "86f7c9105e951825", 4, 1415),
        "agg_hist": ("9d1e3e5e22ef6158", "3677f8f5522ad2c2", "9edd0e8345cd3985", 3, 369),
        "flood": ("e2efa9f9015b1426", "20b20248d01646eb", "11d2c284f1ec1e11", 4, 384),
        "classify": ("8e09d95256b00074", "fe933624cccb6046", "785afb15a185c0ab", 2, 233),
        "distance": ("624aa8c39676c752", "ee87a965473689c7", "27a7c8af8af4df05", 3, 1197),
        "distance_mixed": ("2a1b0b84ab61863e", "92b7419f960f250f", "8bf539ae54f7c76a", 4, 2746),
    },
    "dense-250-2": {
        "agg_max": ("946edd5365af3ac1", "9ce9bea81240b24a", "1f178af2f86fdca9", 6, 7893),
        "agg_hist": ("81ab2a7947614f1e", "514944f0f27b30ef", "044a2dfdef2e4e7e", 5, 1390),
        "flood": ("36fa292d50e4f837", "dccaed024441af33", "9523a24493d09d76", 6, 1427),
        "classify": ("1394ece9621bad72", "e3ad40ccec4ad38e", "85a7e1e6513e26fe", 2, 1310),
        "distance": ("5a948b7623c8d715", "716490b3f8e1f12f", "0a800e4708dda6e6", 3, 6620),
        "distance_mixed": ("70bb20bd55a78c7f", "434b7526be10e9cd", "81e8485253e7ae48", 4, 15238),
    },
    "dense-800-3": {
        "agg_max": ("5e6cb71c9fb89b8b", "115c3b66835822a4", "69a29ba8766709bf", 12, 26856),
        "agg_hist": ("23a0fd15613d75b2", "549c09efefa98327", "ce942e7d23b58f22", 11, 6171),
        "flood": ("e280506357d03fac", "e8a36ffae15867d4", "4f377c292322ee56", 12, 6203),
        "classify": ("21d920718ef86d00", "ed22032ef3527aa3", "9d27a1922376139c", 2, 4581),
        "distance": ("15518b1bff77e691", "e64448e491285532", "9a2acd5a5b5ca226", 4, 22307),
        "distance_mixed": ("e6ee270902416850", "addfac5bf545dfc6", "a67b0d80daccc82e", 4, 51746),
    },
    "gapped-60-4": {
        "agg_max": ("bcd913dfeb5d41b0", "fc84a2193df9daf9", "7d4296b7cce403bb", 4, 1440),
        "agg_hist": ("eb3f3aee6dcca56a", "1f10b8946b46148e", "1eeb6bbe9bd2e637", 3, 223),
        "flood": ("8992a5a7b245dfb3", "aa8b54b9e64de509", "0845b56f4d573352", 4, 259),
        "classify": ("42346441e8aa6f24", "258592ecc24f5ccb", "c3865eef7630649e", 2, 244),
        "distance": ("3e6c8d6d7a3a35cb", "02c5b109bb8635e4", "8c92f7b0c90de935", 3, 1232),
        "distance_mixed": ("cfa3f522af41d067", "9dd59b03fa550c05", "4f8b4ae03f033159", 3, 2829),
    },
    "gapped-250-5": {
        "agg_max": ("565485e2f475d4f8", "961e03297ba655d9", "43ebd625d8fe1d60", 7, 7642),
        "agg_hist": ("ae6672d15b77d4d6", "e24a932ee97aa9ba", "d2894e13197bc372", 6, 1512),
        "flood": ("befc1d98c4102fa4", "c536f8863650a6cd", "fc51597006164925", 7, 1560),
        "classify": ("bd659dcba622561c", "30865085d72ef892", "5380bef40d7309a3", 2, 1207),
        "distance": ("4c12f69145083a21", "1205d4a49de869ab", "6f6541e9bd985445", 3, 6483),
        "distance_mixed": ("05c9d3adb9332efd", "a77565dbb4ffa3fc", "92ed26bd04ce6b9d", 4, 14923),
    },
    "gapped-800-6": {
        "agg_max": ("6a412d8e85377701", "9e4bd0febf6314ca", "74f0c0acfa619587", 9, 26820),
        "agg_hist": ("552dc65b9a42e17f", "54c32c70ebc35b5c", "bfe80812e3c02b75", 8, 5270),
        "flood": ("81143852fb888859", "aff20b2f32579229", "5ed59fb03dd92438", 9, 5310),
        "classify": ("25141a9e65103a1e", "b8a258196673f6a9", "c6ca8e2c8e330f84", 2, 5317),
        "distance": ("a1cd26bd04caa33d", "51b0b6212e70ee15", "ec23d752dfde1b78", 8, 48403),
        "distance_mixed": ("b737dc6d3e9f74a0", "8580cd98437d95ed", "13b5844c5edf3550", 3, 51467),
    },
    "crowded-400-7": {
        "agg_max": ("f1910fba870528eb", "fd5dbbd56ec467c7", "91c4dca58d610d44", 4, 55990),
        "agg_hist": ("b4ec7d72a7b8b4e3", "45a783967b234a55", "44a7b33412e9b10f", 3, 3205),
        "flood": ("e2e25047260af22c", "97a48e816648a61b", "bef485ba3a07ab5d", 4, 3297),
        "classify": ("3e4371b70973f0d5", "cca0434c9e0752fd", "be1ef80b7552115d", 2, 9455),
        "distance": ("ffd1cc98538d2eb1", "2c1700742ba250d4", "14ec1af25dd81907", 3, 46627),
        "distance_mixed": ("4da2b4608364a20c", "bbd12486a9af0553", "1b67bcd2e3758921", 3, 107765),
    },
    "path-40": {
        "agg_max": ("0555debc8a653494", "13cb6d551bd8490c", "2ce95b8a68178b4c", 21, 76),
        "agg_hist": ("4e25fc1acd254854", "7e548f6d6725d114", "6e12b90a77b25c42", 20, 74),
        "flood": ("e8d407d15662d992", "bf557f6b7bbaa50c", "351528dffbd1740a", 21, 76),
        "classify": ("aa30b652e011afde", "5b03895fae228b67", "22d4f3b23b4d38f5", 2, 78),
        "distance": ("83dd54a71d77b35c", "155e437b946ac82a", "e3b0c44298fc1c14", 1, 0),
        "distance_mixed": ("0b5ac36938708315", "b71ef0d173f3e2ff", "a0a0ca106fa1226a", 25, 150),
    },
    "star": {
        "agg_max": ("24a6ade6d35f1e5e", "c20b258c4772573b", "3dfb4628b2b07461", 3, 13),
        "agg_hist": ("06bff0d22e26eb4e", "7c70fdd27722df4c", "6ea066754ece9de3", 2, 7),
        "flood": ("875048d42a3ad3ff", "133478b0662d6a76", "fa617a991642a738", 3, 8),
        "classify": ("2390a7a9fef5efa6", "b03c36712b98a1d3", "761ab270c7b5d93a", 2, 7),
        "distance": ("3ef56b5e02bd0a9e", "1cc46714d0a9e999", "c8cced16f1bf4b57", 2, 7),
        "distance_mixed": ("28b153ab518476af", "b393978842a0fa3d", "e3b0c44298fc1c14", 1, 0),
    },
    "star-gapped": {
        "agg_max": ("3af5d6e7f9476d9d", "99ca389abdefae8c", "7a62d646f9bb1c31", 3, 11),
        "agg_hist": ("1eec05aa9ff005ba", "52a080120eb99ee2", "d6da13f1fe6385ec", 2, 6),
        "flood": ("6e017443327534fe", "4d380fbe2ea06bc5", "3e6da87a38e1e407", 3, 7),
        "classify": ("010b9011082f39ea", "a5cea860f08c7532", "b8e328cfa4fafe0a", 2, 6),
        "distance": ("9aaee97725b4940f", "b1360d1063a92c4c", "57d176fdf2d042e0", 2, 6),
        "distance_mixed": ("e1e7b5d593807119", "e1e91f947f89bcac", "e3b0c44298fc1c14", 1, 0),
    },
    "single": {
        "agg_max": ("91d6039a01f57163", "2ea9ab9198d16380", "e3b0c44298fc1c14", 1, 0),
        "agg_hist": ("f8944f48d8c72d14", "2ea9ab9198d16380", "e3b0c44298fc1c14", 1, 0),
        "flood": ("67178b43cb232b15", "2ea9ab9198d16380", "e3b0c44298fc1c14", 1, 0),
        "classify": ("d9c807b270afc4a7", "2413b3468072abaf", "05421ffbd465861e", 2, 0),
        "distance": ("d9a6b748f2070aa4", "2ea9ab9198d16380", "e3b0c44298fc1c14", 1, 0),
        "distance_mixed": ("7d668f1b3bb8ff07", "2ea9ab9198d16380", "e3b0c44298fc1c14", 1, 0),
    },
    "standard-20k": {
        "agg_max": ("b2f924132fcedfe9", "45ac825e2cfd2059", "c7505b491265d989", 29, 1521547),
        "agg_hist": ("b812be3bee79c9cd", "27f3d89b90fa9372", "42c617e22890d8c3", 28, 207935),
        "flood": ("57c5198060aaf02a", "cb9af7d1ef053b13", "14b82239b23f0578", 29, 208016),
        "classify": ("a3dbd096ef66642a", "939f5299ad81a830", "8b3c3b95f4138896", 2, 318462),
        "distance": ("a41684cd5b5a79ad", "ca1a371a0bf33782", "705863faad7e6e8f", 38, 2724794),
        "distance_mixed": ("b01f72eabce51efb", "e168b1e75b3a1c49", "9bb2c46df16900d3", 3, 2926405),
    },
}

STUCK_CASES = {
    "agg_hist@dense-250-2@3": ("dense-250-2", "agg_hist", 3),
    "agg_max@path-40@10": ("path-40", "agg_max", 10),
    "agg_max@star@0": ("star", "agg_max", 0),
    "flood@gapped-60-4@2": ("gapped-60-4", "flood", 2),
    "flood@path-40@5": ("path-40", "flood", 5),
    "distance@dense-250-2@2": ("dense-250-2", "distance", 2),
    "distance@gapped-800-6@3": ("gapped-800-6", "distance", 3),
    "distance_mixed@path-40@6": ("path-40", "distance_mixed", 6),
}

GOLDEN_STUCK = {
    "agg_hist@dense-250-2@3":
        "90f317d5122b23fd0545323fea1c77a20ebd310fcf0eee369f1bbd42aac39ff1",
    "agg_max@path-40@10":
        "9e25ad29b9fb16614956a89d2563818eb676af811fd5645f3f09af335bc958e8",
    "agg_max@star@0":
        "b83d337b5cad74d3237dc6aa0585769da95242727ce2e66b4a6962871008a919",
    "flood@gapped-60-4@2":
        "87b839dfa45ba8bde4d672acc64f4e8f24a011defe76bbec40bed1b829c82587",
    "flood@path-40@5":
        "c3195f028948b2da22564459e2836a0b24c83a878f6029e11ed10c60f818cfd7",
    "distance@dense-250-2@2":
        "1a233d51ff10c8bd3468f788f3a052a84b9bbf16c8c58b9e92a555d3dea28298",
    "distance@gapped-800-6@3":
        "38c313473c99722b3a98691089bb7f11a81017db59c45367df333437848bf4b1",
    "distance_mixed@path-40@6":
        "50dab24fa05a6c9a4b963216105be6e9fe625505ddb910a09702e77b4fd3717d",
}


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_kernels_match_recorded_protocols(name):
    assert kernel_digests(GOLDEN_GRAPHS[name]()) == GOLDEN[name]


@pytest.mark.parametrize("name", below_20k(GOLDEN_GRAPHS))
def test_kernels_match_recorded_protocols_in_small_pieces(name, small_pieces):
    test_kernels_match_recorded_protocols(name)


@pytest.mark.parametrize("name", list(STUCK_CASES))
def test_round_limit_names_recorded_stuck_nodes(name):
    graph, call, max_rounds = STUCK_CASES[name]
    assert stuck_digest(calls(GOLDEN_GRAPHS[graph]())[call], max_rounds) == GOLDEN_STUCK[name]


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_distance_flood_charges_declared_units(name):
    # a node sends its nearest component once, with the anchor, unless it
    # is a source, and its runner-up once, without it, if it has one; it is
    # charged exactly those traced messages at K_DIST's units, and the
    # ledger holds their totals
    g = GOLDEN_GRAPHS[name]()
    for call in ("distance", "distance_mixed"):
        buf = io.StringIO()
        field, res = calls(g)[call](trace=buf)
        _, kinds = traced_senders(buf.getvalue())
        assert set(kinds.tolist()) <= {boundary.K_DIST.code}
        nearest = ((field.comp != 0) & (field.hop >= 1)).astype(np.int64)
        runner_up = (field.comp2 != 0).astype(np.int64)
        sent, units = traced_costs(res, buf.getvalue(), g.max_id + 1)
        assert np.array_equal(sent, nearest + runner_up)
        assert np.array_equal(units, boundary.K_DIST.units(1) * nearest
                              + boundary.K_DIST.units(0) * runner_up)
