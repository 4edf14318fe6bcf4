"""The tree kernel against recorded runs of the object protocol it replaced.

The digests below were taken from the per-node `_TreeNode` state machine
run through `simkernel.run_protocol` (see CHANGES.md).  They cover the
final tree (root, parent, children, subtree size and n per node), the
completion rounds, both ledger arrays, the trace text, the round and
delivery counts, and the stuck nodes named when `max_rounds` runs out.

When round 0 stopped carrying self-announcements (a node adopts the largest
ID of its closed neighbourhood at once; see CHANGES.md), the completion,
ledger, trace, round, delivery and stuck digests were re-recorded.  The
`tree` digests were computed on the code before that change and after it,
and are equal.
"""

import functools
import io

import pytest

from swarmtopo import convergetree
from conftest import GOLDEN_GRAPHS, below_20k, run_digests, sha, stuck_digest


def tree_digests(g) -> dict:
    buf = io.StringIO()
    build = convergetree.build_tree(g, trace=buf)
    states = build.states
    rows, done = [], []
    for v in g.id_list:
        s = states[v]
        rows.append(f"{v},{s.root_id},{s.parent},{' '.join(str(int(c)) for c in s.children)},"
                    f"{s.subtree_size},{s.n_total}\n")
        done.append(f"{v},{s.completion_round}\n")
    return {"tree": sha("".join(rows)), "completion": sha("".join(done)),
            **run_digests(build.result, buf.getvalue())}


GOLDEN = {
    "dense-60-1": {
        "tree": "b8171c94fde90165d8d7677cc892208431a243c82b0a817030430ab375879833",
        "completion": "56386d3806f93eb35352eada000503536da74b3a52700f8bb1fe93f1aa9da6e5",
        "ledger": "e56e76aaf8c30e756de0f291b30c78a11beeaf56884d22d02eda0089aa26311d",
        "trace": "3d2cb3782089bbc09e63d59369962c05800c8feed7149445dac10c8e4473df16",
        "rounds_used": 10,
        "deliveries": 4247,
    },
    "dense-250-2": {
        "tree": "a49cafc13dc7e0ebbf9d293e33237aa559a0b6fdae5bfad1ea99c69622a8543c",
        "completion": "2f383356b750aa91df38091d871d1bdd23de48ed90ae72db2a3dc13608508992",
        "ledger": "f5edbd7ae9839f66a845a5a67c88c091643e61f1d026c8cb6b9e08446cb56dc2",
        "trace": "160baca0dfe3a48d95e7f0138866b9406975e85701eb1a4031ddf96e0a7b6983",
        "rounds_used": 16,
        "deliveries": 26898,
    },
    "dense-800-3": {
        "tree": "363ed03ae5e1c000476eabfaa44d0a6a44be75413a9c48ff2dc9f3eaa395e509",
        "completion": "5e4603b45894f09583e430ff69abde2a753cc04bc2cbf90492dc62349daed1a6",
        "ledger": "a36c8e38b6d799ca6268521d91c6793e85a801b99a239662eedae1eae158e39a",
        "trace": "595fc18080827d23288b434395d68fcf6a8b15b01a61e45dac681634de7a8247",
        "rounds_used": 34,
        "deliveries": 140254,
    },
    "gapped-60-4": {
        "tree": "77fc81012146734744cb9e5d89d8148e5c574053e9099f04e80feb19c31ff018",
        "completion": "8b2ec5ceff328a4efc0ef8b56b04e8d9514eaa2d68e30a6f69c0033352540efd",
        "ledger": "5f41d5c9138457fc800ebe106cb02d63c11abdebdd02aea942ecc77eaaed957a",
        "trace": "57f53e42fdc2d03e5c5de98df9133bdc59d5b90c6b5b31057fa4468da2b24ae6",
        "rounds_used": 9,
        "deliveries": 3540,
    },
    "gapped-250-5": {
        "tree": "5a9af23f3c71f8a0e87b9459b12a5172a7b42c18d142ab154cf9117ec2519474",
        "completion": "e0e06f95ea775f3fed4379c9d4189a6d3212b037eb460bb7cbc10de4d45454b5",
        "ledger": "95d1be8c05afc8f4cdc0f86a807eab6e0eac2c04eb4806f9f6249aeab79093ae",
        "trace": "6c7e75231a3e004955b1880474667ed488cace9a266b86532282117a11861671",
        "rounds_used": 19,
        "deliveries": 25931,
    },
    "gapped-800-6": {
        "tree": "58d904668d11ba10543a8963d24add4012e163beceac403e8d2968e1be9afc5e",
        "completion": "d3a2946c50c82c93b5111f6d07544dd5ffd02d6a2350b9e610a0d89600c6cb85",
        "ledger": "2d52f1ded01b2595385dd4d6d65445cc5fde9f7da818fa0a23941a79d1a172ad",
        "trace": "c2ca963ae1571892e7d44089c0ae828df3e085cfd6cb2a210c3e79454cc95ae6",
        "rounds_used": 25,
        "deliveries": 117192,
    },
    "crowded-400-7": {
        "tree": "1dbe90224c81021cdde65d578a37fb180b936ef119c610a3e75ce33c920256f2",
        "completion": "a470999ff5973964d82aed6191980146fed671a44ec35d1c6b6f88161c85817a",
        "ledger": "24ef72f7ec3179a392b72a4eaa0470ff4cc7b7870d4afdbe66f7c650fba40e22",
        "trace": "5f1c593b478ac4391159d83f04d509119e53af26b175e76347ed709259263bba",
        "rounds_used": 10,
        "deliveries": 166228,
    },
    "path-40": {
        "tree": "aaf7b78e4c4b2c099887ec681b9a721fa7a4e3c47159e18fa617705f3fac298b",
        "completion": "2d2d0cf7c1dbb0d218daec34c805eb975e6fa68e750fb2373d1159b82968ab16",
        "ledger": "41519750f69d2bfa82f305f65efd39377ccc56258f405e9facd83544cb5406c1",
        "trace": "af17e3fb578e4b1b375f47f87353fa452adc2927caefd49b53e5c0c43d1b50f4",
        "rounds_used": 60,
        "deliveries": 378,
    },
    "star": {
        "tree": "c8250743301c74900d32ba63b159d851e2ce03baf22b3fdd55d80116db35b89d",
        "completion": "afe6f8e131c0e28e9d45772db3596f1183ccc430c12ef74f0c6dff74115bd9fa",
        "ledger": "704f4b36d9fa358a735d59beca0983f12fba81beb948c00a8f9b4548e717477f",
        "trace": "3a4f69c9be3e6f984c17b005555c99d23709b2a0d0f2ae3f97c2096abf080971",
        "rounds_used": 6,
        "deliveries": 40,
    },
    "star-gapped": {
        "tree": "a030746e935a786efee9a44a503b1e77ca0955b1a6a4bb1e6b4ed2fa79f44a19",
        "completion": "75a904bd6004c066e2f884776166f67318988577bca7e16846953ea614fbf57c",
        "ledger": "a87774ca9192cfe175e7f426aa869497826115dc79e6bf458adb262ce534023b",
        "trace": "ae6d8a237eb25cc82fbfaabe5dc2f7cd2bc9ae7ab67c8cd74dc0990a5e15c5f1",
        "rounds_used": 6,
        "deliveries": 33,
    },
    "single": {
        "tree": "6572821ff075462072fea17befd8556911647dce4c4267876a74254cba511389",
        "completion": "1f7d024a028dc589f3615fd49fe1fe139cb9bd5ca3b3acfa73c9f2fad48a6ac1",
        "ledger": "2ea9ab9198d1638007400cd2c3bef1cc745b864b76011a0e1bc52180ac6452d4",
        "trace": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "rounds_used": 1,
        "deliveries": 0,
    },
    "standard-20k": {
        "tree": "9a1e249352553b7632dbd9db93fe897bc8bd67fdb1b62e98afd2a4b8a60e8fb3",
        "completion": "fa516fb3db9e11f9df809f67f3504131b85987535cbb4b65ea8bee62c851007a",
        "ledger": "297ff2fddef0659cc33452cda2236d9b5db2ef4989a77cbe52de5aaecd2be687",
        "trace": "859c3dbdb7470eaf9f1643fab1b9f62e20f6e2a6a897ee6dcdc75ac62a9d7083",
        "rounds_used": 85,
        "deliveries": 11625919,
    },
}

STUCK_CASES = {
    "dense-250-2@6": ("dense-250-2", 6),
    "gapped-60-4@3": ("gapped-60-4", 3),
    "path-40@20": ("path-40", 20),
    "star@0": ("star", 0),
}

GOLDEN_STUCK = {
    "dense-250-2@6":
        "8642cef57d75d75d6a1f9a4657c695f037fa26ad4530e660394f9534cc211d2c",
    "gapped-60-4@3":
        "4e4179d17ce3efa09827ad08bc22a3e70597c2e1dda44a75816c9a95f2c6a2d2",
    "path-40@20":
        "d4c8ffdb8af2caac197aa33dc687e1fe80d29d883ba1be9601d03389969650be",
    "star@0":
        "b83d337b5cad74d3237dc6aa0585769da95242727ce2e66b4a6962871008a919",
}


@pytest.mark.parametrize("name", GOLDEN_GRAPHS)
def test_tree_matches_recorded_protocol(name):
    assert tree_digests(GOLDEN_GRAPHS[name]()) == GOLDEN[name]


@pytest.mark.parametrize("name", below_20k(GOLDEN_GRAPHS))
def test_tree_matches_recorded_protocol_in_small_pieces(name, small_pieces):
    # a root that an earlier piece's equal root beat is not a new root
    test_tree_matches_recorded_protocol(name)


@pytest.mark.parametrize("name", list(STUCK_CASES))
def test_round_limit_names_recorded_stuck_nodes(name):
    graph, max_rounds = STUCK_CASES[name]
    run = functools.partial(convergetree.build_tree, GOLDEN_GRAPHS[graph]())
    assert stuck_digest(run, max_rounds) == GOLDEN_STUCK[name]
