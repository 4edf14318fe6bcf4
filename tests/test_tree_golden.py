"""The tree kernel against recorded runs of the object protocol it replaced.

The digests below were taken from the per-node `_TreeNode` state machine
run through `simkernel.run_protocol` (see CHANGES.md).  They cover the
final tree (root, parent, children, subtree size and n per node), the
completion rounds, the per-ID ledger (each node's broadcasts and
id-units), the trace text, the round and delivery counts, and the stuck
nodes named when `max_rounds` runs out.  The ledger keeps totals only, so
`run_digests` rebuilds the per-ID arrays from the trace, the same bytes
the recorded per-node ledger hashed.

When round 0 stopped carrying self-announcements (a node adopts the largest
ID of its closed neighbourhood at once; see CHANGES.md), the completion,
ledger, trace, round, delivery and stuck digests were re-recorded.  The
`tree` digests were computed on the code before that change and after it,
and are equal.  When REPORT and DONE stopped carrying the root their
receivers already hold, the ledger and trace digests were re-recorded;
the broadcasts per node and every trace line's (round, node, kind) are
unchanged (see CHANGES.md).  The same holds, with the same digests
re-recorded, since a round-0 STATE stopped naming the parent (there the
root) and a leaf's REPORT its size of 1.
"""

import functools
import io

import numpy as np
import pytest

from swarmtopo import convergetree
from swarmtopo.simkernel import run_protocol
from conftest import (GOLDEN_CASES, GOLDEN_GRAPHS, below_20k, run_digests, sha, stuck_digest,
                      traced_senders)


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
            **run_digests(build.result, buf.getvalue(), g.max_id + 1)}


GOLDEN = {
    "dense-60-1": {
        "tree": "b8171c94fde90165d8d7677cc892208431a243c82b0a817030430ab375879833",
        "completion": "56386d3806f93eb35352eada000503536da74b3a52700f8bb1fe93f1aa9da6e5",
        "ledger": "4bc4b3f46a0dc3cefb310902b0deb7fb83f0fd2303edf4dbac93ef777f5166f0",
        "trace": "c4d24af0d7241e39643e64d2126c6d90f50f2693eaeb4d1d48d3e55f98f35aec",
        "rounds_used": 10,
        "deliveries": 4247,
    },
    "dense-250-2": {
        "tree": "a49cafc13dc7e0ebbf9d293e33237aa559a0b6fdae5bfad1ea99c69622a8543c",
        "completion": "2f383356b750aa91df38091d871d1bdd23de48ed90ae72db2a3dc13608508992",
        "ledger": "4a1f632eff4fe064c4f78fcf406ff2907958a03bb9904ac085c047ebb7efb175",
        "trace": "103d5c9b96712831e6c2da72859c56558e920ffcfcff26171eeee460b25be61a",
        "rounds_used": 16,
        "deliveries": 26898,
    },
    "dense-800-3": {
        "tree": "363ed03ae5e1c000476eabfaa44d0a6a44be75413a9c48ff2dc9f3eaa395e509",
        "completion": "5e4603b45894f09583e430ff69abde2a753cc04bc2cbf90492dc62349daed1a6",
        "ledger": "ede4c185c8fcb674148b029d1d0ebe478d245b9cb056158b65a6c7f0e77d5040",
        "trace": "04cca43eb7b47a18fe6449b7b0794a0f669c3fef040ccc36b82e2316522bbb16",
        "rounds_used": 34,
        "deliveries": 140254,
    },
    "gapped-60-4": {
        "tree": "77fc81012146734744cb9e5d89d8148e5c574053e9099f04e80feb19c31ff018",
        "completion": "8b2ec5ceff328a4efc0ef8b56b04e8d9514eaa2d68e30a6f69c0033352540efd",
        "ledger": "88bf7a7aa79da5215a001564b13bff1aef2cb115d018909e78e2665c864ac69e",
        "trace": "e426ec02adb7731ede0a62895eb1bb61504f1b26008ed4f77c678f34e32a0525",
        "rounds_used": 9,
        "deliveries": 3540,
    },
    "gapped-250-5": {
        "tree": "5a9af23f3c71f8a0e87b9459b12a5172a7b42c18d142ab154cf9117ec2519474",
        "completion": "e0e06f95ea775f3fed4379c9d4189a6d3212b037eb460bb7cbc10de4d45454b5",
        "ledger": "b9513b8acc315185c5cb9f3caa24a3c30ae2333b484d5d746915d22aa903f6f7",
        "trace": "a3206189617a2a9ef60a574cbd6635ae9a896840a26aa95496ae4abf9ce92a8b",
        "rounds_used": 19,
        "deliveries": 25931,
    },
    "gapped-800-6": {
        "tree": "58d904668d11ba10543a8963d24add4012e163beceac403e8d2968e1be9afc5e",
        "completion": "d3a2946c50c82c93b5111f6d07544dd5ffd02d6a2350b9e610a0d89600c6cb85",
        "ledger": "bdf26e1070c983ca7680d06da9145e4fadd9a5b2b0ad92ce0b8861a5c6487074",
        "trace": "171edc32525890751d9cf6b04b23ddde5c96edafd29b2c6a05f855aa3b733d0d",
        "rounds_used": 25,
        "deliveries": 117192,
    },
    "crowded-400-7": {
        "tree": "1dbe90224c81021cdde65d578a37fb180b936ef119c610a3e75ce33c920256f2",
        "completion": "a470999ff5973964d82aed6191980146fed671a44ec35d1c6b6f88161c85817a",
        "ledger": "8ca9797b81b3a56ad9b38b97e9d508e821f19ebe48fb20222b316d015fd6cd6f",
        "trace": "34c07501f8e5ddcb73ec51afac6ea5143196c0f4b2f4e12fee561c6de7cd7746",
        "rounds_used": 10,
        "deliveries": 166228,
    },
    "path-40": {
        "tree": "aaf7b78e4c4b2c099887ec681b9a721fa7a4e3c47159e18fa617705f3fac298b",
        "completion": "2d2d0cf7c1dbb0d218daec34c805eb975e6fa68e750fb2373d1159b82968ab16",
        "ledger": "ad931e6645782c68c6fa67e0cab63f6d6ba443df246d0bb09ad9f7e3de0dda9d",
        "trace": "7d6baca4c6376969ed04503560d8aae6fbdf8cc13ac9806aa41a72661612ed94",
        "rounds_used": 60,
        "deliveries": 378,
    },
    "star": {
        "tree": "c8250743301c74900d32ba63b159d851e2ce03baf22b3fdd55d80116db35b89d",
        "completion": "afe6f8e131c0e28e9d45772db3596f1183ccc430c12ef74f0c6dff74115bd9fa",
        "ledger": "33a7295d52dc6722431115edf7efd05e7aaa201d4fe5f6164dbb10ef600a1c75",
        "trace": "434189fc3c2ef6f97354e6d0a7d656d01fe5d28350930b158803f6a15fa9950d",
        "rounds_used": 6,
        "deliveries": 40,
    },
    "star-gapped": {
        "tree": "a030746e935a786efee9a44a503b1e77ca0955b1a6a4bb1e6b4ed2fa79f44a19",
        "completion": "75a904bd6004c066e2f884776166f67318988577bca7e16846953ea614fbf57c",
        "ledger": "a88d6580f7a1aaaabbe46676ac5f02b7aac9107f5df1482d5e72fd589efabe01",
        "trace": "e869cc5eab0fdc86777ce46537f8f3a8d21cfbe13c4122b6a238e010f1abba16",
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
        "ledger": "f04fc10ec58419c12ef6f81460572b2bea4260479887a34f0b11defc46a04fe6",
        "trace": "583ee97d5bf629f35dd50218566e98488054581d336874f4d16d638f82cf6d59",
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


class _CheckedReports(convergetree._TreeRounds):
    """The tree kernel, checking in every round that the root each REPORT
    sender reported under is the root its neighbours hold for it
    (`said_root`) once the round's STATEs are settled, so that REPORT need
    not carry it."""

    reports = 0

    def _settle(self, rnd, msgs):
        s = msgs.get(convergetree.K_REPORT, self.ids[:0])
        reported = self.reported[s]
        out = super()._settle(rnd, msgs)
        assert np.array_equal(self.said_root[s], reported), rnd
        self.reports += len(s)
        return out


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_report_root_is_the_announced_root(name):
    kernel = _CheckedReports(GOLDEN_GRAPHS[name]())
    buf = io.StringIO()
    run_protocol(kernel, trace=buf)
    _, kinds = traced_senders(buf.getvalue())
    assert kernel.reports == (kinds == convergetree.K_REPORT.code).sum()
