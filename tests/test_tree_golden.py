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
unchanged (see CHANGES.md).
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
        "ledger": "c408d3543e78f47e85bfad39355cfe23f16e10db3eeb9a2a1c43a239819d092c",
        "trace": "776113f16add7c8479902f4307507cb7e411397b0c0f63af4f42b0846994669d",
        "rounds_used": 10,
        "deliveries": 4247,
    },
    "dense-250-2": {
        "tree": "a49cafc13dc7e0ebbf9d293e33237aa559a0b6fdae5bfad1ea99c69622a8543c",
        "completion": "2f383356b750aa91df38091d871d1bdd23de48ed90ae72db2a3dc13608508992",
        "ledger": "561e754e97afec6d3fe5d2f6061866e8265bd1acd201a81ef51312dc8aba4c7c",
        "trace": "b03d393856cd43c2b77d118522959a8132fa1d19cf62fd965b00873b8efd82b3",
        "rounds_used": 16,
        "deliveries": 26898,
    },
    "dense-800-3": {
        "tree": "363ed03ae5e1c000476eabfaa44d0a6a44be75413a9c48ff2dc9f3eaa395e509",
        "completion": "5e4603b45894f09583e430ff69abde2a753cc04bc2cbf90492dc62349daed1a6",
        "ledger": "7fa67a0930fe94033142f3761bbc6afcf3030d0354faff249a6a33172a353b5c",
        "trace": "af490ff6d3f48bfc8a6e11960df208746274b6523087c191c9a47455de98d820",
        "rounds_used": 34,
        "deliveries": 140254,
    },
    "gapped-60-4": {
        "tree": "77fc81012146734744cb9e5d89d8148e5c574053e9099f04e80feb19c31ff018",
        "completion": "8b2ec5ceff328a4efc0ef8b56b04e8d9514eaa2d68e30a6f69c0033352540efd",
        "ledger": "74cf321279271e6897c8d8db6c9220c1d13bec29ac688d8a1d898f2578e1b6f8",
        "trace": "70378fdc90dc8807ebc7a544e5de35e65e02e36ad172464a0e1ceab20289c180",
        "rounds_used": 9,
        "deliveries": 3540,
    },
    "gapped-250-5": {
        "tree": "5a9af23f3c71f8a0e87b9459b12a5172a7b42c18d142ab154cf9117ec2519474",
        "completion": "e0e06f95ea775f3fed4379c9d4189a6d3212b037eb460bb7cbc10de4d45454b5",
        "ledger": "1a60b44554bed13f8c932dc4d0784eacccd93424d1f6aa5b8b618f44fc34100a",
        "trace": "42f8d633983b5f49677bbed0c4afb20ae4f07c9d26ca4f260eb6b6dbfa5c27e1",
        "rounds_used": 19,
        "deliveries": 25931,
    },
    "gapped-800-6": {
        "tree": "58d904668d11ba10543a8963d24add4012e163beceac403e8d2968e1be9afc5e",
        "completion": "d3a2946c50c82c93b5111f6d07544dd5ffd02d6a2350b9e610a0d89600c6cb85",
        "ledger": "f7f511a13c049b17bc7cf6df1523f19410e4a64d55b6cf3805fc89d2ec4528ed",
        "trace": "5ad474fa3499b58d40d8bac29f25b60ae8abda3a9b1c89d8b2deb981c2ee54fb",
        "rounds_used": 25,
        "deliveries": 117192,
    },
    "crowded-400-7": {
        "tree": "1dbe90224c81021cdde65d578a37fb180b936ef119c610a3e75ce33c920256f2",
        "completion": "a470999ff5973964d82aed6191980146fed671a44ec35d1c6b6f88161c85817a",
        "ledger": "aa067f03d9ad4f7f9970be1fd13c2b49869907c0870aa61a4f920e0bf3040c86",
        "trace": "d00bfbff30839d3575727bf4c60a96cad35a2da54f5640eac89a3a0864eba3a3",
        "rounds_used": 10,
        "deliveries": 166228,
    },
    "path-40": {
        "tree": "aaf7b78e4c4b2c099887ec681b9a721fa7a4e3c47159e18fa617705f3fac298b",
        "completion": "2d2d0cf7c1dbb0d218daec34c805eb975e6fa68e750fb2373d1159b82968ab16",
        "ledger": "63cd806dd44f5ffb897afdcfd9fdc5954f409ec976c0aa129db8987333b40cd9",
        "trace": "3da99f1d6640e1baf0706d1ed6cd1933775c9364471e197e649eaa4acd465a4e",
        "rounds_used": 60,
        "deliveries": 378,
    },
    "star": {
        "tree": "c8250743301c74900d32ba63b159d851e2ce03baf22b3fdd55d80116db35b89d",
        "completion": "afe6f8e131c0e28e9d45772db3596f1183ccc430c12ef74f0c6dff74115bd9fa",
        "ledger": "6ae5153d30f1459b619da227ff4b0f62dbec4f09a1fbc0f1a11bb21cb8af6f22",
        "trace": "e4d6f443ffcf3cd109613357c57677261e89e52518e121584a3a9ccf291a8407",
        "rounds_used": 6,
        "deliveries": 40,
    },
    "star-gapped": {
        "tree": "a030746e935a786efee9a44a503b1e77ca0955b1a6a4bb1e6b4ed2fa79f44a19",
        "completion": "75a904bd6004c066e2f884776166f67318988577bca7e16846953ea614fbf57c",
        "ledger": "39e4bb309a31b9138a25057674aba249a1a5eadf4f64c06409332ee71e17c88a",
        "trace": "c02e8269946bca43aac4757b5f826ac2abaacf3adecca03b7f14b529b0430579",
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
        "ledger": "7d23132f233702dbead63ca378972079e4420c5b8a4e3f1ba50eafbed6c639c2",
        "trace": "3e35276c657016cc2a22550d642333b2819eb030bddf98346b6a9682f68cef8c",
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
