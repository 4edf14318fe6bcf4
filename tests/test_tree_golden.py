"""The tree kernel against recorded runs of the object protocol it replaced.

The digests below were taken from the per-node `_TreeNode` state machine
run through `simkernel.run_protocol` (see CHANGES.md).  They cover the
final per-node states, both ledger arrays, the trace text, the round and
delivery counts, and the stuck nodes named when `max_rounds` runs out.
"""

import functools
import io

import pytest

from swarmtopo import convergetree
from conftest import GOLDEN_GRAPHS, run_digests, sha, stuck_digest


def tree_digests(g) -> dict:
    buf = io.StringIO()
    build = convergetree.build_tree(g, trace=buf)
    states = build.states
    rows = []
    for v in g.id_list:
        s = states[v]
        rows.append(f"{v},{s.root_id},{s.parent},{' '.join(str(int(c)) for c in s.children)},"
                    f"{s.subtree_size},{s.n_total},{s.completion_round}\n")
    return {"states": sha("".join(rows)), **run_digests(build.result, buf.getvalue())}


GOLDEN = {
    "dense-60-1": {
        "states": "dc974028d85f2cea9d25fd6e24c519f8b7ab0d734022b0ad19a59d730172fff5",
        "ledger": "1e628c1fc94fbc634ae61e686ae775cf2958e1e89c2d7a8f48b9a2c08caec507",
        "trace": "3d69a1251bf20ab193b1a6bed34bb6d333bd85929021d81f9bbf1faec7fc7728",
        "rounds_used": 11,
        "deliveries": 5677,
    },
    "dense-250-2": {
        "states": "f749dd704e04acf7f9f0f7dfa60fd160f5af8ffe0ee92a7836072283e74df767",
        "ledger": "9717b4ba99557658114a55a3b03ba091293c39a5a5a56b2656239dbc7fcda9a0",
        "trace": "6cd40fabf3966fa56cff562ffa80952781d51c93d89ca34fe904cc694465c105",
        "rounds_used": 17,
        "deliveries": 34828,
    },
    "dense-800-3": {
        "states": "93d85c8a980812d4051fd5554a6d1ff96ca8ae7bc2d9dcd62e15de0bb3848790",
        "ledger": "2920a60c98caed3d9b6e4ec11f5a5795aba58c732117f8843b6d0f6833e487c0",
        "trace": "2ff297e9bd049a4b259d9dc7a5038cebac96236a4b721dfb2eff2a675215cd2f",
        "rounds_used": 35,
        "deliveries": 167142,
    },
    "gapped-60-4": {
        "states": "dc427dcbb3293f294d82e07c9bf4f7c41d4a3ac16db08b51b7ad27135920132e",
        "ledger": "9e12de4db7923efbbcbcbbce7a470c786879b6ec63a8658d656ddac98058870f",
        "trace": "4e267b086b059c87384cabf8fd890729b318eef694ac593b39a359c413f06cf8",
        "rounds_used": 10,
        "deliveries": 5016,
    },
    "gapped-250-5": {
        "states": "b0c448ebccac5de70e5b29f1b8befcd55645cd19356081f355652ceb98e4c171",
        "ledger": "4bac2e1354f7fa08f444e32620117de53d144767b84acd48655a87ff8980b1dc",
        "trace": "d62bcc2fb51ee0c2ea122faa34498c69562ec05f5af508f32a8b845aab351693",
        "rounds_used": 20,
        "deliveries": 33621,
    },
    "gapped-800-6": {
        "states": "dad83d6f5fa34185c78258b1e7e23be9e4ffc97ec6739dced0d3afa0deccba96",
        "ledger": "0eedf631d83e34a230e225b1dbd9ae7a3fe9cff03cbae4561c11b16a78e4de0d",
        "trace": "43fb276b9774b4eb5c35de7bcb4e2302c64f51066c0c82e1e9505e12b41672eb",
        "rounds_used": 26,
        "deliveries": 144052,
    },
    "crowded-400-7": {
        "states": "9c150c041bb49f1d71e2cf3eb484fc51b98671180e8774e8bdd601c2a9a394f1",
        "ledger": "2f23881b1be03d6cef85c6666d1a0ae456233a586335735a9ee872659d3f495f",
        "trace": "aa5fc0dfb18f4ef8eb89d9f2e037b63b60a7e6bf049135a499a45d279705ed00",
        "rounds_used": 11,
        "deliveries": 222310,
    },
    "path-40": {
        "states": "b1373b787dbbf8c79dc5824ca900fbb45fcbb317c4527a14a1facadd0225fbe6",
        "ledger": "04288d777cb034aebaf0fbba0069edc4d46889beed8abae72e74736671a1a801",
        "trace": "a630c1925fec9b00fac30aa408315dda751941e5522d866d5f678828ce862c6a",
        "rounds_used": 61,
        "deliveries": 456,
    },
    "star": {
        "states": "44a9bd68a010a5b8fda807fd5f599683e7f7d99ff9c710a3aee7e62e58d29bb0",
        "ledger": "ff5b5537847bc423a170f0b1de5aaac2497203049e0ff237e2f10666a6773746",
        "trace": "8781d22ad877e88959308557aeac82ceb6162d072926662cff833ea6f553f1fe",
        "rounds_used": 7,
        "deliveries": 60,
    },
    "star-gapped": {
        "states": "ad412dda62613098a08dbeee81d54a04d682e0bc3852c71766c2619cd1222d45",
        "ledger": "e91443b05e7b68d643a1a70a17727e51c4c06382f4bf0783d31c5f53f4a7c471",
        "trace": "3407ab1f02da945e75c2cc7d64b085d41e768c23233b1067b36f3e590e6bae60",
        "rounds_used": 7,
        "deliveries": 49,
    },
    "single": {
        "states": "733b7e1765a36b901ffce1ec7b18d0ccc9d42437423e52221a0d4430454a4c90",
        "ledger": "2ea9ab9198d1638007400cd2c3bef1cc745b864b76011a0e1bc52180ac6452d4",
        "trace": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "rounds_used": 1,
        "deliveries": 0,
    },
    "standard-20k": {
        "states": "bf66aa8415cba7e637c3f5a05403a36434b437eabb25ec3285e67d9f50a6b7fc",
        "ledger": "d809bbe556fecb4524b16acb13c2e526fdb24fe3d66b4be7b147e6f52ed5c402",
        "trace": "4a7ddab48c4e5cb7a96d520b389d0597b26a0613c41dd4b136695d4d40aead98",
        "rounds_used": 86,
        "deliveries": 13147547,
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
        "72417199a2595e0183f6f7d4acd3ac46a7b715597c6e74e24416841de8f6ebac",
    "gapped-60-4@3":
        "c8e2abb948172720dc29c86c103a71723acc8eccded151fa632dd8413979db06",
    "path-40@20":
        "407309be550f1e732f2b578c7f9d7727e3a3714ba37efe38d316188b1dfcec26",
    "star@0":
        "b83d337b5cad74d3237dc6aa0585769da95242727ce2e66b4a6962871008a919",
}


@pytest.mark.parametrize("name", GOLDEN_GRAPHS)
def test_tree_matches_recorded_protocol(name):
    assert tree_digests(GOLDEN_GRAPHS[name]()) == GOLDEN[name]


@pytest.mark.parametrize("name", list(STUCK_CASES))
def test_round_limit_names_recorded_stuck_nodes(name):
    graph, max_rounds = STUCK_CASES[name]
    run = functools.partial(convergetree.build_tree, GOLDEN_GRAPHS[graph]())
    assert stuck_digest(run, max_rounds) == GOLDEN_STUCK[name]
