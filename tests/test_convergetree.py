import numpy as np
import pytest

from swarmtopo import convergetree, netgraph
from swarmtopo.convergetree import AggOp
from swarmtopo.simkernel import RoundLimitExceeded
from conftest import graph_from, random_graph, star_graph


def test_tree_on_path():
    g = graph_from([(0, 0), (0.9, 0), (1.8, 0)])  # path 1-2-3
    build = convergetree.build_tree(g)
    convergetree.check_tree(g, build)
    st = build.states
    assert build.root_id == 3
    assert st[3].parent is None
    assert st[2].parent == 3
    assert st[1].parent == 2
    assert st[3].subtree_size == 3 and st[3].n_total == 3
    assert st[1].n_total == 3  # every node learns n


def test_tree_on_star():
    # center 7 with leaves 1..6 and 9: root must be leaf 9, center joins it
    g = star_graph(7, [1, 2, 3, 4, 5, 6, 9])
    build = convergetree.build_tree(g)
    convergetree.check_tree(g, build)
    assert build.root_id == 9
    assert build.states[7].parent == 9
    for leaf in (1, 2, 3, 4, 5, 6):
        assert build.states[leaf].parent == 7


def test_tree_single_node():
    g = graph_from([(0, 0)])
    build = convergetree.build_tree(g)
    convergetree.check_tree(g, build)
    assert build.root_id == 1
    assert build.states[1].n_total == 1


def test_tree_disconnected_raises():
    g = graph_from([(0, 0), (9, 9)])
    with pytest.raises((RoundLimitExceeded, RuntimeError)):
        convergetree.build_tree(g, max_rounds=50)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_tree_invariants_random(seed):
    g = random_graph(200, seed)
    build = convergetree.build_tree(g)
    convergetree.check_tree(g, build)  # spanning, acyclic, completion round


def test_aggregate_max_equals_oracle():
    g = random_graph(150, 8)
    build = convergetree.build_tree(g)
    (val,), _ = convergetree.aggregate(g, build.states, AggOp.MAX, g.degrees())
    assert val == netgraph.max_degree(g)


def test_aggregate_sum_of_ones_is_n():
    g = random_graph(120, 9)
    build = convergetree.build_tree(g)
    ones = np.ones(g.n + 1, dtype=int)
    (val,), _ = convergetree.aggregate(g, build.states, AggOp.SUM, ones)
    assert val == g.n


def test_aggregate_histogram_equals_centralized():
    g = random_graph(300, 10)
    build = convergetree.build_tree(g)
    hist = netgraph.histogram(g, 16)
    deg = g.degrees()
    onehots = {
        v: tuple(1 if netgraph.degree_bin(int(deg[v]), hist.delta, 16) == b else 0
                 for b in range(16))
        for v in range(1, g.n + 1)
    }
    merged, res = convergetree.aggregate(g, build.states, AggOp.HISTOGRAM_MERGE, onehots)
    assert list(merged) == hist.counts.tolist()
    # histogram convergecast messages carry 1 + bin_count units
    per_node = res.ledger.id_units_sent[1:]
    assert per_node.max() == 17 and set(per_node.tolist()) <= {0, 17}


def test_aggregate_cost_two_units():
    g = random_graph(80, 11)
    build = convergetree.build_tree(g)
    _, res = convergetree.aggregate(g, build.states, AggOp.MAX, g.degrees())
    sent = res.ledger.broadcasts_sent[1:]
    assert sent.sum() == g.n - 1  # everyone but the root reports once
    assert res.ledger.total_id_units == 2 * (g.n - 1)


def test_broadcast_down_reaches_everyone_once():
    g = random_graph(150, 12)
    build = convergetree.build_tree(g)
    values, res = convergetree.broadcast_down(g, build.states, (42,))
    assert all(values[v] == (42,) for v in range(1, g.n + 1))
    assert res.ledger.total_broadcasts == g.n  # exactly one broadcast per node


def test_broadcast_down_rounds_on_path():
    g = graph_from([(0.9 * i, 0) for i in range(6)], ids=[6, 1, 2, 3, 4, 5])
    build = convergetree.build_tree(g)
    assert build.root_id == 6  # sits at one end of the path
    _, res = convergetree.broadcast_down(g, build.states, (7,))
    assert res.rounds_used == 7  # 5 forwarding hops + initial + quiesce


def test_component_count_op_behaves_like_sum():
    g = random_graph(100, 13)
    build = convergetree.build_tree(g)
    flags = np.zeros(g.n + 1, dtype=int)
    flags[[2, 30, 77]] = 1
    (val,), _ = convergetree.aggregate(g, build.states, AggOp.COMPONENT_COUNT, flags)
    assert val == 3


@pytest.mark.slow
def test_tree_rebroadcast_budget_20k():
    # measured bound: flood re-announcements average well under 10/node
    from swarmtopo import cli, geometry
    from numpy.random import Generator, Philox
    region = cli.standard_region()
    pts = geometry.sample_uniform(region, 20000, seed=1)
    ids = Generator(Philox([1, 1])).permutation(20000) + 1
    g = netgraph.build_udg((ids, pts))
    build = convergetree.build_tree(g)
    convergetree.check_tree(g, build)
    total = build.result.ledger.total_broadcasts
    # subtract the one-time report and completion messages and the initial
    # announcement; what is left is the re-broadcast count
    rebroadcasts = (total - 3 * g.n) / g.n
    assert rebroadcasts <= 10.0
