import dataclasses
import io
import tracemalloc

import numpy as np
import pytest

from swarmtopo import convergetree, netgraph
from swarmtopo.convergetree import AggOp
from swarmtopo.simkernel import RoundLimitExceeded
from conftest import (graph_from, random_graph, standard_20k, star_graph, subtree_windows,
                      traced_costs)


def test_tree_on_path():
    g = graph_from([(0, 0), (0.9, 0), (1.8, 0)])  # path 1-2-3
    build = convergetree.build_tree(g)
    convergetree.check_tree(build)
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
    convergetree.check_tree(build)
    assert build.root_id == 9
    assert build.states[7].parent == 9
    for leaf in (1, 2, 3, 4, 5, 6):
        assert build.states[leaf].parent == 7


def test_tree_single_node():
    g = graph_from([(0, 0)])
    build = convergetree.build_tree(g)
    convergetree.check_tree(build)
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
    convergetree.check_tree(build)  # spanning, acyclic, completion round


def test_tree_memory_follows_nodes_not_ids():
    # 200 nodes under IDs up to 10**7.  The kernel's nine ID-indexed int64
    # state rows are the floor; a round settles over its deliveries and a
    # few passes over the rows, and the tree's check makes two copies of
    # `parent`, so each further ID-sized array kept or made counts against
    # the bound
    g = random_graph(200, 11, id_span=10**7)
    tracemalloc.start()
    try:
        build = convergetree.build_tree(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    convergetree.check_tree(build)
    id_array = 8 * (g.max_id + 1)
    assert peak < 12 * id_array, peak / id_array


def _path_tree(k):
    """The path 1-2-...-k and its tree (root k, chain k-...-2-1)."""
    g = graph_from([(0.9 * i, 0) for i in range(k)])
    build = convergetree.build_tree(g)
    convergetree.check_tree(build)
    return g, build


def _edited(build, field, v, value):
    """`build` with entry v of its array `field` set to value."""
    arr = getattr(build, field).copy()
    arr[v] = value
    return dataclasses.replace(build, **{field: arr})


@pytest.mark.parametrize("field, v, value, error, message", [
    # 1 hangs off 3, 1.8 apart
    ("parent", 1, 3, convergetree.NotSpanningTree, "tree edge is not a graph edge"),
    # 2 -> 1 -> 2: both are graph edges, but neither node reaches the root
    ("parent", 2, 1, convergetree.NotSpanningTree, "tree spans 2 of 4 nodes"),
    ("completion", 1, 99, AssertionError, "protocol completion round"),
    ("n_total", 4, 3, AssertionError, "root did not learn n"),
], ids=["non-graph-edge", "not-spanning", "completion-round", "root-n-total"])
def test_check_tree_rejects_edited_tree(field, v, value, error, message):
    # an edit that leaves no spanning tree over graph edges cannot make a
    # TreeBuild at all, so neither check_tree nor a tree wave ever sees it;
    # check_tree refuses the others
    g, build = _path_tree(4)
    with pytest.raises(error, match=message):
        convergetree.check_tree(_edited(build, field, v, value))


@pytest.mark.parametrize("v, value, spans", [(3, 2, 2), (2, 0, 3), (5, 4, 0)],
                         ids=["cycle", "second-root", "root-with-parent"])
def test_tree_build_refuses_a_cycle_or_a_second_root(v, value, spans):
    # the path 1-2-3-4-5 (root 5) with 3 -> 2 -> 3, with 2 a second root,
    # or with the root hanging off 4: only the root and the nodes on its
    # side of the edit reach it
    _, build = _path_tree(5)
    with pytest.raises(convergetree.NotSpanningTree, match=f"tree spans {spans} of 5 nodes"):
        _edited(build, "parent", v, value)


def test_tree_arrays_are_read_only():
    # a checked tree stays checked: its arrays cannot be edited in place,
    # nor its fields rebound
    _, build = _path_tree(4)
    for field in ("parent", "subtree", "n_total", "completion"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(build, field)[1] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        build.parent = np.zeros(5, dtype=np.int64)
    assert build.parent.tolist() == [0, 2, 3, 4, 0]


def test_aggregate_max_equals_oracle():
    g = random_graph(150, 8)
    build = convergetree.build_tree(g)
    (val,), _ = convergetree.aggregate(build, AggOp.MAX, g.degrees())
    assert val == g.degrees()[g.ids].max()


def test_aggregate_histogram_equals_centralized():
    g = random_graph(300, 10)
    build = convergetree.build_tree(g)
    hist = netgraph.histogram(g, 16)
    bin_of = netgraph.degree_bin(g.degrees(), hist.delta, 16)
    buf = io.StringIO()
    merged, res = convergetree.aggregate(build, AggOp.HISTOGRAM_MERGE, g.degrees(), 16,
                                         trace=buf)
    trace = buf.getvalue()
    assert list(merged) == hist.counts.tolist()
    # each node with children but the root sends the window of its
    # subtree's merged row, at most all 16 bins (18 units); a leaf sends
    # nothing, since its parent holds its bin
    sent, per_node = traced_costs(res, trace, g.max_id + 1)
    onehots = np.eye(16, dtype=np.int64)[bin_of]
    assert np.array_equal(per_node, subtree_windows(g, build.states, onehots))
    inner = g.ids[np.bincount(build.parent, minlength=g.max_id + 1)[g.ids] > 0]
    assert per_node.max() == 14 and np.median(per_node[inner]) == 8
    assert sent.sum() == len(inner) - 1 < g.n / 4


def path_sums(values, bins):
    """Histogram-merge the values of the path 1-2-...-k (root k), in ID
    order, into `bins` bins over [0, their maximum]; returns the root's row
    and each sender's charge in id-units."""
    g = graph_from([(0.9 * i, 0) for i in range(len(values))])
    build = convergetree.build_tree(g)
    buf = io.StringIO()
    merged, res = convergetree.aggregate(build, AggOp.HISTOGRAM_MERGE,
                                         np.array([0, *values]), bins, trace=buf)
    return merged, traced_costs(res, buf.getvalue(), g.max_id + 1)[1][1:len(values)].tolist()


@pytest.mark.parametrize("bins", [16, 23])
def test_histogram_window_widths(bins):
    # node 1, a leaf: nothing; node 2: the last bin alone; node 3: first
    # and last, the whole row
    merged, units = path_sums([bins - 1, bins - 1, 0, bins - 1], bins)
    assert merged == (1,) + (0,) * (bins - 2) + (3,)
    assert units == [0, 3, 2 + bins]


def test_histogram_memory_follows_the_tree_not_ids_times_bins():
    # 200 nodes under IDs up to 10**5, 64 bins.  Only the nodes with
    # children and the root keep a 64-bin row, where rows for every ID
    # would take 64 ID-sized arrays.  The convergecast's pending counts
    # (one ID-sized array) and the broadcast's has-children mask are the
    # floor of the histogram, MAX and broadcast waves; one more ID-sized
    # array kept or made would break the bound
    g = random_graph(200, 11, id_span=10**5)
    build = convergetree.build_tree(g)
    deg = g.degrees()
    bin_of = netgraph.degree_bin(deg, int(deg.max()), 64)
    id_array = 8 * (g.max_id + 1)
    for run, want in (
            (lambda: convergetree.aggregate(build, AggOp.HISTOGRAM_MERGE, deg, 64),
             tuple(np.bincount(bin_of[g.ids], minlength=64).tolist())),
            (lambda: convergetree.aggregate(build, AggOp.MAX, deg), (int(deg.max()),)),
            (lambda: convergetree.broadcast_down(build, (7, 8)), (7, 8))):
        tracemalloc.start()
        try:
            out, _ = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out == want
        assert peak <= 3 * id_array, (want, peak / id_array)


def test_aggregate_cost_two_units():
    g = random_graph(80, 11)
    build = convergetree.build_tree(g)
    buf = io.StringIO()
    _, res = convergetree.aggregate(build, AggOp.MAX, g.degrees(), trace=buf)
    sent = traced_costs(res, buf.getvalue(), g.max_id + 1)[0]
    assert (sent[g.ids] == (g.ids != build.root_id)).all()  # everyone but the root reports once
    assert res.ledger.total_id_units == 2 * (g.n - 1)


def test_broadcast_down_reaches_everyone_once():
    g = random_graph(150, 12)
    build = convergetree.build_tree(g)
    buf = io.StringIO()
    value, res = convergetree.broadcast_down(build, (42,), trace=buf)
    assert value == (42,)  # every node holds it, or the call raises
    # exactly one broadcast per node with children, none from a leaf
    relays = {v for v in g.id_list if build.states[v].children}
    sent = traced_costs(res, buf.getvalue(), g.max_id + 1)[0]
    assert set(np.flatnonzero(sent).tolist()) == relays
    assert res.ledger.total_broadcasts == len(relays) < g.n


def test_broadcast_down_rounds_on_path():
    g = graph_from([(0.9 * i, 0) for i in range(6)], ids=[6, 1, 2, 3, 4, 5])
    build = convergetree.build_tree(g)
    assert build.root_id == 6  # sits at one end of the path
    _, res = convergetree.broadcast_down(build, (7,))
    # the root and 4 relays send in rounds 0-4; the leaf takes it in round 5
    assert res.rounds_used == 6
    assert res.ledger.total_broadcasts == 5


def test_histogram_of_a_star_at_its_root_sends_nothing():
    # every node but the root is its leaf, and the root holds their bins
    g = star_graph(20, [3, 5, 8, 13])
    build = convergetree.build_tree(g)
    assert build.root_id == 20
    values = np.zeros(g.max_id + 1, dtype=np.int64)  # the maximum 1: each value its bin
    values[[3, 5, 8, 13, 20]] = 1, 0, 1, 1, 0
    merged, res = convergetree.aggregate(build, AggOp.HISTOGRAM_MERGE, values, 2)
    assert merged == (2, 3)
    assert (res.ledger.total_broadcasts, res.rounds_used, res.deliveries) == (0, 1, 0)


@pytest.mark.parametrize("n", [2, 3, 7])
def test_histogram_on_a_path_leaves_its_far_end_silent(n):
    # the path 1-...-n, rooted at its end n: nodes 2..n-1 send, one a round
    # from round 0, and the root hears the last in round n - 2
    g = graph_from([(0.9 * i, 0) for i in range(n)])
    build = convergetree.build_tree(g)
    buf = io.StringIO()
    values = np.arange(n + 1) % 3  # the maximum 2: each value its bin
    merged, res = convergetree.aggregate(build, AggOp.HISTOGRAM_MERGE, values, 3, trace=buf)
    assert merged == tuple(np.bincount(values[1:], minlength=3).tolist())
    assert [line.split(",")[:2] for line in buf.getvalue().splitlines()] == [
        [str(v - 2), str(v)] for v in range(2, n)]
    assert res.rounds_used == n - 1


@pytest.mark.parametrize("op, values, bins, message", [
    (AggOp.MAX, np.array([0, 1.5, 2.0]), 0, "scalars"),                    # not integers
    (AggOp.MAX, np.array([0, 2**63, 1], dtype=np.uint64), 0, "scalars"),   # beyond int64
    (AggOp.MAX, np.array([0, 1], dtype=np.int64), 0, "scalars"),           # shorter than max ID + 1
    (AggOp.HISTOGRAM_MERGE, np.array([0, 3, 2**62]), 4, "values in"),      # value * bins wraps
    (AggOp.HISTOGRAM_MERGE, np.array([0, 3, -1]), 4, "values in"),
    (AggOp.HISTOGRAM_MERGE, np.zeros((3, 4), dtype=np.int64), 4, "values in"),
    (AggOp.HISTOGRAM_MERGE, np.array([0, 0, 0]), 0, "values in"),          # no bins
], ids=["float", "uint-too-large", "too-short",
        "bin-too-large", "bin-negative", "2-d", "no-bins"])
def test_aggregate_rejects_bad_inputs(op, values, bins, message):
    g = graph_from([(0, 0), (0.9, 0)])
    with pytest.raises(ValueError, match=f"takes ID-indexed integer {message}"):
        convergetree.aggregate(convergetree.build_tree(g), op, values, bins)


def test_aggregate_ignores_unused_id_rows():
    # IDs 2 and 5; the rows of unused IDs hold values no node sent
    g = graph_from([(0, 0), (0.9, 0)], ids=[2, 5])
    values = np.full(6, 2**63 - 1, dtype=np.int64)
    values[[2, 5]] = 20, 50
    assert convergetree.aggregate(convergetree.build_tree(g), AggOp.MAX, values)[0] == (50,)


def test_tree_rebroadcast_budget_20k():
    # measured bound: flood re-announcements average well under 10/node
    g = standard_20k()
    build = convergetree.build_tree(g)
    convergetree.check_tree(build)
    total = build.result.ledger.total_broadcasts
    # subtract the one-time report and completion messages and the initial
    # announcement; what is left is the re-broadcast count
    rebroadcasts = (total - 3 * g.n) / g.n
    assert rebroadcasts <= 10.0
