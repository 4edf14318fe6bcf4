"""Property tests of the aggregation, value-flood, classification and
distance-flood kernels against their centralized twins, on small graphs
with arbitrary (gapped) IDs, isolated nodes and boundary-free thresholds."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmtopo import boundary, convergetree, netgraph
from swarmtopo.convergetree import AggOp
from conftest import connected_graphs, scattered_udgs

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)

any_graphs = st.one_of(connected_graphs, scattered_udgs())


def assert_deliveries_are_sender_degrees(g, res):
    assert res.deliveries == int((res.ledger.broadcasts_sent * g.degrees()).sum())


@SETTINGS
@given(any_graphs, st.data())
def test_classify_equals_twin(g, data):
    # from below the smallest degree (no boundary node) to above the largest
    deg = g.degrees()[g.ids]
    threshold = data.draw(st.integers(int(deg.min()) - 2, int(deg.max()) + 1))
    classes, res = boundary.classify(g, threshold)
    assert np.array_equal(classes, boundary.central_classify(g, threshold))
    assert res.ledger.total_broadcasts == int((deg <= threshold).sum())
    assert_deliveries_are_sender_degrees(g, res)


@SETTINGS
@given(any_graphs, st.data())
def test_distance_flood_equals_twin(g, data):
    deg = g.degrees()[g.ids]
    threshold = data.draw(st.integers(int(deg.min()) - 1, int(deg.max())))
    mu_est = data.draw(st.integers(1, 50))
    classes = boundary.central_classify(g, threshold)
    comps = boundary.form_components(g, classes)
    assert comps.components == boundary.central_components(
        g, classes == int(boundary.NodeClass.BOUNDARY))
    field, res = boundary.distance_flood(g, comps.comp_of, mu_est)
    twin = boundary.central_distance_field(g, comps.components, mu_est)
    for name in ("hop", "comp", "hop2", "comp2", "anchor_q"):
        assert np.array_equal(getattr(field, name), getattr(twin, name)), name
    members = [v for v in g.id_list if comps.comp_of[v]]
    if members:
        assert np.array_equal(field.hop[g.ids], netgraph.hop_bfs(g, members)[g.ids])
    else:
        assert np.isinf(field.hop).all() and res.ledger.total_broadcasts == 0
    assert_deliveries_are_sender_degrees(g, res)


@SETTINGS
@given(connected_graphs, st.sampled_from([16, 23]))
def test_aggregates_equal_census(g, bins):
    tree = convergetree.build_tree(g).states
    deg = g.degrees()
    delta = int(deg[g.ids].max())
    (top,), res = convergetree.aggregate(g, tree, AggOp.MAX, deg)
    assert top == delta
    assert_deliveries_are_sender_degrees(g, res)
    (n,), res = convergetree.aggregate(g, tree, AggOp.SUM, {v: 1 for v in g.id_list})
    assert n == g.n
    assert_deliveries_are_sender_degrees(g, res)
    onehots = np.zeros((g.max_id + 1, bins), dtype=np.int64)
    onehots[g.ids, netgraph.degree_bin(deg[g.ids], delta, bins)] = 1
    counts, res = convergetree.aggregate(g, tree, AggOp.HISTOGRAM_MERGE, onehots)
    assert list(counts) == netgraph.histogram(g, bins).counts.tolist()
    assert res.ledger.total_id_units == (1 + bins) * (g.n - 1)
    assert_deliveries_are_sender_degrees(g, res)


@SETTINGS
@given(connected_graphs, st.lists(st.integers(-10**12, 10**12), max_size=4))
def test_broadcast_down_reaches_every_node_once(g, value):
    tree = convergetree.build_tree(g).states
    received, res = convergetree.broadcast_down(g, tree, tuple(value))
    assert [received[v] for v in g.id_list] == [tuple(value)] * g.n
    assert res.ledger.total_broadcasts == g.n
    assert res.ledger.total_id_units == (1 + len(value)) * g.n
    assert_deliveries_are_sender_degrees(g, res)
