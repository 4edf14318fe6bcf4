"""Property tests of the aggregation, value-flood, classification and
distance-flood kernels, and of the alpha sweep's counts, against their
centralized twins, on small graphs with arbitrary (gapped) IDs, isolated
nodes and boundary-free thresholds."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmtopo import boundary, convergetree, netgraph
from swarmtopo.boundary import NoPlateau
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
    for run in comps.results:
        assert_deliveries_are_sender_degrees(g, run)
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
@given(any_graphs, st.data())
def test_distance_flood_arbitrary_labels_equals_twin(g, data):
    # scattered sources under 1-6 arbitrary labels, adjacent ones often
    # labelled apart: waves meet in one round, a third one is dropped, and
    # slot 1 may fill rounds after slot 0
    labels = data.draw(st.lists(st.integers(1, 10**9), min_size=1, max_size=6, unique=True))
    spread = data.draw(st.integers(1, 5))  # about one node in `spread` is a source
    pick = data.draw(st.lists(st.integers(0, spread * len(labels)), min_size=g.n, max_size=g.n))
    comp_of = np.zeros(g.max_id + 1, dtype=np.int64)
    for v, i in zip(g.id_list, pick):
        comp_of[v] = labels[i - 1] if 1 <= i <= len(labels) else 0
    # anchors differ between senders only where deg / mu_est lies in (1/2, 1)
    mu_est = data.draw(st.integers(1, 2 * int(g.degrees().max()) + 1))
    comps = []
    for label in sorted(set(comp_of[g.ids].tolist()) - {0}):
        members = tuple(v for v in g.id_list if comp_of[v] == label)
        near = set(members).union(*(g.neighbors(v).tolist() for v in members))
        comps.append(boundary.BoundaryComponent(label, members, len(members), len(near)))
    field, res = boundary.distance_flood(g, comp_of, mu_est)
    twin = boundary.central_distance_field(g, comps, mu_est)
    for name in ("hop", "comp", "hop2", "comp2", "anchor_q"):
        assert np.array_equal(getattr(field, name), getattr(twin, name)), name
    if comps:
        sources = [v for c in comps for v in c.members]
        assert np.array_equal(field.hop[g.ids], netgraph.hop_bfs(g, sources)[g.ids])
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


@SETTINGS
@given(any_graphs, st.data())
def test_alpha_sweep_counts_equal_twin(g, data):
    # grids whose thresholds run from 0 (alpha * mu_est < 1), below every
    # degree of a graph without isolated nodes, to above every degree
    mu_est = data.draw(st.integers(1, 2 * int(g.degrees().max()) + 2))
    grid = tuple(a / 100 for a in sorted(data.draw(
        st.lists(st.integers(1, 300), min_size=1, max_size=12, unique=True))))
    min_size = data.draw(st.integers(0, 4))
    counts = []
    for a in grid:
        bnd = boundary.central_classify(g, boundary.threshold_units(a, mu_est))
        comps = boundary.central_components(g, bnd == int(boundary.NodeClass.BOUNDARY))
        counts.append(sum(1 for c in comps if c.size >= min_size))
    if boundary.find_plateau(grid, counts) is None:
        with pytest.raises(NoPlateau, match=re.escape(f": {counts}") + "$"):
            boundary.alpha_sweep(g, mu_est, grid, min_size)
    else:
        sweep = boundary.alpha_sweep(g, mu_est, grid, min_size)
        assert sweep.component_counts == tuple(counts)
