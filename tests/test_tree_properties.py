"""Property tests of the spanning-tree bootstrap, and of its equality with
the centralized twin, on small graphs with arbitrary (gapped) IDs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmtopo import convergetree
from conftest import connected_graphs, distinct_ids, graph_from

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)


@SETTINGS
@given(connected_graphs)
def test_build_tree_properties(g):
    build = convergetree.build_tree(g)
    convergetree.check_tree(g, build)
    states = build.states
    assert all(states[v].n_total == g.n for v in g.id_list)
    led = build.result.ledger
    assert np.array_equal(led.id_units_sent, 3 * led.broadcasts_sent)
    assert build.result.deliveries == int((led.broadcasts_sent * g.degrees()).sum())


@SETTINGS
@given(connected_graphs)
def test_build_tree_equals_twin(g):
    build = convergetree.build_tree(g)
    twin = convergetree.central_tree(g)
    for got, want in zip((build.parent, build.subtree, build.n_total), twin):
        assert np.array_equal(got[g.ids], want[g.ids])


@SETTINGS
@given(distinct_ids(2), st.floats(1.01, 50.0))
def test_build_tree_two_disconnected_nodes_raise(ids, gap):
    g = graph_from([(0.0, 0.0), (gap, 0.0)], ids=ids)
    with pytest.raises(RuntimeError, match="graph disconnected"):
        convergetree.build_tree(g)
    with pytest.raises(ValueError, match="graph disconnected"):
        convergetree.central_tree(g)
