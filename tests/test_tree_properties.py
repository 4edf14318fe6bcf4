"""Property tests of the spanning-tree bootstrap on small graphs with
arbitrary (gapped) IDs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmtopo import convergetree
from conftest import graph_from, star_graph

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)


def distinct_ids(n):
    return st.lists(st.integers(1, 8 * n + 8), min_size=n, max_size=n, unique=True)


@st.composite
def random_udgs(draw):
    # every node lands within 0.95R of an earlier one, so the graph is connected
    n = draw(st.integers(1, 40))
    ids = draw(distinct_ids(n))
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2**32 - 1))))
    pts = np.zeros((n, 2))
    for i in range(1, n):
        r, a = 0.95 * rng.random(), 2 * math.pi * rng.random()
        pts[i] = pts[rng.integers(i)] + (r * math.cos(a), r * math.sin(a))
    return graph_from(pts, ids=ids)


@st.composite
def paths(draw):
    n = draw(st.integers(1, 30))
    return graph_from([(0.9 * i, 0.0) for i in range(n)], ids=draw(distinct_ids(n)))


@st.composite
def stars(draw):
    ids = draw(distinct_ids(draw(st.integers(2, 14))))
    return star_graph(ids[0], ids[1:])


single_nodes = st.integers(1, 10**6).map(lambda v: graph_from([(0.0, 0.0)], ids=[v]))


@SETTINGS
@given(st.one_of(random_udgs(), paths(), stars(), single_nodes))
def test_build_tree_properties(g):
    build = convergetree.build_tree(g)
    convergetree.check_tree(g, build)
    assert all(build.states[v].n_total == g.n for v in g.id_list)
    led = build.result.ledger
    assert np.array_equal(led.id_units_sent, 3 * led.broadcasts_sent)
    assert build.result.deliveries == int((led.broadcasts_sent * g.degrees()).sum())


@SETTINGS
@given(distinct_ids(2), st.floats(1.01, 50.0))
def test_build_tree_two_disconnected_nodes_raise(ids, gap):
    g = graph_from([(0.0, 0.0), (gap, 0.0)], ids=ids)
    with pytest.raises(RuntimeError, match="graph disconnected"):
        convergetree.build_tree(g)
