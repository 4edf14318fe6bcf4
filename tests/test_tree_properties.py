"""Property tests of the spanning-tree bootstrap, and of its equality with
the centralized twin, on small graphs with arbitrary (gapped) IDs."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmtopo import convergetree, netgraph
from swarmtopo.simkernel import run_protocol
from conftest import (any_graphs, connected_graphs, distinct_ids, graph_from, scattered_70,
                      traced_costs, traced_senders)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)


KINDS = {k.code: k for k in (convergetree.K_STATE, convergetree.K_REPORT, convergetree.K_DONE)}


@SETTINGS
@given(connected_graphs)
def test_build_tree_properties(g):
    buf = io.StringIO()
    build = convergetree.build_tree(g, trace=buf)
    convergetree.check_tree(g, build)
    # DONE travels down the tree one hop a round and tells every node n
    kids = g.ids[build.parent[g.ids] != 0]
    assert (build.completion[kids] == build.completion[build.parent[kids]] + 1).all()
    assert (build.n_total[g.ids] == g.n).all()
    # each node's traced messages charge it their kinds' units, and the
    # ledger holds their totals
    senders, kinds = traced_senders(buf.getvalue())
    sent, units = traced_costs(build.result, buf.getvalue(), g.max_id + 1)
    declared = [KINDS[k].units() for k in kinds.tolist()]
    assert np.array_equal(units, np.bincount(senders, weights=declared,
                                             minlength=g.max_id + 1).astype(np.int64))
    assert build.result.deliveries == int((sent * g.degrees()).sum())


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
    with pytest.raises(convergetree.GraphDisconnected) as e:
        convergetree.build_tree(g)
    assert (e.value.n, e.value.components) == (2, 2)
    with pytest.raises(ValueError, match="graph disconnected"):
        convergetree.central_tree(g)


def test_build_tree_counts_components_with_isolated_nodes():
    # pairs, small clusters and isolated nodes: each component, an isolated
    # node too, elects its own root, and the roots count the components
    g = scattered_70()
    assert (g.degrees()[g.ids] == 0).sum() >= 2
    want = netgraph.component_count(g)
    assert want >= 3
    with pytest.raises(convergetree.GraphDisconnected) as e:
        convergetree.build_tree(g)
    assert (e.value.n, e.value.components) == (70, want)


@SETTINGS
@given(any_graphs)
def test_build_tree_raises_exactly_on_disconnected_graphs(g):
    if netgraph.is_connected(g):
        convergetree.build_tree(g)
        return
    with pytest.raises(convergetree.GraphDisconnected) as e:
        convergetree.build_tree(g)
    assert e.value.components == netgraph.component_count(g) > 1


class _CheckedTree(convergetree._TreeRounds):
    """The tree kernel, checking after every round the two facts its report
    rule rests on: each node's running sum is the sum of the roots its
    neighbours last announced, and none of those roots is above its own."""

    rounds = 0

    def step(self, rnd):
        out = super().step(rnd)
        for v in self.ids.tolist():
            said = self.said_root[self.indices[self.indptr[v]:self.indptr[v + 1]]]
            assert self.nbsum[v] == said.sum(), (rnd, v)
            assert (self.root[v] >= said).all(), (rnd, v)
        self.rounds += 1
        return out


@SETTINGS
@given(any_graphs)
def test_tree_neighbour_sum_tracks_announced_roots(g):
    kernel = _CheckedTree(g)
    res = run_protocol(kernel)
    assert kernel.rounds == res.rounds_used
