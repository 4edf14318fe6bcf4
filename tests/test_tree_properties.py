"""Property tests of the spanning-tree bootstrap, and of its equality with
the centralized twin, on small graphs with arbitrary (gapped) IDs."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmtopo import convergetree, netgraph
from swarmtopo.convergetree import AggOp
from swarmtopo.simkernel import run_protocol
from conftest import (any_graphs, connected_graphs, distinct_ids, graph_from, scattered_70,
                      traced_costs, trace_rows)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)


KINDS = {k.code: k for k in (convergetree.K_STATE, convergetree.K_REPORT, convergetree.K_DONE)}


@SETTINGS
@given(connected_graphs)
def test_build_tree_properties(g):
    buf = io.StringIO()
    build = convergetree.build_tree(g, trace=buf)
    convergetree.check_tree(build)
    # DONE travels down the tree one hop a round and tells every node n
    kids = g.ids[build.parent[g.ids] != 0]
    assert (build.completion[kids] == build.completion[build.parent[kids]] + 1).all()
    assert (build.n_total[g.ids] == g.n).all()
    # each traced message costs its kind's units with the repeated group
    # carried at most once, and the ledger holds their totals
    _, _, kinds, units = trace_rows(buf.getvalue()).T
    for k, u in zip(kinds.tolist(), units.tolist()):
        assert u in (KINDS[k].units(0), KINDS[k].units(1)), (k, u)
    sent, _ = traced_costs(build.result, buf.getvalue(), g.max_id + 1)
    assert build.result.deliveries == int((sent * g.degrees()).sum())


@SETTINGS
@given(connected_graphs, st.sampled_from([16, 23]))
def test_no_message_carries_what_its_receivers_can_derive(g, bins):
    buf = io.StringIO()
    tree = convergetree.build_tree(g, trace=buf)
    rnd, v, kind, units = trace_rows(buf.getvalue()).T
    # a round-0 STATE names its root alone, which is also its parent
    state = kind == convergetree.K_STATE.code
    assert np.array_equal(units[state], np.where(rnd[state] == 0, 2, 3))
    # a REPORT carries a size unless it is 1; each node's last REPORT is
    # under the final tree, so it is bare exactly at the tree's leaves
    report = np.flatnonzero(kind == convergetree.K_REPORT.code)
    assert set(units[report].tolist()) <= {1, 2}
    last = dict(zip(v[report].tolist(), units[report].tolist()))
    kids = g.ids[tree.parent[g.ids] != 0]
    assert last == {c: 1 + int(tree.subtree[c] > 1) for c in kids.tolist()}
    # the histogram's leaves stay silent: the senders are exactly the nodes
    # with children but the root, and the root still gets the census
    deg = g.degrees()
    buf = io.StringIO()
    counts, res = convergetree.aggregate(tree, AggOp.HISTOGRAM_MERGE, deg, bins, trace=buf)
    inner = np.bincount(tree.parent[g.ids], minlength=g.max_id + 1) > 0
    senders = trace_rows(buf.getvalue())[:, 1]
    assert sorted(senders.tolist()) == [u for u in g.id_list if inner[u] and u != tree.root_id]
    assert list(counts) == netgraph.histogram(g, bins).counts.tolist()


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
