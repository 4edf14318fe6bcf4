"""Property tests of the aggregation, value-flood, classification and
distance-flood kernels, and of the alpha sweep's counts, against their
centralized twins, of who talks in component organisation and of the token
walk's loops, on small graphs with arbitrary (gapped) IDs, isolated nodes
and boundary-free thresholds; and of the deliveries every protocol kernel
holds at once on dense graphs."""

import io
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmtopo import boundary, convergetree, netgraph, simkernel
from swarmtopo.boundary import NodeClass
from swarmtopo.convergetree import AggOp
from conftest import (any_graphs, component_traces, connected_graphs, flood_fields, lowest_quarter,
                      peak_chunks, random_graph, subtree_windows, traced_costs)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)


def traced(call, *args):
    """call(*args)'s output, run with a trace, and the trace text."""
    buf = io.StringIO()
    return call(*args, trace=buf), buf.getvalue()


def assert_deliveries_are_sender_degrees(g, res, trace):
    sent, _ = traced_costs(res, trace, g.max_id + 1)
    assert res.deliveries == int((sent * g.degrees()).sum())


@SETTINGS
@given(any_graphs, st.data())
def test_classify_equals_twin(g, data):
    # from below the smallest degree (no boundary node) to above the largest
    deg = g.degrees()[g.ids]
    threshold = data.draw(st.integers(int(deg.min()) - 2, int(deg.max()) + 1))
    (classes, res), trace = traced(boundary.classify, g, threshold)
    assert np.array_equal(classes, boundary.central_classify(g, threshold))
    assert res.ledger.total_broadcasts == int((deg <= threshold).sum())
    assert_deliveries_are_sender_degrees(g, res, trace)


@SETTINGS
@given(any_graphs, st.data())
def test_distance_flood_equals_twin(g, data):
    deg = g.degrees()[g.ids]
    threshold = data.draw(st.integers(int(deg.min()) - 1, int(deg.max())))
    mu_est = data.draw(st.integers(1, 50))
    classes = boundary.central_classify(g, threshold)
    comps, trace = traced(boundary.form_components, g, classes)
    assert comps.components == boundary.central_components(
        g, classes == int(boundary.NodeClass.BOUNDARY))
    for run, lines in zip(comps.results, component_traces(trace)):
        assert_deliveries_are_sender_degrees(g, run, lines)
    (field, res), trace = traced(boundary.distance_flood, g, comps.comp_of, mu_est)
    twin = boundary.central_distance_field(g, comps.components, mu_est)
    for name in ("hop", "comp", "hop2", "comp2", "anchor_q"):
        assert np.array_equal(getattr(field, name), getattr(twin, name)), name
    members = [v for v in g.id_list if comps.comp_of[v]]
    if members:
        assert np.array_equal(field.hop[g.ids], netgraph.hop_bfs(g, members)[g.ids])
    else:
        assert np.isinf(field.hop).all() and res.ledger.total_broadcasts == 0
    assert_deliveries_are_sender_degrees(g, res, trace)


def draw_classes(g, data) -> np.ndarray:
    """The classes at a drawn threshold, from no BOUNDARY node to all."""
    deg = g.degrees()[g.ids]
    return boundary.central_classify(g, data.draw(st.integers(int(deg.min()) - 1,
                                                              int(deg.max()))))


@SETTINGS
@given(any_graphs, st.data())
def test_no_neighbourhood_holds_two_components(g, data):
    comp_of = boundary.form_components(g, draw_classes(g, data)).comp_of
    for v in g.id_list:
        closed = np.append(g.neighbors(v), v)
        assert len(set(comp_of[closed].tolist()) - {0}) <= 1, v


@SETTINGS
@given(any_graphs, st.data())
def test_organisation_talks_only_along_its_tree(g, data):
    # members and the relays they name (`via`) send everything but the
    # NEAR registrations, and each root ends with its component's totals
    member = draw_classes(g, data) == int(boundary.NodeClass.BOUNDARY)
    root, parent, via = flood_fields(g, member)
    members = g.ids[member[g.ids]]
    org = boundary._CompOrgRounds(g, member, root, parent, via)
    buf = io.StringIO()
    res = boundary.run_protocol(org, trace=buf)
    assert_deliveries_are_sender_degrees(g, res, buf.getvalue())
    talkers = set(members.tolist()) | set(via[members].tolist()) - {0}
    for line in buf.getvalue().splitlines():
        _, v, kind, _ = map(int, line.split(","))
        assert v in talkers or kind == boundary.K_NEAR.code, (v, kind)
    for c in boundary.central_components(g, member):
        r = c.component_id
        assert (org.sub_size[r], org.sub_size[r] + org.sub_near[r]) == (c.size, c.near_set_size)


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
    (field, res), trace = traced(boundary.distance_flood, g, comp_of, mu_est)
    twin = boundary.central_distance_field(g, comps, mu_est)
    for name in ("hop", "comp", "hop2", "comp2", "anchor_q"):
        assert np.array_equal(getattr(field, name), getattr(twin, name)), name
    if comps:
        sources = [v for c in comps for v in c.members]
        assert np.array_equal(field.hop[g.ids], netgraph.hop_bfs(g, sources)[g.ids])
    assert_deliveries_are_sender_degrees(g, res, trace)


@SETTINGS
@given(connected_graphs, st.sampled_from([16, 23]))
def test_aggregates_equal_census(g, bins):
    tree = convergetree.build_tree(g)
    deg = g.degrees()
    delta = int(deg[g.ids].max())
    ((top,), res), trace = traced(convergetree.aggregate, g, tree, AggOp.MAX, deg)
    assert top == delta
    assert_deliveries_are_sender_degrees(g, res, trace)
    bin_of = netgraph.degree_bin(deg, delta, bins)
    (counts, res), trace = traced(convergetree.aggregate, g, tree, AggOp.HISTOGRAM_MERGE,
                                  deg, bins)
    assert list(counts) == netgraph.histogram(g, bins).counts.tolist()
    windows = subtree_windows(g, tree.states, np.eye(bins, dtype=np.int64)[bin_of])
    assert res.ledger.total_id_units == windows.sum()
    assert_deliveries_are_sender_degrees(g, res, trace)


@SETTINGS
@given(connected_graphs, st.data())
def test_histogram_charge_is_subtree_window(g, data):
    bins = data.draw(st.integers(1, 23))
    values = np.zeros(g.max_id + 1, dtype=np.int64)
    values[g.ids] = data.draw(st.lists(st.integers(0, 40), min_size=g.n, max_size=g.n))
    bin_of = netgraph.degree_bin(values, int(values.max()), bins)
    rows = np.zeros((g.max_id + 1, bins), dtype=np.int64)
    rows[g.ids, bin_of[g.ids]] = 1
    tree = convergetree.build_tree(g)
    (merged, res), trace = traced(convergetree.aggregate, g, tree, AggOp.HISTOGRAM_MERGE,
                                  values, bins)
    assert list(merged) == rows.sum(axis=0).tolist()
    units = traced_costs(res, trace, g.max_id + 1)[1]
    assert np.array_equal(units, subtree_windows(g, tree.states, rows))
    # one message from each node with children but the root
    parents = np.unique(tree.parent[g.ids])
    assert res.ledger.total_broadcasts == len(parents[parents != 0]) - (g.n > 1)


@SETTINGS
@given(connected_graphs, st.lists(st.integers(-10**12, 10**12), max_size=4))
def test_broadcast_down_reaches_every_node_once(g, value):
    tree = convergetree.build_tree(g)
    (received, res), trace = traced(convergetree.broadcast_down, g, tree, tuple(value))
    assert received == tuple(value)
    # one broadcast from each node with a child, none from the others
    states = tree.states
    relays = np.zeros(g.max_id + 1, dtype=np.int64)
    relays[[v for v in g.id_list if states[v].children]] = 1
    sent, units = traced_costs(res, trace, g.max_id + 1)
    assert np.array_equal(sent, relays)
    assert np.array_equal(units, (1 + len(value)) * relays)
    assert res.deliveries == int(g.degrees()[relays == 1].sum())
    # depth d takes the value in round d; the deepest round sends nothing
    height, level = 0, list(states[tree.root_id].children)
    while level:
        height += 1
        level = [c for v in level for c in states[v].children]
    assert res.rounds_used == height + 1


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
    sweep = boundary.alpha_sweep(g, mu_est, grid, min_size)
    assert sweep.component_counts == tuple(counts)
    assert sweep.plateau == boundary.find_plateau(grid, counts)


# connected graphs with the dense IDs 1..n that `swarmtopo run` gives
dense_graphs = st.builds(random_graph, st.integers(2, 40), st.integers(0, 2**32 - 1))


@SETTINGS
@given(st.one_of(any_graphs, dense_graphs), st.data())
def test_token_loops_close_at_root_along_edges(g, data):
    comps = boundary.form_components(g, draw_classes(g, data))
    loops, _ = boundary.run_token_loops(g, comps)
    members = {c.component_id: set(c.members) for c in comps.components}
    for root, lp in loops.items():
        assert lp.component_id == root
        assert lp.members[0] == lp.members[-1] == lp.walk[0] == lp.walk[-1] == root
        held = lp.members[:-1] or lp.members  # the closing root apart
        assert len(set(held)) == len(held) and set(held) <= members[root]
        for a, b in zip(lp.walk, lp.walk[1:]):
            assert b in g.neighbors(a), (a, b)
        # the walk is the members with at most one relay spliced between two
        i = 0
        for a, b in zip(lp.members, lp.members[1:]):
            assert lp.walk[i] == a
            if lp.walk[i + 1] != b:
                relay = lp.walk[i + 1]
                assert relay in g.neighbors(a) and relay in g.neighbors(b)
                i += 1
            i += 1
            assert lp.walk[i] == b
        assert i == len(lp.walk) - 1


# -- held deliveries -----------------------------------------------------------

@pytest.fixture(scope="module")
def dense_case(request):
    """random_graph(n, 3) at mean degree 263-287, the lowest-degree quarter
    BOUNDARY, and every kernel's inputs."""
    n = request.param
    g = random_graph(n, 3, spread=5.5 * (n / 3000) ** 0.5)
    deg = g.degrees()
    assert deg.sum() > 12 * simkernel.CHUNK
    classes = lowest_quarter(g)
    member = classes == int(NodeClass.BOUNDARY)
    comps = boundary.form_components(g, classes)
    assert sum(c.size for c in comps.components) == member.sum()
    return SimpleNamespace(g=g, deg=deg, classes=classes, member=member,
                           threshold=int(deg[member].max()), mu_est=int(deg[g.ids].mean()),
                           tree=convergetree.build_tree(g), fields=flood_fields(g, member),
                           comps=comps)


# each protocol kernel, with the ID-sized rows (or n-sized arrays: here IDs
# are 1..n) that its state and one round's scratch hold at once
KERNELS = {
    "tree": (26, lambda c: convergetree.build_tree(c.g)),
    "agg_max": (13, lambda c: convergetree.aggregate(c.g, c.tree, AggOp.MAX, c.deg)),
    "agg_histogram": (17, lambda c: convergetree.aggregate(c.g, c.tree, AggOp.HISTOGRAM_MERGE,
                                                           c.deg, 64)),
    "broadcast_down": (8, lambda c: convergetree.broadcast_down(c.g, c.tree, (7, 8))),
    "classify": (3, lambda c: boundary.classify(c.g, c.threshold)),
    "component_flood": (15, lambda c: boundary._flood_components(c.g, c.member)),
    "organisation": (6, lambda c: simkernel.run_protocol(
        boundary._CompOrgRounds(c.g, c.member, *c.fields))),
    # the flood and the organisation together, as the pipeline calls them:
    # the organisation's round 1 sends every member's JOIN to its
    # non-member neighbours, most of a round's deliveries, and the whole
    # call still holds no more than the bound itself
    "form_components": (0, lambda c: boundary.form_components(c.g, c.classes)),
    "distance_flood": (8, lambda c: boundary.distance_flood(c.g, c.comps.comp_of, c.mu_est)),
    "token_loops": (18, lambda c: boundary.run_token_loops(c.g, c.comps)),
}


@pytest.mark.parametrize("dense_case", [3000, 12000], indirect=True)
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_holds_a_bounded_number_of_deliveries(dense_case, kernel):
    # a round expands its deliveries about CHUNK at a time and settles each
    # piece before the next, so a kernel holds a dozen CHUNK-sized arrays
    # beyond its rows however many deliveries a round makes.  At n = 12,000
    # a round in which every node broadcasts makes 3.4 M deliveries, 52
    # such arrays in int64, and a copy of the graph's `indices` is 26 even
    # in int32
    rows, run = KERNELS[kernel]
    _, peak = peak_chunks(lambda: run(dense_case))
    row = (dense_case.g.max_id + 1) / simkernel.CHUNK
    assert peak < 12 + rows * row, (kernel, peak, rows * row)
