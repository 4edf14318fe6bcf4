import io
import math
import tracemalloc

import numpy as np
import pytest

from swarmtopo import boundary, netgraph, simkernel
from swarmtopo.boundary import (DegenerateHistogram, NodeClass, default_alpha, estimate_mu, find_plateau,
                                threshold_units)
from swarmtopo.netgraph import DegreeHistogram
from conftest import annulus_graph, lowest_quarter, peak_chunks, random_graph, traced_costs


def graph_from(points, ids=None):
    pts = np.asarray(points, float)
    if ids is None:
        ids = np.arange(1, len(pts) + 1)
    return netgraph.build_udg((np.asarray(ids), pts))


def classes_for(g, boundary_ids):
    classes = np.zeros(g.max_id + 1, dtype=np.int8)
    bset = set(boundary_ids)
    for v in g.id_list:
        if v in bset:
            classes[v] = int(NodeClass.BOUNDARY)
    for v in g.id_list:
        if classes[v] != int(NodeClass.BOUNDARY) and any(
                int(u) in bset for u in g.neighbors(v)):
            classes[v] = int(NodeClass.NEAR_BOUNDARY)
    return classes


# -- density estimation ----------------------------------------------------

def test_estimate_mu_single_degree():
    # every node with the same degree: recovered exactly whenever the bin
    # resolves single degrees, and to within half a bin otherwise (a 64-bin
    # census cannot distinguish degrees sharing a bin)
    for d in (5, 17, 64, 100, 127):
        counts = [0] * 64
        counts[netgraph.degree_bin(d, d, 64)] = 1000
        est = estimate_mu(DegreeHistogram(64, counts, d))
        assert est.mu_est == d
    for d in (128, 177, 3000):
        counts = [0] * 64
        counts[netgraph.degree_bin(d, d, 64)] = 1000
        est = estimate_mu(DegreeHistogram(64, counts, d))
        assert abs(est.mu_est - d) <= max(1, d // 64 // 2 + 1)


def test_estimate_mu_prefers_upper_half_mode():
    # huge boundary pile at ~delta/3 must not win against the interior peak
    counts = [0] * 64
    counts[netgraph.degree_bin(60, 180, 64)] = 10_000
    counts[netgraph.degree_bin(150, 180, 64)] = 4_000
    est = estimate_mu(DegreeHistogram(64, counts, 180))
    assert abs(est.mu_est - 150) <= 2


def test_estimate_mu_tie_prefers_higher_bin():
    counts = [0] * 64
    counts[40] = 500
    counts[50] = 500
    est = estimate_mu(DegreeHistogram(64, counts, 128))
    lo = est.mu_est
    assert netgraph.degree_bin(lo, 128, 64) == 50


def test_estimate_mu_degenerate():
    counts = [0] * 64
    counts[0] = 100
    with pytest.raises(DegenerateHistogram):
        estimate_mu(DegreeHistogram(64, counts, 100))
    with pytest.raises(DegenerateHistogram):
        estimate_mu(DegreeHistogram(64, [1] * 64, 3))


def test_default_alpha():
    assert default_alpha() == 0.77


def test_threshold_units_floor():
    assert threshold_units(0.77, 177) == 136
    assert threshold_units(0.5, 100) == 50
    assert threshold_units(0.0, 200) == 0


# -- classification ----------------------------------------------------------

def test_classify_inclusive_threshold():
    # node 1 has degree exactly the threshold: boundary by the <= rule
    g = graph_from([(0, 0), (0.5, 0), (0.5, 0.3), (0.5, -0.3)])
    classes, _ = boundary.classify(g, threshold=3)
    assert classes[1] == int(NodeClass.BOUNDARY)
    central = boundary.central_classify(g, 3)
    assert np.array_equal(classes, central)


def test_central_classify_gapped_ids():
    # IDs {2, 5, 9}: arrays run to max_id, and unused IDs are never BOUNDARY
    g = netgraph.build_udg(([2, 5, 9], np.array([(0, 0), (0.5, 0), (1, 0)], float)))
    for threshold in (1, 2):
        classes, _ = boundary.classify(g, threshold)
        assert np.array_equal(boundary.central_classify(g, threshold), classes)
    assert boundary.central_classify(g, 1).tolist() == [0] * 10
    assert boundary.central_classify(g, 2).tolist() == [0, 0, 2, 0, 0, 2, 0, 0, 0, 2]


def test_classify_alpha_zero_no_boundary():
    rng = np.random.Generator(np.random.Philox(4))
    g = graph_from(rng.random((80, 2)) * 2.0)
    classes, _ = boundary.classify(g, threshold_units(0.0, 50))
    assert (classes[g.ids] == int(NodeClass.INTERIOR)).all()


def test_classify_near_boundary_rule():
    g = graph_from([(0, 0), (0.9, 0), (1.8, 0), (2.7, 0)])  # path of 4
    classes, res = boundary.classify(g, threshold=1)  # endpoints are boundary
    assert classes[1] == int(NodeClass.BOUNDARY)
    assert classes[4] == int(NodeClass.BOUNDARY)
    assert classes[2] == int(NodeClass.NEAR_BOUNDARY)
    assert classes[3] == int(NodeClass.NEAR_BOUNDARY)
    assert res.ledger.total_broadcasts == 2  # one announcement per boundary node


# -- component formation -----------------------------------------------------

def test_components_two_hop_linkage():
    # boundary nodes 1,3 joined through interior relay 2; 6 is 3 hops from 3
    pts = [(0, 0), (0.9, 0), (1.8, 0), (2.7, 0), (3.6, 0), (4.5, 0)]
    g = graph_from(pts)
    classes = classes_for(g, [1, 3, 6])
    comps = boundary.form_components(g, classes)
    ids = {c.component_id: c for c in comps.components}
    assert comps.comp_of[1] == comps.comp_of[3] == 3
    assert comps.comp_of[6] == 6
    assert set(ids) == {3, 6}
    assert ids[3].members == (1, 3)
    assert ids[3].size == 2


def test_components_near_set_inclusive():
    # lone boundary node with 5 non-boundary neighbors: |D|=1, |N(D)|=6
    pts = [(0, 0)] + [(math.cos(a) * 0.9, math.sin(a) * 0.9)
                      for a in np.linspace(0, 2 * math.pi, 6)[:-1]]
    g = graph_from(pts)
    classes = classes_for(g, [1])
    comps = boundary.form_components(g, classes)
    c = comps.components[0]
    assert c.size == 1
    assert c.near_set_size == 6


def test_components_partition_boundary_set():
    rng = np.random.Generator(np.random.Philox(6))
    g = graph_from(rng.random((300, 2)) * 4.5)
    thr = int(np.percentile(g.degrees()[g.ids], 25))
    classes = boundary.central_classify(g, thr)
    comps = boundary.form_components(g, classes)
    all_members = [v for c in comps.components for v in c.members]
    assert len(all_members) == len(set(all_members))
    assert set(all_members) == {v for v in g.id_list
                                if classes[v] == int(NodeClass.BOUNDARY)}
    # exact agreement with the centralized oracle
    mask = classes == int(NodeClass.BOUNDARY)
    cents = boundary.central_components(g, mask)
    assert {c.component_id: set(c.members) for c in comps.components} == \
           {c.component_id: set(c.members) for c in cents}
    assert {c.component_id: c.near_set_size for c in comps.components} == \
           {c.component_id: c.near_set_size for c in cents}


def test_component_flood_memory_follows_nodes_not_ids():
    # 200 nodes under IDs up to 10**7.  The flood's three ID-indexed rows
    # are the floor; the kernel settles each round over its deliveries, so
    # one more ID-sized array (scratch, or a degree array in the driver)
    # would break the bound
    g = random_graph(200, 11, id_span=10**7)
    member = lowest_quarter(g) == int(NodeClass.BOUNDARY)
    tracemalloc.start()
    try:
        fields, res = boundary._flood_components(g, member)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.rounds_used > 2
    for c in boundary.central_components(g, member):
        assert (fields[0, list(c.members)] == c.component_id).all()
    id_array = 8 * (g.max_id + 1)
    assert peak < 3.5 * id_array, peak / id_array


def test_classify_and_components_hold_a_bounded_number_of_deliveries():
    # 3,000 nodes of mean degree 263, all BOUNDARY: a round in which every
    # node broadcasts makes over 12 x CHUNK deliveries, and nobody keeps
    # most of them.  The kernels expand them about CHUNK at a time, each
    # delivery with its fields, so at most a dozen CHUNK-sized arrays are
    # alive at once, however many deliveries a round makes
    g = random_graph(3000, 3, spread=5.5)
    deg = g.degrees()[g.ids]
    assert deg.sum() > 4 * simkernel.CHUNK
    # (the lowest-degree quarter BOUNDARY, where most of a round's
    # deliveries matter, is `test_kernel_holds_a_bounded_number_of_deliveries`)
    every = np.full(g.max_id + 1, int(NodeClass.BOUNDARY), dtype=np.int8)
    _, peak = peak_chunks(lambda: boundary.classify(g, int(deg.max())))
    assert peak < 12, peak
    out, peak = peak_chunks(lambda: boundary.form_components(g, every))
    assert peak < 12, peak
    assert [c.size for c in out.components] == [g.n]


# -- distance flood ----------------------------------------------------------

def test_distance_flood_members_at_zero():
    pts = [(0, 0), (0.9, 0), (1.8, 0), (2.7, 0), (3.6, 0)]
    g = graph_from(pts)
    classes = classes_for(g, [1])
    comps = boundary.form_components(g, classes)
    field, _ = boundary.distance_flood(g, comps.comp_of, mu_est=4)
    assert field.hop[1] == 0 and field.comp[1] == 1
    assert field.hop[5] == 4
    assert (field.comp2[g.ids] == 0).all()  # single component: no runner-up


def test_distance_flood_memory_follows_nodes_not_ids():
    # 200 nodes under IDs up to 10**7.  The kernel's six slot rows and the
    # field's two float hop rows are the floor; the kernel settles each
    # round over its deliveries, so a round with two or more ID-sized
    # scratch arrays would break the bound
    g = random_graph(200, 11, id_span=10**7)
    comps = boundary.form_components(g, lowest_quarter(g))
    mu_est = int(g.degrees()[g.ids].mean())
    tracemalloc.start()
    try:
        field, res = boundary.distance_flood(g, comps.comp_of, mu_est)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.rounds_used > 2
    central = boundary.central_distance_field(g, comps.components, mu_est)
    assert np.array_equal(field.comp, central.comp)
    id_array = 8 * (g.max_id + 1)
    assert peak < 8.5 * id_array, peak / id_array


def test_distance_flood_equals_bfs_and_central():
    rng = np.random.Generator(np.random.Philox(9))
    g = graph_from(rng.random((250, 2)) * 4.0)
    thr = int(np.percentile(g.degrees()[g.ids], 20))
    classes = boundary.central_classify(g, thr)
    comps = boundary.form_components(g, classes)
    mu_est = max(4, int(g.degrees()[g.ids].mean()))
    buf = io.StringIO()
    field, res = boundary.distance_flood(g, comps.comp_of, mu_est, trace=buf)
    central = boundary.central_distance_field(g, comps.components, mu_est)
    assert np.array_equal(field.comp, central.comp)
    assert np.array_equal(field.comp2, central.comp2)
    for mine, ref in ((field.hop, central.hop), (field.hop2, central.hop2)):
        both_inf = np.isinf(mine) & np.isinf(ref)
        assert (both_inf | (mine == ref)).all()
    assert np.array_equal(field.anchor_q, central.anchor_q)
    # multi-source BFS twin for the primary distance
    sources = [v for v in g.id_list if comps.comp_of[v]]
    if sources:
        bfs = netgraph.hop_bfs(g, sources)
        same = np.isinf(field.hop) & np.isinf(bfs) | (field.hop == bfs)
        assert same[g.ids].all()
    # monotone improvement bound: <= 2 broadcasts per slot per node
    k = len(comps.components)
    sent = traced_costs(res, buf.getvalue(), g.max_id + 1)[0]
    assert (sent[g.ids] <= 2 * k + 1).all()


def test_detect_voronoi_rules():
    hop = np.array([np.nan, 3.0, 3.0, 5.0])
    hop2 = np.array([np.nan, 4.0, np.inf, 9.0])
    comp = np.array([0, 10, 10, 20])
    comp2 = np.array([0, 20, 0, 10])
    field = boundary.DistanceField(hop, comp, hop2, comp2, np.zeros(4, dtype=np.int64))
    flags = boundary.detect_voronoi(field, tolerance_hops=2)
    assert flags[1]           # |3-4| <= 2 with two distinct components
    assert not flags[2]       # only ever saw one component
    assert not flags[3]       # gap of 4 hops


# -- token loops -------------------------------------------------------------

def test_token_loop_small_clique():
    # four mutually visible boundary nodes around a tiny obstacle
    pts = [(0, 0), (0.8, 0), (0.8, 0.8), (0, 0.8)]
    g = graph_from(pts)
    classes = classes_for(g, [1, 2, 3, 4])
    comps = boundary.form_components(g, classes)
    assert len(comps.components) == 1
    loops, _ = boundary.run_token_loops(g, comps)
    loop = loops[comps.components[0].component_id]
    assert loop.members[0] == loop.members[-1] == comps.components[0].component_id
    assert len(loop.members) >= 3  # visits at least one other node
    for a, b in zip(loop.walk, loop.walk[1:]):
        assert b in g.neighbors(a)


def test_token_loop_singleton():
    pts = [(0, 0), (5, 5), (5.9, 5)]
    g = graph_from(pts)
    classes = classes_for(g, [1])
    comps = boundary.form_components(g, classes)
    loops, _ = boundary.run_token_loops(g, comps)
    assert loops[1].members == (1,)


def test_token_loop_open_chain_degenerates_but_closes():
    # a straight chain has no cycle; the token dead-ends at the far side,
    # backtracks, and finally closes the smallest legal loop at the root
    pts = [(1.9 * i, 0) for i in range(6)]
    for i in range(5):
        pts.append((1.9 * i + 0.95, 0))  # relays between consecutive members
    g = graph_from(pts)
    classes = classes_for(g, [1, 2, 3, 4, 5, 6])
    comps = boundary.form_components(g, classes)
    assert len(comps.components) == 1
    loop = boundary.run_token_loops(g, comps)[0][6]
    assert loop.members[0] == loop.members[-1] == 6
    assert len(loop.members) >= 3
    for a, b in zip(loop.walk, loop.walk[1:]):
        assert b in g.neighbors(a)


def test_token_loop_failure_reported():
    # malformed component record: claimed members never answer, so the
    # root's backtracking exhausts and its loop is left out
    pts = [(0, 0), (5, 5), (5.9, 5)]
    g = graph_from(pts)
    comps = boundary.ComponentsResult(
        components=[boundary.BoundaryComponent(component_id=1, members=(1,),
                                               size=30, near_set_size=30)],
        comp_of=np.array([0, 1, 0, 0], dtype=np.int64), results=[])
    loops, _ = boundary.run_token_loops(g, comps)
    assert loops == {}


# -- alpha sweep -------------------------------------------------------------

def test_find_plateau_fig3_shape():
    grid = tuple(round(0.05 * i, 2) for i in range(1, 27))
    counts = [0, 0, 0, 0, 0, 0, 0, 1, 9, 15, 12, 7, 4, 4, 4, 4, 7, 2,
              1, 1, 1, 1, 1, 1, 1, 1]
    lo, hi, count = find_plateau(grid, counts)
    assert count == 4
    assert (lo, hi) == (0.65, 0.8)


def test_find_plateau_ignores_terminal_run():
    grid = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    counts = [0, 3, 3, 1, 1, 1]  # the trailing 1s never qualify
    assert find_plateau(grid, counts) == (0.2, 0.3, 3)


def test_find_plateau_none():
    grid = (0.1, 0.2, 0.3, 0.4)
    assert find_plateau(grid, [0, 1, 2, 2]) is None
    assert find_plateau(grid, [0, 0, 0, 0]) is None


def test_alpha_sweep_no_plateau_keeps_counts():
    g = graph_from([(0, 0), (0.5, 0), (0.5, 0.5), (0, 0.5), (0.25, 0.25)])
    sweep = boundary.alpha_sweep(g, mu_est=4, grid=(0.05, 0.1, 0.15, 0.2))
    assert sweep.component_counts == (0, 0, 0, 0)
    assert sweep.plateau is None and sweep.alpha_star is None


def test_alpha_sweep_distributed_matches_central():
    # the sweep's counts are those of the distributed protocols at each
    # alpha, on a grid with no plateau and on a finer one with a plateau
    rng = np.random.Generator(np.random.Philox(15))
    g = graph_from(rng.random((220, 2)) * 4.0)
    mu_est = int(np.median(g.degrees()[g.ids]))
    plateaus = []
    for grid in ((0.3, 0.5, 0.7, 0.9, 1.1, 1.3),
                 tuple(round(0.05 * i, 2) for i in range(4, 27))):
        counts = []
        for a in grid:
            classes, _ = boundary.classify(g, threshold_units(a, mu_est))
            comps = boundary.form_components(g, classes).components
            counts.append(sum(1 for c in comps if c.size >= 2))
        sweep = boundary.alpha_sweep(g, mu_est, grid=grid, min_component_size=2)
        assert sweep.component_counts == tuple(counts)
        assert sweep.plateau == find_plateau(grid, counts)
        plateaus.append(sweep.plateau)
    assert plateaus[0] is None and plateaus[1] is not None


def test_alpha_sweep_rejects_bad_grid():
    g = graph_from([(0, 0), (0.5, 0)])
    with pytest.raises(ValueError):
        boundary.alpha_sweep(g, 10, grid=(0.5, 0.5))
    # a negative mu_est turns an increasing grid into decreasing thresholds,
    # which are no longer nested boundary sets
    with pytest.raises(ValueError, match="must not decrease"):
        boundary.alpha_sweep(g, -10, grid=(0.1, 0.2))


def test_alpha_sweep_memory_below_two_edge_arrays():
    # each grid point holds only the rows of the nodes that just became
    # BOUNDARY, never an array over every edge of the graph
    g = annulus_graph(4000, 3)
    mu_est = estimate_mu(netgraph.histogram(g, 64)).mu_est
    tracemalloc.start()
    try:
        boundary.alpha_sweep(g, mu_est)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * g.indices.nbytes, peak / g.indices.nbytes
