import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox
from scipy.spatial import cKDTree

from swarmtopo import cli, geometry, netgraph


def graph_from(points, R=1.0):
    pts = np.asarray(points, float)
    ids = np.arange(1, len(pts) + 1)
    return netgraph.build_udg((ids, pts), R=R)


def test_edge_at_exactly_R():
    g = graph_from([(0, 0), (1, 0)])
    assert list(g.neighbors(1)) == [2]
    assert list(g.neighbors(2)) == [1]


def test_edge_at_R_across_two_cell_borders():
    # 1.5 - (-2.6e-167) rounds to exactly R: the rounded distance decides,
    # though a cell of side exactly R would put the two points two cells apart
    g = netgraph.build_udg(([1, 2], np.array([(0, -2.6213585e-167), (0, 1.5)])), R=1.5)
    assert list(g.neighbors(1)) == [2]


def test_no_edge_just_beyond_R():
    g = graph_from([(0, 0), (1 + 1e-9, 0)])
    assert g.degree(1) == 0 and g.degree(2) == 0


def test_degrees_and_max():
    pts = [(0, 0)] * 5 + [(10, 10)]
    g = graph_from(pts)
    assert g.degrees()[g.ids].max() == 4
    assert g.degree(6) == 0
    assert g.degree(1) == 4


def test_matches_brute_force():
    rng = np.random.Generator(np.random.Philox(42))
    pts = rng.random((300, 2)) * 6.0
    g = graph_from(pts)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    want = (d2 <= 1.0) & ~np.eye(len(pts), dtype=bool)
    for v in range(1, len(pts) + 1):
        expect = sorted(np.flatnonzero(want[v - 1]) + 1)
        assert list(g.neighbors(v)) == expect


def test_insertion_order_independence():
    rng = np.random.Generator(np.random.Philox(7))
    pts = rng.random((100, 2)) * 4.0
    ids = np.arange(1, 101)
    g1 = netgraph.build_udg((ids, pts))
    perm = rng.permutation(100)
    g2 = netgraph.build_udg((ids[perm], pts[perm]))
    for v in range(1, 101):
        assert np.array_equal(g1.neighbors(v), g2.neighbors(v))


def test_adjacency_symmetric_irreflexive():
    rng = np.random.Generator(np.random.Philox(3))
    pts = rng.random((250, 2)) * 5.0
    g = graph_from(pts)
    for v in range(1, g.n + 1):
        nbrs = g.neighbors(v)
        assert v not in nbrs
        assert np.all(np.diff(nbrs) > 0)
        for u in nbrs:
            assert v in g.neighbors(int(u))


def test_histogram_single_bin_when_degrees_equal():
    # 4-clique far from a second 4-clique: every degree is 3
    pts = [(0, 0), (0.1, 0), (0, 0.1), (0.1, 0.1),
           (9, 9), (9.1, 9), (9, 9.1), (9.1, 9.1)]
    g = graph_from(pts)
    h = netgraph.histogram(g, bin_count=16)
    assert (h.counts > 0).sum() == 1
    assert h.counts.sum() == g.n
    assert h.delta == 3


def test_histogram_counts_sum_and_bins():
    rng = np.random.Generator(np.random.Philox(12))
    g = graph_from(rng.random((400, 2)) * 5.0)
    h = netgraph.histogram(g, 64)
    assert h.counts.sum() == g.n
    with pytest.raises(ValueError):
        netgraph.histogram(g, 8)


def test_degree_bin_edges():
    assert netgraph.degree_bin(0, 100, 64) == 0
    assert netgraph.degree_bin(100, 100, 64) == 63   # last bin closed
    assert netgraph.degree_bin(99, 100, 64) == 63
    assert netgraph.degree_bin(0, 0, 64) == 0


def test_hop_bfs_path_and_sources():
    g = graph_from([(0, 0), (0.9, 0), (1.8, 0), (9, 9)])
    d = netgraph.hop_bfs(g, [1])
    assert d[1] == 0 and d[2] == 1 and d[3] == 2
    assert math.isinf(d[4])
    d2 = netgraph.hop_bfs(g, [1, 3])
    assert d2[2] == 1 and d2[1] == 0 and d2[3] == 0


def test_is_connected():
    assert netgraph.is_connected(graph_from([(0, 0), (0.5, 0), (1.0, 0.3)]))
    assert not netgraph.is_connected(graph_from([(0, 0), (5, 5)]))
    assert netgraph.is_connected(graph_from([(2, 2)]))


def test_interior_degree_matches_density_formula():
    # census vs (n-1) pi R^2 / area over 20 seeds; nearby degrees correlate
    # through shared density, so the seed-to-seed spread of the per-seed
    # mean is the right scale, not s/sqrt(n)
    region = geometry.Region([geometry.Polygon(
        np.array([[0, 0], [12, 0], [12, 12], [0, 12]], float))])
    n = 2500
    mu = (n - 1) * math.pi / 144.0
    means = []
    for seed in range(1, 21):
        pts = geometry.sample_uniform(region, n, seed)
        g = graph_from(pts)
        interior = geometry.curve_distance_table(region, pts).min(axis=0) >= 1.0
        means.append(g.degrees()[1:][interior].mean())
    means = np.array(means)
    se = means.std(ddof=1) / math.sqrt(len(means))
    assert abs(means.mean() - mu) < 3 * se
    assert means.std(ddof=1) < 0.05 * mu


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30, deadline=None)
def test_build_udg_symmetry_property(n, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    pts = rng.random((n, 2)) * 3.0
    g = graph_from(pts)
    degs = g.degrees()[1:]
    assert degs.sum() == 2 * g.edge_count()
    for v in range(1, n + 1):
        for u in g.neighbors(v):
            assert v in g.neighbors(int(u))


def brute_force_rows(ids, pts, R):
    """{id: ascending neighbour IDs} from all pairs: dx*dx + dy*dy <= R*R."""
    dx = pts[:, 0, None] - pts[None, :, 0]
    dy = pts[:, 1, None] - pts[None, :, 1]
    near = (dx * dx + dy * dy <= R * R) & ~np.eye(len(ids), dtype=bool)
    return {int(v): sorted(int(u) for u in ids[near[i]]) for i, v in enumerate(ids)}


@st.composite
def deployments(draw, min_size=1):
    """`min_size` to 60 points with distinct gapped IDs in shuffled order,
    either anywhere in a box or on a lattice of step R/2, so that points
    share x coordinates and lie exactly R apart."""
    n = draw(st.integers(min_value=min_size, max_value=60))
    ids = draw(st.lists(st.integers(min_value=1, max_value=10**7),
                        min_size=n, max_size=n, unique=True))
    R = draw(st.sampled_from([0.3, 0.5, 0.7, 1.0, 1.5, 2.0]))
    if draw(st.booleans()):
        steps = st.integers(min_value=-8, max_value=8)
        pts = np.array(draw(st.lists(st.tuples(steps, steps), min_size=n, max_size=n)),
                       dtype=float) * (R / 2)
    else:
        coord = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
        pts = np.array(draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)),
                       dtype=float)
    return np.array(ids, dtype=np.int64), pts, R


@pytest.mark.slow
@given(deployments())
@settings(max_examples=300, deadline=None)
def test_build_udg_matches_brute_force_property(dep):
    ids, pts, R = dep
    g = netgraph.build_udg((ids, pts), R=R)
    assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int32
    assert len(g.indptr) == int(ids.max()) + 2
    assert g.ids.tolist() == sorted(ids.tolist())
    want = brute_force_rows(ids, pts, R)
    assert {v: g.neighbors(v).tolist() for v in want} == want  # rows ascending
    assert g.indptr[-1] == sum(len(row) for row in want.values())  # unused IDs empty


def strip_graph(monkeypatch, strip, pts, R, ids=None):
    """The graph built with `strip` nodes per k-d tree, checked against
    brute force."""
    pts = np.asarray(pts, float)
    ids = np.arange(1, len(pts) + 1) if ids is None else ids
    monkeypatch.setattr(netgraph, "STRIP", strip)
    g = netgraph.build_udg((ids, pts), R=R)
    want = brute_force_rows(ids, pts, R)
    assert {v: g.neighbors(v).tolist() for v in want} == want
    return g


@pytest.mark.slow
@given(deployments(min_size=8), st.integers(min_value=3, max_value=7))
@settings(max_examples=200, deadline=None)
def test_build_udg_across_strips_matches_brute_force_property(dep, strip):
    # at least 8 nodes in strips of 3 to 7: every deployment spans strips
    ids, pts, R = dep
    with pytest.MonkeyPatch.context() as mp:
        strip_graph(mp, strip, pts, R, ids)


def test_edge_at_exactly_R_across_a_strip_border(monkeypatch):
    # 1.5^2 + 2^2 = 2.5^2 exactly; one node per strip
    g = strip_graph(monkeypatch, 1, [(0, 0), (1.5, 2.0), (4.0, 2.0), (1.5, -0.5)], R=2.5)
    assert g.neighbors(1).tolist() == [2, 4] and g.neighbors(3).tolist() == [2]


def test_equal_x_on_both_sides_of_a_strip_border(monkeypatch):
    # x order (0, 1, 1 | 1, 1, 2): the border falls inside the x = 1 column
    pts = [(1, 0.5), (0, 0), (1, 0), (2, 0), (1, -0.5), (1, 1.5)]
    g = strip_graph(monkeypatch, 3, pts, R=1.0)
    assert g.neighbors(3).tolist() == [1, 2, 4, 5]
    assert g.neighbors(6).tolist() == [1]


def test_duplicate_positions_across_strip_borders(monkeypatch):
    g = strip_graph(monkeypatch, 2, [(0.3, 0.3)] * 5 + [(1.3, 0.3), (2.4, 0.3)], R=1.0)
    assert g.degrees()[1:6].tolist() == [5] * 5 and g.neighbors(6).tolist() == [1, 2, 3, 4, 5]
    assert g.degree(7) == 0


def test_edge_at_R_a_hair_beyond_R_in_x(monkeypatch):
    # b lies beyond a + R in floating point, but b - a rounds to exactly R:
    # the rounded distance decides, so a strip must reach a hair past R
    a, b = -0.6133884082193948, -0.11338840821939476
    assert b > a + 0.5 and b - a == 0.5
    g = strip_graph(monkeypatch, 1, [(a, 0.0), (b, 0.0)], R=0.5)
    assert g.neighbors(1).tolist() == [2]


def test_int64_keys_past_65536_nodes():
    # n * n > 2**32: the edge keys are int64, sorted in a buffer twice the
    # length of the int32 `indices` that is cut back in place; a sparse
    # deployment, checked against one whole-graph tree
    rng = Generator(Philox(13))
    n = 65_537
    pts = rng.random((n, 2)) * 300.0
    ids = 3 * rng.permutation(n) + 2
    g = netgraph.build_udg((ids, pts))
    assert g.indices.dtype == np.int32 and g.indices.base is None
    pairs = cKDTree(pts).query_pairs(1.0, output_type="ndarray")
    want = np.sort(np.r_[ids[pairs[:, 0]] * 2**20 + ids[pairs[:, 1]],
                         ids[pairs[:, 1]] * 2**20 + ids[pairs[:, 0]]])
    rows = np.repeat(np.arange(len(g.indptr) - 1), np.diff(g.indptr))
    assert len(want) > n and np.array_equal(rows * 2**20 + g.indices, want)


# sha256 of indptr.tobytes() and of indices as int64 bytes, with their
# lengths, recorded from the two-key lexsort build the rank-packed sort
# replaced, when `indices` was int64
GRAPH_DIGESTS = {
    "annulus-13k": ("52fe372d24a1339eaeaadbd13361543ee12e5c15fff488a67e5d71a42a8cf609", 13002,
                    "db69e753b12b59d2600c6a6622dcba1208fa23ace3bdfda292ea30e7b5b20a8a", 2183618),
    "gapped-7k+3": ("f9212156d89933df4b9d88f399cbf2d7d6340cee938b7420d054d925afbf7752", 4198,
                    "d8afc2414a15fbf639597c557b43ba71fa598eac765463ae697468cb66b57b57", 27228),
    "single": ("17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1", 6,
               "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "edgeless-pair": ("66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925", 4,
                      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "negative-R0.75": ("70f1c76e10ca7e07321fa9c6213097ff9c64f97abf5b143e4a6cae1d0c375fd9", 402,
                       "6bf2da14bf12fad906bda8e6fa09bc7260bd9b9b0163f2cfe34f434d6fbb55c3", 10066),
}


def pinned_deployment(name):
    """(ids, xy, R) of a pinned graph."""
    if name == "annulus-13k":  # the CLI's deployment: annulus, n = 13,000, seed 1
        pts = geometry.sample_uniform(cli.resolve_region("annulus"), 13_000, 1)
        return Generator(Philox([1, 1])).permutation(13_000) + 1, pts, 1.0
    if name == "gapped-7k+3":
        rng = Generator(Philox(10))
        pts = rng.random((600, 2)) * 6.0
        return 7 * rng.permutation(600) + 3, pts, 1.0
    if name == "single":
        return np.array([4]), np.array([[0.3, -0.2]]), 1.0
    if name == "edgeless-pair":
        return np.array([1, 2]), np.array([[0.0, 0.0], [1.5, 0.0]]), 1.0
    rng = Generator(Philox(11))  # negative coordinates, R = 0.75
    return np.arange(1, 401), rng.random((400, 2)) * 5.0 - [4.0, 3.0], 0.75


@pytest.mark.parametrize("name", sorted(GRAPH_DIGESTS))
def test_graph_digests_pinned(name):
    ids, pts, R = pinned_deployment(name)
    g = netgraph.build_udg((ids, pts), R=R)
    assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int32
    got = (hashlib.sha256(g.indptr.tobytes()).hexdigest(), len(g.indptr),
           hashlib.sha256(g.indices.astype(np.int64).tobytes()).hexdigest(), len(g.indices))
    assert got == GRAPH_DIGESTS[name]


@pytest.mark.parametrize("ids", [[1, 2**31], [2**31 + 5, 3], [0, 1], [4, 4]])
def test_ids_out_of_range_raise_before_any_id_sized_array(ids):
    # `indices` holds IDs as int32: an ID of 2**31 or more is refused
    # before `indptr` or `positions`, 2**31 entries each, is made
    pts = np.array([[0.0, 0.0], [0.5, 0.0]])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="unique integers"):
            netgraph.build_udg((np.array(ids), pts))
        with pytest.raises(ValueError, match="unique integers"):
            netgraph.UnitDiskGraph(ids=np.sort(ids), xy=pts, R=1.0, indptr=np.zeros(3, np.int64),
                                   indices=np.zeros(0, np.int32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_graph_built_by_hand_holds_int32_indices():
    g = netgraph.UnitDiskGraph(ids=np.array([1, 2]), xy=np.zeros((3, 2)), R=1.0,
                               indptr=np.array([0, 0, 1, 2]), indices=np.array([2, 1]))
    assert g.indices.dtype == np.int32 and g.neighbors(1).tolist() == [2]
