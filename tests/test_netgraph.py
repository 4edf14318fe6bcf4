import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

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
def deployments(draw):
    """Up to 60 points with distinct gapped IDs in shuffled order, either
    anywhere in a box or on a lattice of step R/2, so that points share
    cell borders and lie exactly R apart."""
    n = draw(st.integers(min_value=1, max_value=60))
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
    assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int64
    assert len(g.indptr) == int(ids.max()) + 2
    assert g.ids.tolist() == sorted(ids.tolist())
    want = brute_force_rows(ids, pts, R)
    assert {v: g.neighbors(v).tolist() for v in want} == want  # rows ascending
    assert g.indptr[-1] == sum(len(row) for row in want.values())  # unused IDs empty


# sha256 of indptr.tobytes() and indices.tobytes(), with their lengths,
# recorded from the two-key lexsort build the rank-packed sort replaced
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
    assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int64
    got = (hashlib.sha256(g.indptr.tobytes()).hexdigest(), len(g.indptr),
           hashlib.sha256(g.indices.tobytes()).hexdigest(), len(g.indices))
    assert got == GRAPH_DIGESTS[name]
