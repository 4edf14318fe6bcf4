import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmtopo import geometry, netgraph


def graph_from(points, R=1.0):
    pts = np.asarray(points, float)
    ids = np.arange(1, len(pts) + 1)
    return netgraph.build_udg((ids, pts), R=R)


def test_edge_at_exactly_R():
    g = graph_from([(0, 0), (1, 0)])
    assert list(g.neighbors(1)) == [2]
    assert list(g.neighbors(2)) == [1]


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
