"""Shared oracle helpers for the test suite."""

import numpy as np
import pytest

from swarmtopo import geometry, netgraph


def graph_from(points, ids=None):
    pts = np.asarray(points, float)
    if ids is None:
        ids = np.arange(1, len(pts) + 1)
    return netgraph.build_udg((np.asarray(ids), pts))


def random_graph(n, seed, spread=None, id_span=None):
    """Connected random unit disk graph on n nodes.  IDs are a permutation
    of 1..n, or with `id_span` n distinct IDs drawn from 1..id_span."""
    rng = np.random.Generator(np.random.Philox(seed))
    spread = spread or max(1.5, (n / 12) ** 0.5)
    while True:
        pts = rng.random((n, 2)) * spread
        if id_span is None:
            ids = rng.permutation(n) + 1
        else:
            ids = rng.choice(id_span, size=n, replace=False) + 1
        g = graph_from(pts, ids=ids)
        if netgraph.is_connected(g):
            return g


def star_graph(center, leaves):
    # adjacency built directly: a 7-leaf unit-disk star has no planar
    # embedding with non-adjacent leaves, but the protocols only see IDs
    ids = np.array(sorted([center] + list(leaves)))
    m = int(ids.max())
    rows = {v: [] for v in ids}
    for leaf in leaves:
        rows[center].append(leaf)
        rows[leaf].append(center)
    indptr = [0]
    indices = []
    for v in range(m + 1):
        for u in sorted(rows.get(v, [])):
            indices.append(u)
        indptr.append(len(indices))
    return netgraph.UnitDiskGraph(ids=ids, xy=np.zeros((m + 1, 2)), R=1.0,
                                  indptr=np.array(indptr),
                                  indices=np.array(indices, dtype=np.int64))


def straight_boundary_samples(region, step=0.5, margin=1.0):
    """Points along straight boundary stretches, `margin` away from corners;
    circles contribute their whole circumference."""
    pts = []
    for curve in region.curves:
        if isinstance(curve, geometry.Circle):
            (cx, cy), r = curve.center, curve.radius
            m = max(8, int(2 * np.pi * r / step))
            for a in np.linspace(0, 2 * np.pi, m, endpoint=False):
                pts.append((cx + r * np.cos(a), cy + r * np.sin(a)))
            continue
        v = curve.vertices
        for k in range(len(v)):
            a, b = v[k], v[(k + 1) % len(v)]
            length = float(np.hypot(*(b - a)))
            if length <= 2 * margin:
                continue
            m = int((length - 2 * margin) / step) + 1
            for t in np.linspace(margin / length, 1 - margin / length, m):
                pts.append(tuple(a + t * (b - a)))
    return np.asarray(pts)


@pytest.fixture(scope="session")
def standard_region():
    from swarmtopo.cli import standard_region as build
    return build()
