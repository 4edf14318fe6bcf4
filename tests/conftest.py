"""Shared oracle helpers for the test suite."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from swarmtopo import boundary, cli, geometry, netgraph
from swarmtopo.simkernel import RoundLimitExceeded


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


def strip_components(pairs):
    """Boundary components 1, 2, ... with the given (near_set_size, size)
    pairs, for the strip-area ratio."""
    return [boundary.BoundaryComponent(component_id=i + 1, members=tuple(range(1, d + 1)),
                                       size=d, near_set_size=nd)
            for i, (nd, d) in enumerate(pairs)]


# -- Hypothesis strategies: small graphs with arbitrary (gapped) IDs ---------

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
def scattered_udgs(draw):
    # uniform in a square of any size: often disconnected, with isolated nodes
    n = draw(st.integers(1, 40))
    ids = draw(distinct_ids(n))
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2**32 - 1))))
    return graph_from(rng.random((n, 2)) * draw(st.floats(0.5, 8.0)), ids=ids)


@st.composite
def paths(draw):
    n = draw(st.integers(1, 30))
    return graph_from([(0.9 * i, 0.0) for i in range(n)], ids=draw(distinct_ids(n)))


@st.composite
def stars(draw):
    ids = draw(distinct_ids(draw(st.integers(2, 14))))
    return star_graph(ids[0], ids[1:])


single_nodes = st.integers(1, 10**6).map(lambda v: graph_from([(0.0, 0.0)], ids=[v]))
connected_graphs = st.one_of(random_udgs(), paths(), stars(), single_nodes)


# -- graphs and digests of the golden (recorded-protocol) tests -------------

def gapped_path():
    ids = Generator(Philox(7)).permutation(40) * 3 + 2  # gapped, shuffled along the path
    return graph_from([(0.9 * i, 0.0) for i in range(40)], ids=ids)


def standard_20k():
    pts = geometry.sample_uniform(cli.standard_region(), 20000, seed=1)
    ids = Generator(Philox([1, 1])).permutation(20000) + 1
    return netgraph.build_udg((ids, pts))


# graphs on which the round kernels are pinned to recorded runs of the
# object protocols they replaced
GOLDEN_GRAPHS = {
    "dense-60-1": lambda: random_graph(60, 1),
    "dense-250-2": lambda: random_graph(250, 2),
    "dense-800-3": lambda: random_graph(800, 3),
    "gapped-60-4": lambda: random_graph(60, 4, id_span=300),
    "gapped-250-5": lambda: random_graph(250, 5, id_span=1000),
    "gapped-800-6": lambda: random_graph(800, 6, id_span=5000),
    "crowded-400-7": lambda: random_graph(400, 7, spread=2.5),
    "path-40": gapped_path,
    "star": lambda: star_graph(7, [1, 2, 3, 4, 5, 6, 9]),
    "star-gapped": lambda: star_graph(50, [3, 11, 12, 40, 90, 200]),
    "single": lambda: graph_from([(0.0, 0.0)], ids=[5]),
    "standard-20k": standard_20k,
}

def slow_20k(graphs):
    """The graph names as test parameters, the 20k graph marked slow."""
    return [pytest.param(k, marks=pytest.mark.slow) if k == "standard-20k" else k
            for k in graphs]


GOLDEN_CASES = slow_20k(GOLDEN_GRAPHS)


def ring_48():
    # 0.9 apart along a circle, so every node has exactly two neighbours
    ids = Generator(Philox(9)).permutation(48) * 2 + 5
    ang = np.arange(48) * (2 * math.pi / 48)
    r = 0.45 / math.sin(math.pi / 48)
    return graph_from(np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1), ids=ids)


def scattered_70():
    # mean degree about 2.7: isolated nodes, pairs and small clusters
    rng = Generator(Philox(8))
    return graph_from(rng.random((70, 2)) * 9.0, ids=rng.choice(400, 70, replace=False) + 1)


# the golden graphs plus two shapes component formation meets: every node
# at one degree (all BOUNDARY at any threshold) and isolated boundary nodes
COMPONENT_GRAPHS = {**GOLDEN_GRAPHS, "ring-48": ring_48, "scattered-70": scattered_70}
COMPONENT_CASES = slow_20k(COMPONENT_GRAPHS)


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def run_digests(res, trace: str) -> dict:
    """Digests of a protocol run's ledger and trace, with its counts."""
    led = res.ledger
    return {
        "ledger": sha(led.broadcasts_sent.astype("<i8").tobytes()
                      + led.id_units_sent.astype("<i8").tobytes()),
        "trace": sha(trace),
        "rounds_used": res.rounds_used,
        "deliveries": res.deliveries,
    }


def stuck_digest(run, max_rounds: int) -> str:
    """Digest of the stuck nodes `run(max_rounds=...)` names when it runs out."""
    with pytest.raises(RoundLimitExceeded) as e:
        run(max_rounds=max_rounds)
    assert e.value.rounds == max_rounds
    return sha(repr(list(e.value.stuck.items())) + "\n" + str(e.value))


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
    return cli.standard_region()
