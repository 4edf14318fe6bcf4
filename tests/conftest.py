"""Shared oracle helpers for the test suite."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from swarmtopo import boundary, cli, geometry, netgraph, simkernel
from swarmtopo.geometry import FeatureSizeViolation, Polygon
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


def star_polygon(seed: int) -> Polygon:
    """Deterministic pseudo-random polygon; retried by callers until it
    clears the 2R feature-size bar."""
    rng = np.random.Generator(np.random.Philox(seed))
    m = int(rng.integers(5, 12))
    base = rng.uniform(10.0, 24.0)
    wobble = rng.uniform(0.0, 0.45)
    phase = rng.uniform(0, 2 * math.pi)
    lobes = int(rng.integers(1, 4))
    ang = np.sort(rng.uniform(0, 2 * math.pi, m))
    if np.diff(np.r_[ang, ang[0] + 2 * math.pi]).min() < 0.3:
        ang = np.linspace(0, 2 * math.pi, m, endpoint=False) + rng.uniform(0, 0.3, m)
    radii = base * (1 + wobble * np.sin(lobes * ang + phase))
    return Polygon(np.stack([radii * np.cos(ang), radii * np.sin(ang)], axis=1))


def valid_polygons(count: int) -> list[Polygon]:
    out = []
    seed = 0
    while len(out) < count:
        seed += 1
        poly = star_polygon(seed)
        try:
            geometry.band_areas_closed_form(poly)  # checks feature size
        except FeatureSizeViolation:
            continue
        out.append(poly)
    return out


def _rect(x0, x1, y0, y1):
    return [[x0, y0], [x1, y0], [x1, y1], [x0, y1]]


# Regions whose polygons cross although no corner of one lies inside the
# other, as lists of vertex lists (outer curve first)
CROSSING_REGIONS = {
    # two bar holes crossing as a plus sign in a 40 x 40 square
    "plus-of-holes": [_rect(-20, 20, -20, 20), _rect(-10, 10, -1.5, 1.5),
                      _rect(-1.5, 1.5, -10, 10)],
    # a U-shaped outer curve and a bar hole across its notch
    "bar-across-notch": [[[0, 0], [30, 0], [30, 30], [20, 30], [20, 10], [10, 10], [10, 30],
                          [0, 30]], _rect(3, 27, 20, 23)],
}


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
any_graphs = st.one_of(connected_graphs, scattered_udgs())


def subtree_windows(g, states, rows) -> np.ndarray:
    """Each sender's histogram convergecast charge, computed centrally from
    the tree: the window of its subtree's summed row, 3 + hi - lo from the
    first nonzero bin lo to the last hi.  ID-indexed; 0 for the root, the
    leaves (their parents hold their bins) and unused IDs."""
    order, stack = [], [v for v in g.id_list if states[v].parent is None]
    while stack:  # every parent before its children
        v = stack.pop()
        order.append(v)
        stack.extend(states[v].children)
    total = {v: [int(x) for x in rows[v]] for v in g.id_list}
    units = np.zeros(g.max_id + 1, dtype=np.int64)
    for v in reversed(order):
        p = states[v].parent
        if p is not None:
            total[p] = [a + b for a, b in zip(total[p], total[v])]
            if states[v].children:
                nonzero = [i for i, c in enumerate(total[v]) if c]
                units[v] = 3 + nonzero[-1] - nonzero[0]
    return units


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


def below_20k(graphs):
    """The graph names as test parameters, the 20k graph left out: in
    256-delivery pieces its rounds take thousands of pieces each."""
    return [k for k in graphs if k != "standard-20k"]


@pytest.fixture
def small_pieces(monkeypatch):
    """Kernels expand 256 deliveries at a time, so that piece boundaries
    fall inside the rounds of the golden graphs."""
    monkeypatch.setattr(simkernel, "CHUNK", 256)


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


# -- token-loop cases: a graph and its components ----------------------------

def boundary_at(g, ids):
    """Classes with exactly `ids` BOUNDARY (the only class components read)."""
    classes = np.zeros(g.max_id + 1, dtype=np.int8)
    classes[list(ids)] = int(boundary.NodeClass.BOUNDARY)
    return classes


def lowest_quarter(g):
    """The classes with the lowest-degree quarter of the nodes, or more, BOUNDARY."""
    return boundary.central_classify(g, int(np.percentile(g.degrees()[g.ids], 25)))


def annulus_graph(n, seed, radii=(9.0, 3.0)):
    """The graph `swarmtopo run` builds on an annulus of these radii."""
    pts = geometry.sample_uniform(cli.annulus_region(*radii), n, seed=seed)
    return netgraph.build_udg((Generator(Philox([seed, 1])).permutation(n) + 1, pts))


def run_classes(alpha):
    """The classes `swarmtopo run` gives a graph at alpha, a number or "sweep"."""
    def classes_of(g):
        mu_est = boundary.estimate_mu(netgraph.histogram(g, 64)).mu_est
        a = boundary.alpha_sweep(g, mu_est).alpha_star if alpha == "sweep" else alpha
        return boundary.central_classify(g, boundary.threshold_units(a, mu_est))
    return classes_of


def flood_fields(g, member) -> np.ndarray:
    """The component flood's per-ID root, parent and via, as rows."""
    return boundary._flood_components(g, member)[0]


def _token_case(graph, classes_of=lowest_quarter):
    def case():
        g = graph()
        return g, boundary.form_components(g, classes_of(g))
    return case


def _malformed_component():
    # claimed members never answer, so the root's backtracking exhausts
    g = graph_from([(0, 0), (5, 5), (5.9, 5)])
    return g, boundary.ComponentsResult(
        components=[boundary.BoundaryComponent(component_id=1, members=(1,),
                                               size=30, near_set_size=30)],
        comp_of=np.array([0, 1, 0, 0], dtype=np.int64), results=[])


def _open_chain():
    # members 1.9 apart with a relay between each pair: no cycle to walk
    pts = [(1.9 * i, 0) for i in range(6)] + [(1.9 * i + 0.95, 0) for i in range(5)]
    return graph_from(pts)


# the golden graphs, the token-loop graphs of test_boundary.py and two
# annuli as `swarmtopo run` classifies them, each with the components the
# token loops walk
TOKEN_CASES = {
    **{name: _token_case(graph) for name, graph in GOLDEN_GRAPHS.items()},
    "clique-4": _token_case(lambda: graph_from([(0, 0), (0.8, 0), (0.8, 0.8), (0, 0.8)]),
                            lambda g: boundary_at(g, [1, 2, 3, 4])),
    "singleton": _token_case(lambda: graph_from([(0, 0), (5, 5), (5.9, 5)]),
                             lambda g: boundary_at(g, [1])),
    "open-chain": _token_case(_open_chain, lambda g: boundary_at(g, range(1, 7))),
    "malformed": _malformed_component,
    "annulus-4000": _token_case(lambda: annulus_graph(4000, 3), run_classes(0.7)),
    # a loop that closes before it covers its component (see CHANGES.md)
    "annulus-early-close": _token_case(lambda: annulus_graph(1700, 1, (4.0, 1.5)),
                                       run_classes("sweep")),
    # a member hears the choice of one pass, relayed, in the round the new
    # holder's query reaches it: it acts on the copy from the smaller sender
    # first, so it replies before its exclusion only if its relay of the
    # last pass is the new holder
    "order-25-85": _token_case(lambda: random_graph(25, 85)),
    "order-gapped-30-90": _token_case(lambda: random_graph(30, 90, id_span=150)),
    "order-gapped-24-164": _token_case(lambda: random_graph(24, 164, id_span=120)),
}


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def trace_rows(trace: str) -> np.ndarray:
    """A protocol run's trace text (`round,node,kind,units` lines) as one
    int64 row per broadcast, in trace order."""
    rows = np.array([line.split(",") for line in trace.splitlines()], dtype=np.int64)
    return rows.reshape(-1, 4)


def traced_senders(trace: str) -> tuple[np.ndarray, np.ndarray]:
    """The sender and kind code of each broadcast of a protocol run's
    trace text, in trace order."""
    rows = trace_rows(trace)
    return rows[:, 1], rows[:, 2]


def component_traces(trace: str) -> tuple[str, str]:
    """`form_components`' trace text split by message kind into its two
    runs' lines: the component flood's, then the organisation's."""
    flood_kinds = {str(boundary.K_MC.code), str(boundary.K_MF.code)}
    lines = trace.splitlines(keepends=True)
    return ("".join(line for line in lines if line.split(",")[2] in flood_kinds),
            "".join(line for line in lines if line.split(",")[2] not in flood_kinds))


def traced_costs(res, trace: str, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The broadcasts and id-units that run `res`'s trace charges each ID
    below `size`.  They add up to the ledger's totals."""
    rows = trace_rows(trace)
    sent = np.bincount(rows[:, 1], minlength=size)
    units = np.bincount(rows[:, 1], weights=rows[:, 3], minlength=size).astype(np.int64)
    assert len(sent) == size
    assert int(sent.sum()) == res.ledger.total_broadcasts
    assert int(units.sum()) == res.ledger.total_id_units
    return sent, units


def run_digests(res, trace: str, size: int) -> dict:
    """Digests of a protocol run's per-ID ledger, rebuilt from its trace
    over the IDs below `size`, and of the trace, with its counts."""
    sent, units = traced_costs(res, trace, size)
    return {
        "ledger": sha(sent.astype("<i8").tobytes() + units.astype("<i8").tobytes()),
        "trace": sha(trace),
        "rounds_used": res.rounds_used,
        "deliveries": res.deliveries,
    }


def peak_chunks(run) -> tuple:
    """run()'s output and its tracemalloc peak in CHUNK-sized int64 arrays."""
    tracemalloc.start()
    try:
        out = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / (8 * simkernel.CHUNK)


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
def monte_carlo_bands():
    """(polygon, closed-form bands, Monte Carlo bands) for the first 20
    valid polygons, polygon i sampled 2e6 times with seed 500 + i: enough
    to keep the oracle's own 3-sigma noise well under a 1% agreement bar."""
    return [(poly, geometry.band_areas_closed_form(poly),
             geometry.band_areas_oracle(poly, samples=2_000_000, seed=500 + i))
            for i, poly in enumerate(valid_polygons(20))]


@pytest.fixture(scope="session")
def standard_region():
    return cli.standard_region()
