import numpy as np
import pytest

from swarmtopo import topo
from swarmtopo.boundary import FRAC_SCALE, BoundaryComponent, DistanceField, NodeClass
from conftest import strip_components


def test_ratio_table_reproduction():
    # near/boundary count pairs for four recognized strips
    comps = strip_components([(6093, 2169), (1304, 289), (1319, 266), (2368, 616)])
    ratios = [round(c.ratio(), 3) for c in comps]
    assert ratios == [2.809, 4.512, 4.959, 3.844]
    assert topo.classify_outer(comps) == comps[0].component_id


def test_classify_outer_single_component():
    comps = strip_components([(500, 100)])
    assert topo.classify_outer(comps) == comps[0].component_id


def test_classify_outer_tie_prefers_larger():
    comps = [
        BoundaryComponent(component_id=5, members=tuple(range(1, 101)), size=100,
                          near_set_size=300),
        BoundaryComponent(component_id=9, members=tuple(range(101, 501)), size=400,
                          near_set_size=1200),
    ]
    assert topo.classify_outer(comps) == 9


def test_classify_outer_scale_invariant():
    base = [(6093, 2169), (1304, 289), (1319, 266), (2368, 616)]
    scaled = [(3 * a, 3 * b) for a, b in base]
    assert (topo.classify_outer(strip_components(base)) ==
            topo.classify_outer(strip_components(scaled)))


def test_classify_outer_empty():
    with pytest.raises(ValueError):
        topo.classify_outer([])


def test_component_ratio_includes_members():
    comp = BoundaryComponent(component_id=3, members=(1, 2, 3), size=3, near_set_size=10)
    assert comp.ratio() == pytest.approx(10 / 3)
    assert comp.ratio() >= 1.0


def test_fractional_distance_visibility_cases():
    mu = 100
    # half the unconstrained neighborhood: sitting on the boundary line
    assert topo.fractional_distance(int(NodeClass.BOUNDARY), 0, 50, mu, 0) == pytest.approx(0.0, abs=1e-6)
    # full neighborhood at hop 0 or 1: one radius in
    for hop in (0, 1):
        cls = NodeClass.BOUNDARY if hop == 0 else NodeClass.NEAR_BOUNDARY
        assert topo.fractional_distance(int(cls), hop, 120, mu, 0) == pytest.approx(1.0, abs=1e-6)
    # clamped below half
    assert topo.fractional_distance(int(NodeClass.BOUNDARY), 0, 10, mu, 0) == pytest.approx(0.0, abs=1e-6)


def test_fractional_distance_monotone_in_degree():
    mu = 100
    vals = [topo.fractional_distance(int(NodeClass.BOUNDARY), 0, d, mu, 0)
            for d in range(40, 121, 5)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_fractional_distance_interior_steps_back_to_anchor():
    q = int(round(0.4 * FRAC_SCALE))
    d = topo.fractional_distance(int(NodeClass.INTERIOR), 5, 170, 160, q)
    assert d == pytest.approx(4.4, abs=1e-4)


@pytest.mark.parametrize("seed", range(6))
def test_array_rule_matches_per_node_rule(seed):
    # fractional_distances and thickness against fractional_distance node by
    # node and a max over the IDs in ascending order, on gapped IDs with
    # unreached nodes, every class, shared degrees and ties in hop and frac
    rng = np.random.Generator(np.random.Philox(seed))
    size = 200
    ids = np.sort(rng.choice(np.arange(1, size), 120, replace=False))
    classes = rng.integers(0, 3, size).astype(np.int8)
    hop = rng.integers(0, 6, size).astype(float)
    hop[rng.random(size) < 0.1] = np.inf
    anchor = rng.integers(0, 4, size) * (FRAC_SCALE // 4)
    field = DistanceField(hop, np.ones(size, dtype=np.int64), np.full(size, np.inf),
                          np.zeros(size, dtype=np.int64), anchor)
    degrees = rng.integers(20, 140, size)
    frac = topo.fractional_distances(classes, field, degrees, 100, ids)
    loop = [topo.fractional_distance(int(classes[v]), hop[v], int(degrees[v]), 100,
                                     int(anchor[v])) for v in ids]
    assert frac[ids].tolist() == loop
    best = max((v for v in ids.tolist() if np.isfinite(hop[v])),
               key=lambda v: (hop[v], frac[v]))
    rep = topo.thickness(classes, field, degrees, 100, ids.tolist())
    assert (rep.best_node, rep.thickness_estimate) == (best, frac[best])


def test_thickness_all_boundary_at_most_one():
    n = 6
    classes = np.full(n + 1, int(NodeClass.BOUNDARY), dtype=np.int8)
    classes[0] = 0
    hop = np.zeros(n + 1)
    comp = np.ones(n + 1, dtype=np.int64)
    field = DistanceField(hop, comp, np.full(n + 1, np.inf),
                          np.zeros(n + 1, dtype=np.int64),
                          np.zeros(n + 1, dtype=np.int64))
    degrees = np.array([0, 50, 80, 100, 120, 60, 90])
    rep = topo.thickness(classes, field, degrees, mu_est=100, ids=range(1, n + 1))
    assert rep.thickness_estimate <= 1.0
    assert rep.best_node == 3  # 3 and 4 both saturate at 1R; smaller ID wins


def test_thickness_prefers_hops_then_frac_then_smaller_id():
    n = 4
    classes = np.zeros(n + 1, dtype=np.int8)
    hop = np.array([np.nan, 3, 5, 5, 4], dtype=float)
    anchor = np.array([0, 0, int(0.25 * FRAC_SCALE), int(0.25 * FRAC_SCALE), 0])
    field = DistanceField(hop, np.ones(n + 1, dtype=np.int64),
                          np.full(n + 1, np.inf), np.zeros(n + 1, dtype=np.int64),
                          anchor)
    degrees = np.full(n + 1, 100)
    rep = topo.thickness(classes, field, degrees, mu_est=100, ids=range(1, n + 1))
    assert rep.best_node == 2  # id 2 beats id 3 on the tie
    assert rep.hop_dist == 5
    assert rep.thickness_estimate == pytest.approx(4.25)


@pytest.mark.parametrize("ids", [[1, 2, 3], []], ids=["unreached", "empty"])
def test_thickness_without_finite_hop_raises(ids):
    # a field with no source reaches no node; an empty ID list has none
    n = 3
    classes = np.zeros(n + 1, dtype=np.int8)
    field = DistanceField(np.full(n + 1, np.inf), np.zeros(n + 1, dtype=np.int64),
                          np.full(n + 1, np.inf), np.zeros(n + 1, dtype=np.int64),
                          np.zeros(n + 1, dtype=np.int64))
    with pytest.raises(topo.NoFiniteHop, match="no node of ids has a finite hop"):
        topo.thickness(classes, field, np.full(n + 1, 100), mu_est=100, ids=ids)
