import math

import numpy as np
import pytest

from swarmtopo import topo
from swarmtopo.boundary import (FRAC_SCALE, BoundaryComponent, DistanceField, NodeClass,
                                visibility_offset)
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


def one_node(node_class, hop, deg, mu_est, anchor_q) -> float:
    """fractional_distances on a one-node input, node 1."""
    field = DistanceField(np.array([np.inf, hop]), np.array([0, 1]), np.full(2, np.inf),
                          np.zeros(2, dtype=np.int64), np.array([0, anchor_q]))
    classes = np.array([0, node_class], dtype=np.int8)
    return float(topo.fractional_distances(classes, field, np.array([0, deg]), mu_est, [1])[1])


def test_fractional_distance_visibility_cases():
    mu = 100
    # half the unconstrained neighborhood: sitting on the boundary line
    assert one_node(int(NodeClass.BOUNDARY), 0, 50, mu, 0) == pytest.approx(0.0, abs=1e-6)
    # full neighborhood at hop 0 or 1: one radius in
    for hop in (0, 1):
        cls = NodeClass.BOUNDARY if hop == 0 else NodeClass.NEAR_BOUNDARY
        assert one_node(int(cls), hop, 120, mu, 0) == pytest.approx(1.0, abs=1e-6)
    # clamped below half
    assert one_node(int(NodeClass.BOUNDARY), 0, 10, mu, 0) == pytest.approx(0.0, abs=1e-6)


def test_fractional_distance_monotone_in_degree():
    mu = 100
    vals = [one_node(int(NodeClass.BOUNDARY), 0, d, mu, 0) for d in range(40, 121, 5)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_fractional_distance_interior_steps_back_to_anchor():
    q = int(round(0.4 * FRAC_SCALE))
    d = one_node(int(NodeClass.INTERIOR), 5, 170, 160, q)
    assert d == pytest.approx(4.4, abs=1e-4)


def per_node_rule(node_class, hop, deg, mu_est, anchor_q) -> float:
    """The paper's rule for one node: boundary and near nodes invert the
    visibility model, deeper ones step back hop by hop to their anchor."""
    if node_class in (int(NodeClass.BOUNDARY), int(NodeClass.NEAR_BOUNDARY)):
        return float(visibility_offset(deg, mu_est))
    if not np.isfinite(hop):
        return math.inf
    return (hop - 1.0) + anchor_q / FRAC_SCALE


@pytest.mark.parametrize("seed", range(6))
def test_array_rule_matches_per_node_rule(seed):
    # fractional_distances and thickness against the rule node by node and
    # a max over the IDs in ascending order, on gapped IDs with unreached
    # nodes, every class, shared degrees and ties in hop and frac
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
    loop = [per_node_rule(int(classes[v]), hop[v], int(degrees[v]), 100, int(anchor[v]))
            for v in ids]
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
