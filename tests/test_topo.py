import numpy as np
import pytest

from swarmtopo import boundary, topo
from swarmtopo.boundary import FRAC_SCALE, BoundaryComponent, DistanceField, NodeClass
from conftest import strip_components


def test_ratio_table_reproduction():
    # near/boundary count pairs for four recognized strips
    stats = topo.component_stats(
        strip_components([(6093, 2169), (1304, 289), (1319, 266), (2368, 616)]))
    ratios = [round(s.ratio, 3) for s in stats]
    assert ratios == [2.809, 4.512, 4.959, 3.844]
    assert topo.classify_outer(stats) == stats[0].component_id


def test_classify_outer_single_component():
    stats = topo.component_stats(strip_components([(500, 100)]))
    assert topo.classify_outer(stats) == stats[0].component_id


def test_classify_outer_tie_prefers_larger():
    stats = [
        topo.ComponentStats(component_id=5, boundary_count=100, near_count=300, ratio=3.0),
        topo.ComponentStats(component_id=9, boundary_count=400, near_count=1200, ratio=3.0),
    ]
    assert topo.classify_outer(stats) == 9


def test_classify_outer_scale_invariant():
    base = [(6093, 2169), (1304, 289), (1319, 266), (2368, 616)]
    scaled = [(3 * a, 3 * b) for a, b in base]
    assert (topo.classify_outer(topo.component_stats(strip_components(base))) ==
            topo.classify_outer(topo.component_stats(strip_components(scaled))))


def test_classify_outer_empty():
    with pytest.raises(ValueError):
        topo.classify_outer([])


def test_component_stats_includes_members():
    comp = BoundaryComponent(component_id=3, members=(1, 2, 3), size=3, near_set_size=10)
    inc = topo.component_stats([comp])[0]
    assert inc.near_count == 10 and inc.ratio == pytest.approx(10 / 3)
    assert inc.ratio >= 1.0


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
