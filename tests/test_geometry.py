import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmtopo import geometry
from swarmtopo.geometry import (AngleViolation, Circle, DomainError,
                                FeatureSizeViolation, NonConvergence, Point,
                                Polygon, Region, TopologyViolation)


def square(side, cx=0.0, cy=0.0):
    h = side / 2
    return Polygon(np.array([[cx - h, cy - h], [cx + h, cy - h],
                             [cx + h, cy + h], [cx - h, cy + h]]))


def test_validate_square():
    rep = geometry.validate_region(Region([square(30, 15, 15)]))
    assert rep.d_min == pytest.approx(30.0)
    assert rep.k == 1
    assert rep.area == pytest.approx(900.0)
    assert rep.min_angle == pytest.approx(math.pi / 2)


def test_validate_hole_too_close_to_wall():
    outer = square(30, 15, 15)
    hole = square(4, 3, 15)  # left edge of the hole sits 1R from the wall
    with pytest.raises(FeatureSizeViolation):
        geometry.validate_region(Region([outer, hole]))


def test_validate_sharp_angle():
    spike = Polygon(np.array([[0, 0], [30, 0], [30, 30], [0.5, 29.0], [15, 15]]))
    with pytest.raises((AngleViolation, FeatureSizeViolation)):
        geometry.validate_region(Region([spike]))


def test_validate_overlapping_holes():
    outer = square(30, 15, 15)
    with pytest.raises(TopologyViolation):
        geometry.validate_region(Region([outer, square(6, 12, 15), square(6, 14, 15)]))


def test_validate_hole_outside_outer():
    with pytest.raises(TopologyViolation):
        geometry.validate_region(Region([square(10, 5, 5), square(4, 30, 30)]))


def test_self_intersecting_polygon_rejected():
    bowtie = Polygon(np.array([[0, 0], [10, 10], [10, 0], [0, 10]]))
    with pytest.raises(TopologyViolation):
        geometry.validate_region(Region([bowtie]))


def test_region_area_unit_square():
    assert geometry.region_area(Region([square(1)])) == pytest.approx(1.0)


def test_region_area_square_minus_circle():
    r = Region([square(30, 15, 15), Circle((15, 15), 3)])
    assert geometry.region_area(r) == pytest.approx(900 - 9 * math.pi)


def test_region_area_matches_monte_carlo():
    # independent oracle: hit fraction over the bounding box, 1e6 samples
    outer = Polygon(np.array([[0, 0], [20, 0], [26, 9], [20, 18], [4, 16]], float))
    r = Region([outer, Circle((12, 8), 2.5), square(5.0, 18.5, 8.0)])
    area = geometry.region_area(r)
    rng = np.random.Generator(np.random.Philox(77))
    x0, y0, x1, y1 = r.bounding_box()
    pts = rng.random((1_000_000, 2)) * [x1 - x0, y1 - y0] + [x0, y0]
    p = geometry.contains_many(r, pts).mean()
    box = (x1 - x0) * (y1 - y0)
    se = box * math.sqrt(p * (1 - p) / len(pts))
    assert abs(area - p * box) < 3 * se


def test_contains_cases():
    r = Region([square(10, 5, 5), Circle((5, 5), 2)])
    assert not geometry.contains(r, Point(5, 5))          # center of the hole
    assert geometry.contains(r, Point(5, 0.5))            # inside, outside hole
    assert geometry.contains(r, Point(0, 0))              # outer vertex counts
    assert geometry.contains(r, Point(5, 3))              # on the hole rim: inside
    assert not geometry.contains(r, Point(11, 5))


def test_sample_uniform_determinism_and_support():
    r = Region([square(10, 5, 5), Circle((5, 5), 2)])
    a = geometry.sample_uniform(r, 5000, seed=3)
    b = geometry.sample_uniform(r, 5000, seed=3)
    assert np.array_equal(a, b)
    assert geometry.contains_many(r, a).all()
    assert (np.hypot(a[:, 0] - 5, a[:, 1] - 5) >= 2).all()  # nothing in the hole


def test_sample_uniform_mean_clt():
    r = Region([square(1, 0.5, 0.5)])
    pts = geometry.sample_uniform(r, 100_000, seed=11)
    se = (1 / math.sqrt(12)) / math.sqrt(len(pts))
    assert abs(pts[:, 0].mean() - 0.5) < 3 * se
    assert abs(pts[:, 1].mean() - 0.5) < 3 * se


def test_sample_density_matches_expectation():
    # expected hits in a sub-rectangle: n * vol(A) / vol(region), 4 sigma
    r = Region([square(10, 5, 5)])
    n = 50_000
    pts = geometry.sample_uniform(r, n, seed=5)
    inside = ((pts[:, 0] > 2) & (pts[:, 0] < 5) & (pts[:, 1] > 1) & (pts[:, 1] < 3)).sum()
    p = (3 * 2) / 100
    sd = math.sqrt(n * p * (1 - p))
    assert abs(inside - n * p) < 4 * sd


def test_sample_nonconvergence():
    # sliver region: hole leaves ~0.4% of the bounding box
    outer = square(100, 50, 50)
    hole = square(99.6, 50, 50)
    with pytest.raises(NonConvergence):
        geometry.sample_uniform(Region([outer, hole]), 1000, seed=1)


def test_curve_distance_table_unit_square_center():
    r = Region([square(1, 0.5, 0.5)])
    table = geometry.curve_distance_table(r, [(0.5, 0.5)])
    assert table.shape == (1, 1)
    assert table[0, 0] == pytest.approx(0.5)


def test_curve_distance_table_nearest_hole():
    r = Region([square(30, 15, 15), Circle((10, 15), 2), Circle((20, 15), 2)])
    d = geometry.curve_distance_table(r, [(13, 15)])[:, 0]
    assert np.argsort(d).tolist() == [1, 2, 0]
    assert d.tolist() == pytest.approx([13.0, 1.0, 5.0])


def test_inradius_square():
    thick, p = geometry.inradius_oracle(Region([square(2, 1, 1)]), grid_step=0.05)
    assert thick == pytest.approx(1.0, abs=0.05)
    assert p.x == pytest.approx(1.0, abs=0.06) and p.y == pytest.approx(1.0, abs=0.06)


def test_inradius_annulus():
    r = Region([Circle((0, 0), 5), Circle((0, 0), 1)])
    thick, p = geometry.inradius_oracle(r, grid_step=0.05)
    assert thick == pytest.approx(2.0, abs=0.05)
    assert math.hypot(p.x, p.y) == pytest.approx(3.0, abs=0.1)


def test_inradius_consistent_with_grid_scan():
    from swarmtopo.cli import standard_region
    r = standard_region()
    thick, _ = geometry.inradius_oracle(r, grid_step=0.05)
    x0, y0, x1, y1 = r.bounding_box()
    xs = np.arange(x0, x1, 0.1)
    pts = np.array([(x, y) for x in xs for y in xs])
    pts = pts[geometry.contains_many(r, pts)]
    grid_max = geometry.curve_distance_table(r, pts).min(axis=0).max()
    assert thick >= grid_max - 1e-9
    assert thick == pytest.approx(grid_max, abs=0.1)


def test_standard_region_inradius_fixture():
    # frozen from a 0.02R dense-grid evaluation: the widest disk sits left
    # of the mouth, equidistant from the wall, the mouth corner, and an eye
    from swarmtopo.cli import standard_region
    thick, p = geometry.inradius_oracle(standard_region(), grid_step=0.05)
    assert thick == pytest.approx(5.474, abs=0.05)
    assert (p.x, p.y) == pytest.approx((5.47, 13.42), abs=0.15)


def test_visibility_endpoints_and_roundtrip():
    assert geometry.visibility_fraction(0.0) == pytest.approx(0.5)
    assert geometry.visibility_fraction(1.0) == pytest.approx(1.0)
    assert geometry.invert_visibility(geometry.visibility_fraction(0.3)) == pytest.approx(0.3, abs=1e-6)
    with pytest.raises(DomainError):
        geometry.visibility_fraction(1.5)
    with pytest.raises(DomainError):
        geometry.invert_visibility(0.3)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_visibility_roundtrip_property(t):
    r = geometry.visibility_fraction(t)
    assert 0.5 <= r <= 1.0
    assert abs(geometry.invert_visibility(r) - t) <= 1e-6


@given(st.floats(min_value=0.0, max_value=0.999), st.floats(min_value=1e-4, max_value=0.1))
@settings(max_examples=100, deadline=None)
def test_visibility_strictly_increasing(t, dt):
    hi = min(t + dt, 1.0)
    assert geometry.visibility_fraction(hi) > geometry.visibility_fraction(t)


def test_region_file_radius_unit_scaling(tmp_path):
    doc = {"radius_unit": 2.0,
           "curves": [{"type": "polygon",
                       "vertices": [[0, 0], [20, 0], [20, 20], [0, 20]]}]}
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    r = geometry.load_region(str(path))
    assert geometry.region_area(r) == pytest.approx(100.0)  # lengths halved


def test_region_file_unknown_type(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"radius_unit": 1, "curves": [{"type": "blob"}]}))
    with pytest.raises(TopologyViolation):
        geometry.load_region(str(path))
