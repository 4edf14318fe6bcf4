import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmtopo import cli, geometry
from swarmtopo.geometry import (AngleViolation, Circle, DomainError,
                                FeatureSizeViolation, NonConvergence, Point,
                                Polygon, Region, TopologyViolation)
from conftest import CROSSING_REGIONS, valid_polygons


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


@pytest.mark.parametrize("name", list(CROSSING_REGIONS))
def test_validate_crossing_polygons(name):
    # segments of two curves cross with no corner of either inside the other
    region = Region([Polygon(np.array(v, dtype=float)) for v in CROSSING_REGIONS[name]])
    with pytest.raises(TopologyViolation, match="touch or cross"):
        geometry.validate_region(region)


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


# -- membership and distance, bit for bit against the broadcast form --------

RING = geometry.region_from_dict({"curves": [  # perfbench's ring-8k document
    {"type": "polygon", "vertices": [[0.0, 0.0], [16.0, 0.0], [16.0, 16.0], [0.0, 16.0]]},
    {"type": "polygon", "vertices": [[5.0, 5.0], [5.0, 11.0], [11.0, 11.0], [11.0, 5.0]]}]})


def reference_distances(curve, pts):
    """`curve_distances` in its first form: every point against every
    segment at once, through (n, s, 2) temporaries."""
    if isinstance(curve, Circle):
        (cx, cy), r = curve.center, curve.radius
        return np.abs(np.hypot(pts[:, 0] - cx, pts[:, 1] - cy) - r)
    a = curve.vertices
    ab = np.roll(a, -1, axis=0) - a
    ap = pts[:, None, :] - a[None, :, :]
    denom = (ab * ab).sum(axis=1)
    denom = np.where(denom == 0.0, 1.0, denom)
    t = np.clip((ap * ab[None, :, :]).sum(axis=2) / denom, 0.0, 1.0)
    d = pts[:, None, :] - (a[None, :, :] + t[:, :, None] * ab[None, :, :])
    return np.hypot(d[:, :, 0], d[:, :, 1]).min(axis=1)


def reference_contains(region, pts):
    """`contains_many` in its first form: every curve's distance for every
    point."""
    tol = geometry._ON_TOL
    ok = geometry._even_odd(region.outer, pts) | (reference_distances(region.outer, pts) <= tol)
    for hole in region.holes:
        ok &= ~(geometry._even_odd(hole, pts) & (reference_distances(hole, pts) > tol))
    return ok


def _regions():
    polys = valid_polygons(6)
    return ([Region([p]) for p in polys]
            + [Region([p, Circle(tuple(p.vertices.mean(axis=0)), 3.0)]) for p in polys]
            + [RING, cli.standard_region(), cli.annulus_region(),
               Region([Circle((1.0, -2.0), 7.5), square(4, 1, -2)]),
               # a hole with edges on the axes, where a point _ON_TOL off
               # an edge is exactly _ON_TOL from it
               Region([square(30), square(4, 2, 2)])])


REGIONS = _regions()


def _curve_point(curve, at: float, offset: float):
    """The point a fraction `at` of the way around the curve, moved
    `offset` off it: radially for a circle, along the edge's right-hand
    normal for a polygon."""
    if isinstance(curve, Circle):
        (cx, cy), r = curve.center, curve.radius
        phi = 2 * math.pi * at
        return cx + (r + offset) * math.cos(phi), cy + (r + offset) * math.sin(phi)
    v = curve.vertices
    i = min(int(at * len(v)), len(v) - 1)
    a, b = v[i], v[(i + 1) % len(v)]
    frac = at * len(v) - i
    p = a + frac * (b - a)
    n = np.array([b[1] - a[1], a[0] - b[0]]) / math.hypot(*(b - a))
    return tuple(p + offset * n)


TOL = geometry._ON_TOL
OFFSETS = [0.0, TOL, -TOL, 2 * TOL, -2 * TOL, 0.5, -0.5, 1e3, -1e6]
point_specs = st.lists(st.tuples(
    st.integers(0, 3),  # curve (modulo the region's count)
    st.floats(0.0, 1.0),  # where
    st.sampled_from(OFFSETS)),  # how far off
    max_size=40)


@pytest.mark.parametrize("region", REGIONS, ids=range(len(REGIONS)))
@given(point_specs)
@settings(max_examples=20, deadline=None)
def test_contains_and_distances_equal_broadcast_form(region, specs):
    # every vertex, and each curve's eighths on it and _ON_TOL either side,
    # then the drawn points
    pts = [tuple(v) for c in region.curves if isinstance(c, Polygon) for v in c.vertices]
    pts += [_curve_point(c, k / 8, off) for c in region.curves for k in range(8)
            for off in (0.0, TOL, -TOL)]
    pts += [_curve_point(region.curves[c % region.k], at, off) for c, at, off in specs]
    pts = np.array(pts, dtype=float)
    assert np.array_equal(geometry.contains_many(region, pts), reference_contains(region, pts))
    for c in region.curves:
        assert np.array_equal(geometry.curve_distances(c, pts), reference_distances(c, pts))


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


# sample_uniform's arrays, recorded before membership skipped curve distances
SAMPLE_DIGESTS = {
    ("standard", 45_000): ["bd377993addd249ec154afae79c291e386e10b895f2fb8f8e05b50651cfb03b8",
                           "baf1d405d9216e704ee0b4076c8facddb4423cc916caeef5611e33e5fa4da61d",
                           "6193cefe9cc500d07bbb2501ebef45c2423c5fa05acc52b9c33b38211ad50999"],
    ("annulus", 13_000): ["5a99ac9327e1ebd52590121b4fc1479bd4fad20ceb0c9482be40f2d38dcd9358",
                          "eecb65efeb8bb30415443099ef8c68696e727971d30282916b79cb23862bf74c",
                          "5ddc599c8f42965d735b0e8930d70b63dcdeea51ff0de2627ad9133c593fa085"],
    ("ring", 8_000): ["51d11d56c8cc7c50a8572d06875f7ec595037f973bb8c426ba4fa455ceb14582",
                      "2e8dbd3f75544c2e0057a37e1b4e433b0b7f53938ac31c3d363d93d2d4a2350a",
                      "7f8ea04602bcf2dbeb24298b05e17e24868e2c61edee0825fb2c068142d4bdf0"],
}


@pytest.mark.parametrize("name, n", list(SAMPLE_DIGESTS))
def test_sample_uniform_digests_pinned(name, n):
    region = RING if name == "ring" else cli.resolve_region(name)
    got = [_sha(geometry.sample_uniform(region, n, seed)) for seed in (1, 2, 3)]
    assert got == SAMPLE_DIGESTS[(name, n)]


def test_validate_region_reports_pinned():
    # recorded from the per-pair validation: the same d_min and angles, bit for bit
    assert [dataclasses.astuple(geometry.validate_region(r))
            for r in (cli.standard_region(), cli.annulus_region(), RING)] == [
        (2.066490534771482, 1.5707963267948966, 3.9269908169872427, 786.9015325212005, 4),
        (6.0, 3.141592653589793, 3.141592653589793, 226.1946710584651, 2),
        (5.0, 1.5707963267948966, 4.71238898038469, 220.0, 2)]
