"""Offset-band area checks: exact squares, Monte Carlo agreement on random
polygons (convex and star-shaped with reflex corners), and scaling."""

import math

import numpy as np
import pytest

from swarmtopo import geometry
from swarmtopo.geometry import FeatureSizeViolation, Polygon


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


def test_square_outer_band_exact():
    sq = Polygon(np.array([[0, 0], [4, 0], [4, 4], [0, 4]], float))
    b = geometry.band_areas_closed_form(sq, radius=1.0)
    assert b.outer_band == pytest.approx(4 * 4 - 2 * 2)        # L^2 - (L-2R)^2
    assert b.outer_band == pytest.approx(1 * 16 - 4 * math.tan(math.pi / 4))


def test_square_inner_band_exact():
    sq = Polygon(np.array([[0, 0], [4, 0], [4, 4], [0, 4]], float))
    b = geometry.band_areas_closed_form(sq, radius=1.0)
    assert b.inner_band == pytest.approx(4 * 4 * 1 + math.pi)  # 4LR + pi R^2
    assert b.inner_band == pytest.approx(16 + 4 * (math.pi / 2) / 2)


def test_feature_size_precondition():
    tiny = Polygon(np.array([[0, 0], [3, 0], [3, 1.5], [0, 1.5]], float))
    with pytest.raises(FeatureSizeViolation):
        geometry.band_areas_closed_form(tiny, radius=1.0)


def test_orientation_independence():
    sq = Polygon(np.array([[0, 0], [4, 0], [4, 4], [0, 4]], float))
    rev = Polygon(sq.vertices[::-1].copy())
    a = geometry.band_areas_closed_form(sq)
    b = geometry.band_areas_closed_form(rev)
    assert a == b


def test_convex_inner_exceeds_outer():
    # for convex curves the outside strip gains sector caps while the
    # inside strip loses corner overlaps
    for poly in valid_polygons(30):
        if (poly.oriented(ccw=True).turn_angles() < 0).any():
            continue
        b = geometry.band_areas_closed_form(poly)
        phi = poly.oriented(ccw=True).turn_angles()
        expected_gap = sum(phi / 2 + np.tan(phi / 2))
        assert b.inner_band - b.outer_band == pytest.approx(expected_gap, rel=1e-9)
        assert b.inner_band > b.outer_band


@pytest.mark.slow
def test_closed_form_matches_monte_carlo_20_polygons():
    # 2e6 samples keep the oracle's own 3-sigma noise well under the 1%
    # agreement bar
    polys = valid_polygons(20)
    assert sum((p.oriented(ccw=True).turn_angles() < 0).any() for p in polys) >= 3, \
        "want reflex corners represented"
    for i, poly in enumerate(polys):
        cf = geometry.band_areas_closed_form(poly)
        mc = geometry.band_areas_oracle(poly, samples=2_000_000, seed=500 + i)
        assert cf.outer_band == pytest.approx(mc.outer_band, rel=0.01), f"poly {i} outer"
        assert cf.inner_band == pytest.approx(mc.inner_band, rel=0.01), f"poly {i} inner"


def test_monte_carlo_standard_error_scaling():
    sq = Polygon(np.array([[0, 0], [6, 0], [6, 6], [0, 6]], float))
    small = geometry.band_areas_oracle(sq, samples=100_000, seed=1)
    big = geometry.band_areas_oracle(sq, samples=400_000, seed=1)
    assert big.outer_se == pytest.approx(small.outer_se / 2, rel=0.15)


def test_monte_carlo_bands_disjoint_cover():
    # outer + inner bands tile the 2R-wide annulus around the curve
    sq = Polygon(np.array([[0, 0], [6, 0], [6, 6], [0, 6]], float))
    mc = geometry.band_areas_oracle(sq, samples=400_000, seed=9)
    cf = geometry.band_areas_closed_form(sq)
    total_cf = cf.outer_band + cf.inner_band
    assert mc.outer_band + mc.inner_band == pytest.approx(
        total_cf, abs=3 * (mc.outer_se + mc.inner_se))


def test_band_radius_scaling():
    sq = Polygon(np.array([[0, 0], [10, 0], [10, 10], [0, 10]], float))
    b = geometry.band_areas_closed_form(sq, radius=2.0)
    assert b.outer_band == pytest.approx(10 * 10 - 6 * 6)
    assert b.inner_band == pytest.approx(4 * 10 * 2 + math.pi * 4)
