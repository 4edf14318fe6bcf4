"""Planar region model, validation, sampling, and ground-truth oracles.

All lengths are expressed in units of the communication radius (R = 1).
Regions are bounded by one outer curve plus zero or more hole curves;
curves are simple polygons or circles.  Everything in this module is
oracle-side: the distributed layer never sees coordinates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from numpy.random import Generator, Philox


class GeometryError(Exception):
    """Base for all region/geometry validation failures."""


class FeatureSizeViolation(GeometryError):
    """A corner or element pair is closer than the required feature size."""


class AngleViolation(GeometryError):
    """An interior angle is too sharp or too reflex."""


class TopologyViolation(GeometryError):
    """Curves self-intersect, overlap, or are not properly nested."""


class NonConvergence(GeometryError):
    """Rejection sampling acceptance rate collapsed (degenerate region)."""


class DomainError(GeometryError, ValueError):
    """Argument outside the mathematical domain of the function."""


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __iter__(self):
        return iter((self.x, self.y))


@dataclass(frozen=True)
class Polygon:
    """Simple closed polygon given by its vertex ring (no repeated endpoint)."""

    vertices: np.ndarray  # shape (k, 2), k >= 3

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise TopologyViolation("polygon needs >= 3 two-dimensional vertices")
        if not np.isfinite(v).all():
            raise TopologyViolation("polygon has non-finite vertices")
        object.__setattr__(self, "vertices", v)

    @property
    def signed_area(self) -> float:
        x, y = self.vertices[:, 0], self.vertices[:, 1]
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    @property
    def area(self) -> float:
        return abs(self.signed_area)

    @property
    def perimeter(self) -> float:
        d = np.roll(self.vertices, -1, axis=0) - self.vertices
        return float(np.hypot(d[:, 0], d[:, 1]).sum())

    def oriented(self, ccw: bool = True) -> "Polygon":
        if (self.signed_area > 0) == ccw:
            return self
        return Polygon(self.vertices[::-1].copy())

    def turn_angles(self) -> np.ndarray:
        """Signed turn at each vertex in traversal order (positive = left)."""
        v = self.vertices
        e_in = v - np.roll(v, 1, axis=0)
        e_out = np.roll(v, -1, axis=0) - v
        cross = e_in[:, 0] * e_out[:, 1] - e_in[:, 1] * e_out[:, 0]
        dot = (e_in * e_out).sum(axis=1)
        return np.arctan2(cross, dot)


@dataclass(frozen=True)
class Circle:
    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise TopologyViolation("circle radius must be positive and finite")

    @property
    def area(self) -> float:
        return math.pi * self.radius**2

    @property
    def perimeter(self) -> float:
        return 2 * math.pi * self.radius


BoundaryCurve = Union[Polygon, Circle]


@dataclass(frozen=True)
class Region:
    """Connected planar region: curves[0] is the outer boundary, the rest holes.

    Orientation is normalized on construction so the interior lies to the
    left of the traversal direction: outer counter-clockwise, holes clockwise.
    """

    curves: tuple[BoundaryCurve, ...]

    def __init__(self, curves: Sequence[BoundaryCurve]):
        if len(curves) < 1:
            raise TopologyViolation("region needs at least an outer curve")
        fixed = []
        for i, c in enumerate(curves):
            if isinstance(c, Polygon):
                fixed.append(c.oriented(ccw=(i == 0)))
            else:
                fixed.append(c)
        object.__setattr__(self, "curves", tuple(fixed))

    @property
    def k(self) -> int:
        return len(self.curves)

    @property
    def outer(self) -> BoundaryCurve:
        return self.curves[0]

    @property
    def holes(self) -> tuple[BoundaryCurve, ...]:
        return self.curves[1:]

    def bounding_box(self) -> tuple[float, float, float, float]:
        c = self.outer
        if isinstance(c, Polygon):
            lo = c.vertices.min(axis=0)
            hi = c.vertices.max(axis=0)
            return float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1])
        (cx, cy), r = c.center, c.radius
        return cx - r, cy - r, cx + r, cy + r


@dataclass(frozen=True)
class FeatureReport:
    d_min: float
    min_angle: float
    max_angle: float
    area: float
    k: int


@dataclass(frozen=True)
class BandAreas:
    outer_band: float  # strip inside the curve, width R
    inner_band: float  # strip outside the curve, width R


@dataclass(frozen=True)
class BandAreasEstimate:
    outer_band: float
    inner_band: float
    outer_se: float
    inner_se: float


# --------------------------------------------------------------------------
# low-level predicates
# --------------------------------------------------------------------------

_ON_TOL = 1e-9


def _segments(poly: Polygon) -> tuple[np.ndarray, np.ndarray]:
    a = poly.vertices
    b = np.roll(a, -1, axis=0)
    return a, b


def _point_segment_distance(px, py, ax, ay, bx, by):
    """Distance from points (px, py) to segments [(ax, ay), (bx, by)],
    elementwise under numpy broadcasting."""
    abx, aby = bx - ax, by - ay
    denom = abx * abx + aby * aby
    denom = np.where(denom == 0.0, 1.0, denom)
    # t = clip(((p - a) . ab) / |ab|^2, 0, 1); distance |p - (a + t ab)|,
    # evaluated in place in that order
    t = px - ax
    t *= abx
    u = py - ay
    u *= aby
    t += u
    t /= denom
    np.clip(t, 0.0, 1.0, out=t)
    np.multiply(t, abx, out=u)
    u += ax
    np.subtract(px, u, out=u)
    t *= aby
    t += ay
    np.subtract(py, t, out=t)
    return np.hypot(u, t, out=u)


def _dist_points_segments(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance matrix (n_pts, n_segs) from points to segments [a_i, b_i]."""
    return _point_segment_distance(pts[:, :1], pts[:, 1:], a[:, 0], a[:, 1], b[:, 0], b[:, 1])


def curve_distances(curve: BoundaryCurve, pts: np.ndarray) -> np.ndarray:
    """Unsigned distance from each point to the curve (as a set of points):
    for a polygon, a running minimum over its segments, one pass each."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if isinstance(curve, Circle):
        (cx, cy), r = curve.center, curve.radius
        return np.abs(np.hypot(pts[:, 0] - cx, pts[:, 1] - cy) - r)
    x, y = np.ascontiguousarray(pts.T)
    best = np.full(len(pts), np.inf)
    a, b = _segments(curve)
    for (ax, ay), (bx, by) in zip(a.tolist(), b.tolist()):
        np.minimum(best, _point_segment_distance(x, y, ax, ay, bx, by), out=best)
    return best


def _even_odd(curve: BoundaryCurve, pts: np.ndarray) -> np.ndarray:
    """Even-odd containment test; behavior on the curve itself is unspecified."""
    x, y = pts[:, 0], pts[:, 1]
    if isinstance(curve, Circle):
        (cx, cy), r = curve.center, curve.radius
        return np.hypot(x - cx, y - cy) <= r
    v = curve.vertices
    inside = np.zeros(len(pts), dtype=bool)
    j = len(v) - 1
    for i in range(len(v)):
        xi, yi = v[i]
        xj, yj = v[j]
        if yi != yj:
            cond = ((yi > y) != (yj > y)) & (x < (xj - xi) * (y - yi) / (yj - yi) + xi)
            inside ^= cond
        j = i
    return inside


def contains_many(region: Region, pts: np.ndarray) -> np.ndarray:
    """Vectorized region membership; points on any curve count as inside.

    The even-odd test settles each point; a curve's distance (on it means
    within _ON_TOL) is measured only where it can flip the answer: outside
    the outer curve, and inside a hole for points still accepted."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    ok = _even_odd(region.outer, pts)
    out = np.flatnonzero(~ok)
    ok[out] = curve_distances(region.outer, pts[out]) <= _ON_TOL
    for hole in region.holes:
        inside = np.flatnonzero(ok & _even_odd(hole, pts))
        ok[inside] = curve_distances(hole, pts[inside]) <= _ON_TOL
    return ok


def contains(region: Region, p: Point | tuple[float, float]) -> bool:
    x, y = p
    return bool(contains_many(region, np.array([[x, y]]))[0])


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

DEFAULT_MIN_ANGLE = math.pi / 3


def _straddles(a: np.ndarray, b: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """(s, t) mask: the ends of segment k of the polygon with `corners`
    (corner k to corner k + 1) lie on both sides of the line of segment i
    [a_i, b_i]; a point on the line counts as right of it.  Two segments
    cross where each straddles the other's line."""
    ab = b - a
    left = (ab[:, None, 0] * (corners[None, :, 1] - a[:, None, 1])
            - ab[:, None, 1] * (corners[None, :, 0] - a[:, None, 0])) > 0
    return left != np.roll(left, -1, axis=1)


def _polygon_distances(poly: Polygon) -> tuple[np.ndarray, np.ndarray]:
    """One polygon's (s, s) corner-to-segment and segment-to-segment
    distances, inf where the two share a vertex.  Row i of the first is
    corner i (segment i's start); crossing segments are 0 apart."""
    a, b = _segments(poly)
    corner = _dist_points_segments(a, a, b)
    near = np.minimum(corner, np.roll(corner, -1, axis=0))  # either end of i to j
    seg = np.minimum(near, near.T)
    straddle = _straddles(a, b, a)
    seg[straddle & straddle.T] = 0.0
    i = np.arange(len(a))
    corner[i, i] = corner[i, i - 1] = np.inf  # the two segments at corner i
    seg[i, i] = seg[i, i - 1] = seg[i - 1, i] = np.inf
    return corner, seg


def _polygon_feature_size(corner: np.ndarray, seg: np.ndarray) -> float:
    """Stricter of the two feature readings: corner-to-element plus
    segment-to-segment over all non-adjacent element pairs of one curve,
    from `_polygon_distances`."""
    return float(min(corner.min(), seg.min()))


def _curve_pair_distance(c1: BoundaryCurve, c2: BoundaryCurve, nested: bool) -> float:
    """Separation of two disjoint curves, 0 where they cross; `nested`
    means c2 lies inside c1."""
    if isinstance(c1, Polygon) and isinstance(c2, Polygon):
        a1, b1 = _segments(c1)
        a2, b2 = _segments(c2)
        if (_straddles(a1, b1, a2) & _straddles(a2, b2, a1).T).any():
            return 0.0  # segments cross though no corner need be near the other curve
        d = _dist_points_segments(c2.vertices, a1, b1).min()
        return float(min(d, _dist_points_segments(c1.vertices, a2, b2).min()))
    if isinstance(c1, Circle) and isinstance(c2, Circle):
        d = math.hypot(c1.center[0] - c2.center[0], c1.center[1] - c2.center[1])
        if nested:
            return c1.radius - (d + c2.radius)
        return d - c1.radius - c2.radius
    circ, poly = (c1, c2) if isinstance(c1, Circle) else (c2, c1)
    center = np.array([circ.center])
    a, b = _segments(poly)
    seg_d = _dist_points_segments(center, a, b).min()
    vert_d = np.hypot(*(poly.vertices - center).T)
    if nested and isinstance(c1, Circle):
        return circ.radius - float(vert_d.max())  # polygon inside circle
    return float(seg_d) - circ.radius  # circle beside/inside polygon


def validate_region(region: Region, min_angle: float = DEFAULT_MIN_ANGLE) -> FeatureReport:
    """Check structure, nesting, feature size (>= 2R) and corner angles.

    Raises TopologyViolation, FeatureSizeViolation, or AngleViolation naming
    the offending curve; returns a FeatureReport on success.
    """
    dists = {idx: _polygon_distances(c) for idx, c in enumerate(region.curves)
             if isinstance(c, Polygon)}
    for idx, (_, seg) in dists.items():
        crossed = np.argwhere(np.triu(seg == 0.0))
        if len(crossed):
            i, j = crossed[0].tolist()
            raise TopologyViolation(
                f"curve {idx}: segments {i} and {j} intersect (not a simple polygon)")

    # nesting: every hole strictly inside the outer curve, holes pairwise disjoint
    for idx, hole in enumerate(region.holes, start=1):
        probe = hole.vertices if isinstance(hole, Polygon) else np.array([hole.center])
        if not _even_odd(region.outer, probe).all():
            raise TopologyViolation(f"curve {idx} is not inside the outer curve")
    for i in range(1, region.k):
        hi = region.curves[i]
        probe = hi.vertices if isinstance(hi, Polygon) else np.array([hi.center])
        for j in range(i + 1, region.k):
            hj = region.curves[j]
            if _even_odd(hj, probe).any():
                raise TopologyViolation(f"curves {i} and {j} overlap")
            other = hj.vertices if isinstance(hj, Polygon) else np.array([hj.center])
            if _even_odd(hi, other).any():
                raise TopologyViolation(f"curves {i} and {j} overlap")

    d_min = math.inf
    worst = ""
    for idx, c in enumerate(region.curves):
        if isinstance(c, Polygon):
            d = _polygon_feature_size(*dists[idx])
        else:
            d = 2.0 * c.radius  # conservative stand-in: a circle's only length scale
        if d < d_min:
            d_min, worst = d, f"curve {idx}"
    for i in range(region.k):
        for j in range(i + 1, region.k):
            nested = i == 0
            d = _curve_pair_distance(region.curves[i], region.curves[j], nested)
            if d <= 0:
                raise TopologyViolation(f"curves {i} and {j} touch or cross")
            if d < d_min:
                d_min, worst = d, f"curves {i}/{j}"
    if d_min < 2.0:
        raise FeatureSizeViolation(f"feature size {d_min:.4f}R < 2R at {worst}")

    lo_angle, hi_angle = math.pi, math.pi
    for idx, c in enumerate(region.curves):
        if isinstance(c, Circle):
            continue
        turns = c.turn_angles()
        # interior lies to the left of traversal, so the region-side angle
        # at each corner is pi - turn
        angles = math.pi - turns
        amin, amax = float(angles.min()), float(angles.max())
        bad = (angles < min_angle) | (angles > 2 * math.pi - min_angle)
        if bad.any():
            v = int(np.argmax(bad))
            raise AngleViolation(
                f"curve {idx} vertex {v}: interior angle {angles[v]:.4f} rad "
                f"outside [{min_angle:.4f}, {2 * math.pi - min_angle:.4f}]"
            )
        lo_angle = min(lo_angle, amin)
        hi_angle = max(hi_angle, amax)

    area = region_area(region)
    if area <= 0:
        raise TopologyViolation("region area is not positive")
    return FeatureReport(d_min=d_min, min_angle=lo_angle, max_angle=hi_angle,
                         area=area, k=region.k)


def region_area(region: Region) -> float:
    """Outer curve area minus hole areas (exact for polygons and circles)."""
    total = region.outer.area
    for hole in region.holes:
        total -= hole.area
    return total


# --------------------------------------------------------------------------
# sampling
# --------------------------------------------------------------------------

def sample_uniform(region: Region, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. uniform points in the region by rejection from the
    outer bounding box.

    The stream comes from the Philox 4x64 counter-based generator, so a
    given (region, n, seed) reproduces bit-identically on every platform.
    Returns an (n, 2) float array.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x0, y0, x1, y1 = region.bounding_box()
    rng = Generator(Philox(seed))
    out: list[np.ndarray] = []
    got = 0
    drawn = 0
    while got < n:
        m = (n - got) + (n - got) // 2 + 128
        pts = rng.random((m, 2))
        pts[:, 0] = x0 + pts[:, 0] * (x1 - x0)
        pts[:, 1] = y0 + pts[:, 1] * (y1 - y0)
        keep = contains_many(region, pts)
        out.append(pts[keep])
        got += int(keep.sum())
        drawn += m
        if drawn >= 100_000 and got < 0.01 * drawn:
            raise NonConvergence(
                f"acceptance rate {got / drawn:.4%} < 1% after {drawn} draws"
            )
    return np.concatenate(out)[:n]


# --------------------------------------------------------------------------
# distance oracles
# --------------------------------------------------------------------------

def curve_distance_table(region: Region, pts: np.ndarray) -> np.ndarray:
    """Distances from many points to every curve; shape (k, n_pts)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return np.stack([curve_distances(c, pts) for c in region.curves])


def inradius_oracle(region: Region, grid_step: float = 0.05) -> tuple[float, Point]:
    """Largest inscribed-circle radius: grid scan plus golden-section polish.

    Accuracy is +-grid_step; grid_step must be <= 0.1R.
    """
    if grid_step > 0.1:
        raise ValueError("grid_step must be <= 0.1R")
    x0, y0, x1, y1 = region.bounding_box()
    xs = np.arange(x0, x1 + grid_step, grid_step)
    ys = np.arange(y0, y1 + grid_step, grid_step)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    mask = contains_many(region, pts)
    pts = pts[mask]
    d = curve_distance_table(region, pts).min(axis=0)
    i = int(np.argmax(d))
    best, bx, by = float(d[i]), float(pts[i, 0]), float(pts[i, 1])

    def clearance(x: float, y: float) -> float:
        if not contains(region, (x, y)):
            return -math.inf
        return float(curve_distance_table(region, np.array([[x, y]])).min())

    # alternating 1-D golden-section polish inside the winning grid cell
    phi = (math.sqrt(5) - 1) / 2
    for _ in range(3):
        for axis in (0, 1):
            lo = (bx if axis == 0 else by) - grid_step
            hi = (bx if axis == 0 else by) + grid_step
            a, b = lo, hi
            c1 = b - phi * (b - a)
            c2 = a + phi * (b - a)
            for _ in range(20):
                f1 = clearance(c1, by) if axis == 0 else clearance(bx, c1)
                f2 = clearance(c2, by) if axis == 0 else clearance(bx, c2)
                if f1 < f2:
                    a, c1 = c1, c2
                    c2 = a + phi * (b - a)
                else:
                    b, c2 = c2, c1
                    c1 = b - phi * (b - a)
            m = 0.5 * (a + b)
            val = clearance(m, by) if axis == 0 else clearance(bx, m)
            if val > best:
                best = val
                if axis == 0:
                    bx = m
                else:
                    by = m
    return best, Point(bx, by)


# --------------------------------------------------------------------------
# offset band areas (width-R strips along a polygon)
# --------------------------------------------------------------------------

def band_areas_closed_form(curve: Polygon, radius: float = 1.0) -> BandAreas:
    """Areas of the width-R strips hugging a simple closed polygon.

    outer_band is the strip inside the curve, inner_band the strip outside.
    Decomposition: one rectangle per edge, then per-corner corrections with
    phi the turn angle of the CCW traversal (positive = convex corner):

        inside strip:  R*len - sum_{phi>0} R^2 tan(phi/2) + sum_{phi<0} R^2 |phi|/2
        outside strip: R*len + sum_{phi>0} R^2 phi/2      - sum_{phi<0} R^2 tan(|phi|/2)

    Requires feature size >= 2R so that only adjacent strips interact.
    """
    poly = curve.oriented(ccw=True)
    fs = _polygon_feature_size(*_polygon_distances(poly))
    if fs < 2.0 * radius:
        raise FeatureSizeViolation(
            f"feature size {fs:.4f} < {2 * radius:.4f}; band formula invalid"
        )
    phi = poly.turn_angles()
    ell = poly.perimeter
    pos = phi[phi > 0]
    neg = -phi[phi < 0]
    r2 = radius * radius
    outer_band = radius * ell - r2 * np.tan(pos / 2).sum() + r2 * (neg / 2).sum()
    inner_band = radius * ell + r2 * (pos / 2).sum() - r2 * np.tan(neg / 2).sum()
    return BandAreas(float(outer_band), float(inner_band))


def band_areas_oracle(curve: Polygon, radius: float = 1.0, samples: int = 200_000,
                      seed: int = 0) -> BandAreasEstimate:
    """Monte Carlo ground truth for band_areas_closed_form."""
    if samples < 100_000:
        raise ValueError("need at least 1e5 samples")
    v = curve.vertices
    x0, y0 = v.min(axis=0) - radius
    x1, y1 = v.max(axis=0) + radius
    box_area = (x1 - x0) * (y1 - y0)
    rng = Generator(Philox(seed))
    pts = rng.random((samples, 2))
    pts[:, 0] = x0 + pts[:, 0] * (x1 - x0)
    pts[:, 1] = y0 + pts[:, 1] * (y1 - y0)
    inside = _even_odd(curve, pts)
    near = curve_distances(curve, pts) <= radius
    p_out = (inside & near).mean()
    p_in = (~inside & near).mean()

    def se(p: float) -> float:
        return box_area * math.sqrt(p * (1 - p) / samples)

    return BandAreasEstimate(
        outer_band=float(p_out * box_area),
        inner_band=float(p_in * box_area),
        outer_se=se(float(p_out)),
        inner_se=se(float(p_in)),
    )


# --------------------------------------------------------------------------
# visibility model for fractional boundary distances
# --------------------------------------------------------------------------

def visibility_fraction(t: float) -> float:
    """Fraction of a unit disk centered t away from an infinite straight
    boundary that lies on the region side: rho(t), with rho(0)=1/2, rho(1)=1."""
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t={t} outside [0, 1]")
    return 1.0 - (math.acos(t) - t * math.sqrt(1.0 - t * t)) / math.pi


def invert_visibility(r: float) -> float:
    """Inverse of visibility_fraction on [0.5, 1], by bisection to 1e-6."""
    if not 0.5 <= r <= 1.0:
        raise DomainError(f"r={r} outside [0.5, 1]")
    lo, hi = 0.0, 1.0
    for _ in range(25):
        mid = 0.5 * (lo + hi)
        if visibility_fraction(mid) < r:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --------------------------------------------------------------------------
# region file format
# --------------------------------------------------------------------------

def region_from_dict(doc: dict, source: str = "region document") -> Region:
    """The region a parsed region document describes.  Content of another
    layout raises GeometryError naming `source` and the key at fault."""
    def read(obj, key, convert):
        try:
            return convert(obj[key])
        except (KeyError, TypeError, ValueError):
            raise GeometryError(f"{source}: no valid {key!r}") from None

    if not isinstance(doc, dict) or not isinstance(doc.get("curves"), list):
        raise GeometryError(f"{source}: no 'curves' list")
    scale = read({"radius_unit": 1.0, **doc}, "radius_unit", float)
    if scale <= 0:
        raise TopologyViolation("radius_unit must be positive")
    curves: list[BoundaryCurve] = []
    for c in doc["curves"]:
        kind = read(c, "type", str)
        if kind == "polygon":
            vertices = read(c, "vertices", lambda v: np.asarray(v, dtype=float))
            curves.append(Polygon(vertices / scale))
        elif kind == "circle":
            cx, cy = read(c, "center", lambda v: np.asarray(v, dtype=float).reshape(2)).tolist()
            curves.append(Circle((cx / scale, cy / scale), read(c, "radius", float) / scale))
        else:
            raise TopologyViolation(f"unknown curve type {kind!r}")
    return Region(curves)


def load_region(path: str) -> Region:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise GeometryError(f"{path}: not a JSON document ({exc})") from None
    return region_from_dict(doc, path)
