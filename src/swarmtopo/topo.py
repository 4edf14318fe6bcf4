"""Higher-order parameters over recognized boundaries: outer-boundary
selection by the strip-area ratio, fractional boundary distances, and
region thickness."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import geometry
from .boundary import (FRAC_SCALE, BoundaryComponent, DistanceField, NodeClass)


@dataclass(frozen=True)
class ComponentStats:
    component_id: int
    boundary_count: int
    near_count: int
    ratio: float


@dataclass(frozen=True)
class ThicknessReport:
    best_node: int
    hop_dist: int
    frac_dist: float
    thickness_estimate: float  # R units


def component_stats(components: Sequence[BoundaryComponent]) -> list[ComponentStats]:
    """Strip-area ratio per component; near_count is
    |members ∪ neighbors-of-members|."""
    return [ComponentStats(component_id=c.component_id, boundary_count=c.size,
                           near_count=c.near_set_size, ratio=c.near_set_size / c.size)
            for c in components]


def classify_outer(stats: Sequence[ComponentStats]) -> int:
    """The component most likely to be the outside boundary: lowest
    near/boundary ratio; ties prefer the larger, then the smaller ID."""
    if not stats:
        raise ValueError("no components")
    best = min(stats, key=lambda s: (s.ratio, -s.boundary_count, s.component_id))
    return best.component_id


def fractional_distance(node_class: int, hop: float, deg: int, mu_est: int,
                        anchor_q: int) -> float:
    """Coordinate-free distance estimate in R units.

    Boundary and near-boundary nodes invert the straight-boundary
    visibility model on their own neighborhood size.  Deeper nodes step
    hop-by-hop (1R each) back to the near-boundary anchor recorded by the
    distance flood and add its fractional offset.
    """
    if node_class in (int(NodeClass.BOUNDARY), int(NodeClass.NEAR_BOUNDARY)):
        r = min(max(deg / mu_est, 0.5), 1.0)
        return geometry.invert_visibility(r)
    if not np.isfinite(hop):
        return float("inf")
    return (hop - 1.0) + anchor_q / FRAC_SCALE


def fractional_distances(classes: np.ndarray, field: DistanceField,
                         degrees: np.ndarray, mu_est: int, ids) -> np.ndarray:
    """fractional_distance for every node of `ids`, indexed by ID."""
    out = np.zeros(len(classes))
    for v in ids:
        out[v] = fractional_distance(int(classes[v]), field.hop[v],
                                     int(degrees[v]), mu_est,
                                     int(field.anchor_q[v]))
    return out


def thickness(classes: np.ndarray, field: DistanceField, degrees: np.ndarray,
              mu_est: int, ids) -> ThicknessReport:
    """Pick the node of `ids` of maximum (hop, fractional) boundary
    distance; its fractional distance is the thickness estimate."""
    frac = fractional_distances(classes, field, degrees, mu_est, ids)
    best = 0
    best_key = (-1.0, -1.0)
    for v in ids:
        key = (field.hop[v] if np.isfinite(field.hop[v]) else -1.0, frac[v])
        if key > best_key:  # ties keep the smaller ID
            best_key = key
            best = v
    return ThicknessReport(best_node=best, hop_dist=int(field.hop[best]),
                           frac_dist=float(frac[best]),
                           thickness_estimate=float(frac[best]))


__all__ = [
    "ComponentStats", "ThicknessReport", "component_stats", "classify_outer",
    "fractional_distance", "fractional_distances", "thickness",
]
