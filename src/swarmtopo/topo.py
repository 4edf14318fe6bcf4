"""Higher-order parameters over recognized boundaries: outer-boundary
selection by the strip-area ratio, fractional boundary distances, and
region thickness."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .boundary import (FRAC_SCALE, BoundaryComponent, DistanceField, NodeClass,
                       visibility_offset)

_NEAR_CLASSES = (int(NodeClass.BOUNDARY), int(NodeClass.NEAR_BOUNDARY))


class NoFiniteHop(ValueError):
    """No node of the given IDs has a finite hop distance to a boundary."""


@dataclass(frozen=True)
class ThicknessReport:
    best_node: int
    hop_dist: int
    frac_dist: float
    thickness_estimate: float  # R units


def classify_outer(components: Sequence[BoundaryComponent]) -> int:
    """The component most likely to be the outside boundary: lowest
    strip-area ratio |members ∪ neighbors-of-members| / |members|; ties
    prefer the larger, then the smaller ID."""
    if not components:
        raise ValueError("no components")
    best = min(components, key=lambda c: (c.ratio(), -c.size, c.component_id))
    return best.component_id


def fractional_distance(node_class: int, hop: float, deg: int, mu_est: int,
                        anchor_q: int) -> float:
    """Coordinate-free distance estimate in R units.

    Boundary and near-boundary nodes invert the straight-boundary
    visibility model on their own neighborhood size.  Deeper nodes step
    hop-by-hop (1R each) back to the near-boundary anchor recorded by the
    distance flood and add its fractional offset.
    """
    if node_class in _NEAR_CLASSES:
        return float(visibility_offset(deg, mu_est))
    if not np.isfinite(hop):
        return float("inf")
    return (hop - 1.0) + anchor_q / FRAC_SCALE


def fractional_distances(classes: np.ndarray, field: DistanceField,
                         degrees: np.ndarray, mu_est: int, ids) -> np.ndarray:
    """fractional_distance for every node of `ids`, indexed by ID."""
    ids = np.asarray(ids, dtype=np.int64)
    hop = field.hop[ids]
    out = np.zeros(len(classes))
    out[ids] = np.where(np.isfinite(hop), (hop - 1.0) + field.anchor_q[ids] / FRAC_SCALE,
                        np.inf)
    near = ids[np.isin(classes[ids], _NEAR_CLASSES)]
    out[near] = visibility_offset(degrees[near], mu_est)
    return out


def thickness(classes: np.ndarray, field: DistanceField, degrees: np.ndarray,
              mu_est: int, ids) -> ThicknessReport:
    """Pick the node of `ids` of maximum (hop, fractional) boundary
    distance, the smaller ID on ties; its fractional distance is the
    thickness estimate.  Raises NoFiniteHop when no node of `ids` has a
    finite hop."""
    frac = fractional_distances(classes, field, degrees, mu_est, ids)
    ids = np.asarray(ids, dtype=np.int64)
    reached = ids[np.isfinite(field.hop[ids])]
    if not len(reached):
        raise NoFiniteHop("no node of ids has a finite hop distance to a boundary")
    best = int(reached[np.lexsort((-reached, frac[reached], field.hop[reached]))[-1]])
    return ThicknessReport(best_node=best, hop_dist=int(field.hop[best]),
                           frac_dist=float(frac[best]),
                           thickness_estimate=float(frac[best]))


__all__ = [
    "NoFiniteHop", "ThicknessReport", "classify_outer",
    "fractional_distance", "fractional_distances", "thickness",
]
