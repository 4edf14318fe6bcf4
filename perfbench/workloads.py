"""The benchmark's workloads: which deployment the pipeline runs on.

Every workload is at or above the paper's density (each node reaches at
least 100 others on average), so the pipeline is timed while it gives
the right answer.  The seed picks the node positions and IDs; the program
receives only the region and the pipeline config.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass


# 16R x 16R square with a centred 6R x 6R square hole: a ring 5R wide with
# convex and reflex right-angle corners, area 220R^2.  On a ring the
# leader's eccentricity, which sets the tree and flood rounds, varies less
# between seeds than on a rectangle.
RING_REGION = {
    "radius_unit": 1.0,
    "curves": [
        {"type": "polygon", "vertices": [[0.0, 0.0], [16.0, 0.0], [16.0, 16.0], [0.0, 16.0]]},
        {"type": "polygon", "vertices": [[5.0, 5.0], [5.0, 11.0], [11.0, 11.0], [11.0, 5.0]]},
    ],
}


@dataclass(frozen=True)
class Workload:
    name: str
    region: str | dict  # builtin region name, or a region document
    n: int
    alpha: float | str  # a threshold factor, or "sweep"
    token_loops: bool = False
    deployments: int = 1  # independent deployments per run, from disjoint seeds

    def seeds(self, seed: int) -> list[int]:
        return [seed * self.deployments + k for k in range(self.deployments)]

    def configs(self, cli, seed: int, region_dir: str) -> list:
        """One RunConfig per deployment.  A region document is first written
        to region_dir, as a user would pass it; the path is recorded in
        summary.json, so give the same relative region_dir on every run."""
        region = self.region
        if isinstance(region, dict):
            os.makedirs(region_dir, exist_ok=True)
            region = os.path.join(region_dir, f"{self.name}.region.json")
            with open(region, "w", encoding="utf-8") as fh:
                json.dump(self.region, fh)
        return [cli.RunConfig(region=region, n=self.n, seed=s, alpha=self.alpha,
                              token_loops=self.token_loops)
                for s in self.seeds(seed)]


# Why each workload: BENCHMARK.json and README.md.  Both fix alpha at 0.7,
# inside the plateau the sweep finds on most seeds: on some seeds the
# sweep's tie rule picks a fragment plateau instead, which would make the
# figures bimodal (README.md, "Left out").
WORKLOADS = {w.name: w for w in (
    Workload(name="annulus-13k", region="annulus", n=13_000, alpha=0.7),
    Workload(name="ring-8k", region=RING_REGION, n=8_000, alpha=0.7, deployments=3),
)}
