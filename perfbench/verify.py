"""Checks of one pipeline run's outputs against the benchmark's own
computations over the graph's CSR arrays (g.indptr, g.indices).

Every check is exact.  The runner-up component and the fixed-point anchor
of the distance field have no simpler independent rule, so they are
compared with boundary.central_distance_field.  quality() scores the run
against the hidden geometry; it is reported, not gated, because it is a
property of density rather than a guarantee.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

CLASS_CODES = {"INTERIOR": 0, "NEAR_BOUNDARY": 1, "BOUNDARY": 2}


class Graph:
    """The benchmark's own view of the unit disk graph, indexed by ID."""

    def __init__(self, g):
        self.size = g.max_id + 1
        self.ids = np.asarray(g.ids, dtype=np.int64)
        self.present = np.zeros(self.size, dtype=bool)
        self.present[self.ids] = True
        self.deg = np.diff(np.asarray(g.indptr, dtype=np.int64))
        self.src = np.repeat(np.arange(self.size), self.deg)
        self.dst = np.asarray(g.indices, dtype=np.int64)
        self.keys = self.src * self.size + self.dst  # ascending: rows and columns are sorted
        self.A = sp.csr_matrix((np.ones(len(self.dst), dtype=np.int32), (self.src, self.dst)),
                               shape=(self.size, self.size))

    def are_edges(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        q = np.asarray(a, dtype=np.int64) * self.size + np.asarray(b, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self.keys, q), len(self.keys) - 1)
        return self.keys[pos] == q

    def hops_from(self, sources) -> np.ndarray:
        return dijkstra(self.A, indices=np.asarray(sorted(sources)), unweighted=True,
                        min_only=True)

    def components(self, bnd: np.ndarray) -> list[tuple[int, tuple[int, ...], int]]:
        """(root, members, |members ∪ N(members)|) of the BOUNDARY nodes
        linked when adjacent or sharing a neighbour, rooted at the max ID."""
        B = np.flatnonzero(bnd)
        if len(B) == 0:
            return []
        AB = self.A[B]
        link = AB[:, B] + AB @ AB.T
        k, lab = connected_components(link, directed=False)
        order = np.argsort(lab, kind="stable")
        cuts = np.flatnonzero(np.diff(lab[order])) + 1
        member = sp.csr_matrix((np.ones(len(B), dtype=np.int32), (lab, B)),
                               shape=(k, self.size))
        reach = member @ (self.A + sp.identity(self.size, dtype=np.int32, format="csr"))
        near = np.diff(reach.tocsr().indptr)
        out = []
        for idx in np.split(order, cuts):
            m = B[idx]
            out.append((int(m.max()), tuple(sorted(m.tolist())), int(near[lab[idx[0]]])))
        return sorted(out)

    def component_count(self, bnd: np.ndarray, min_size: int) -> int:
        """Components of size >= min_size by a second rule: keep the edges
        with a BOUNDARY end; paths then alternate boundary nodes with single
        middles, which is the same linkage."""
        keep = bnd[self.src] | bnd[self.dst]
        H = sp.csr_matrix((np.ones(int(keep.sum()), dtype=np.int8),
                           (self.src[keep], self.dst[keep])), shape=(self.size, self.size))
        _, lab = connected_components(H, directed=False)
        sizes = np.bincount(lab[bnd])
        return int((sizes >= min_size).sum())


def read_reports(report_dir: str) -> dict:
    def rows(name):
        with open(os.path.join(report_dir, name), newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    with open(os.path.join(report_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    return {"classification": rows("classification.csv"), "sweep": rows("sweep.csv"),
            "cost": rows("cost.csv"), "summary": summary}


class Checker:
    def __init__(self):
        self.failures: list[str] = []
        self.checks = 0

    def expect(self, ok, what: str) -> None:
        self.checks += 1
        if not bool(ok):
            self.failures.append(what)


def check(sw, r, phases: dict, report_dir: str) -> Checker:
    """Check the run `r` (a cli.PipelineResult), the protocol runs captured
    around it (`phases`, by cost.csv phase name) and its report files."""
    c = Checker()
    G = Graph(r.g)
    rep = read_reports(report_dir)
    summary = rep["summary"]
    cfg = r.config
    ids = G.ids

    # cost.csv rows are the captured executor runs
    cost = [(row["phase"], int(row["broadcasts"]), int(row["id_units"]), int(row["rounds"]))
            for row in rep["cost"]]
    seen = [(name.split(".")[0], p.broadcasts, p.id_units, p.rounds) for name, p in phases.items()]
    c.expect(cost == seen, "cost.csv rows differ from the protocol runs the benchmark captured")

    # delta is the maximum degree; the merged histogram is the degree census
    d = G.deg[ids]
    delta = int(d.max())
    bins = cfg.bin_count
    census = np.bincount(np.minimum(d * bins // delta, bins - 1), minlength=bins)
    c.expect(phases["agg_delta"].kept == (delta,), "aggregated delta is not the maximum degree")
    c.expect(r.density.delta == delta == summary["delta"], "reported delta is not the maximum degree")
    c.expect(tuple(phases["agg_histogram"].kept) == tuple(int(x) for x in census),
             "merged histogram differs from the degree census")

    # the tree: one root, the maximum ID, spanning all n nodes over graph edges
    states = phases["tree"].kept
    roots = [v for v in ids.tolist() if states[v].parent is None]
    c.expect(roots == [int(ids.max())], f"tree roots {roots[:4]} are not just the maximum ID")
    if len(roots) == 1:
        child = np.array([v for v in ids.tolist() if v != roots[0]], dtype=np.int64)
        parent = np.array([states[v].parent for v in child.tolist()], dtype=np.int64)
        c.expect(G.are_edges(child, parent).all(), "a tree edge is not a graph edge")
        T = sp.csr_matrix((np.ones(len(child), dtype=np.int8), (child, parent)),
                          shape=(G.size, G.size))
        _, lab = connected_components(T, directed=False)
        c.expect((lab[ids] == lab[roots[0]]).all(), "the tree does not span every node")
        kids = sorted((k, v) for v in ids.tolist() for k in states[v].children)
        c.expect(kids == sorted(zip(child.tolist(), parent.tolist())),
                 "children lists disagree with parent pointers")
        c.expect(states[roots[0]].subtree_size == len(ids), "the root did not count n")

    # classification: BOUNDARY iff degree <= threshold, NEAR iff it hears one
    thr = int(math.floor(r.alpha_star * r.density.mu_est))
    c.expect(r.threshold == thr == summary["threshold"], "threshold is not floor(alpha* mu_est)")
    bnd = G.present & (G.deg <= thr)
    heard = np.bincount(G.dst, weights=bnd[G.src], minlength=G.size) > 0
    near = G.present & ~bnd & heard
    want = np.where(bnd, 2, np.where(near, 1, 0))[ids]
    rows = rep["classification"]
    c.expect([int(row["id"]) for row in rows] == ids.tolist(), "classification.csv ids")
    got = np.array([CLASS_CODES[row["class"]] for row in rows])
    c.expect(np.array_equal(got, want), "classification.csv classes differ from the degree rule")
    c.expect(np.array_equal(r.classes[ids], want), "in-memory classes differ from the degree rule")
    c.expect((summary["boundary_count"], summary["near_count"], summary["interior_count"])
             == (int(bnd.sum()), int(near.sum()), len(ids) - int(bnd.sum()) - int(near.sum())),
             "summary class counts")

    # components: 2-hop linkage, max-ID roots, inclusive near-set sizes
    mine = G.components(bnd)
    theirs = sorted((cc.component_id, tuple(sorted(cc.members)), cc.near_set_size)
                    for cc in r.comps.components)
    c.expect(mine == theirs, "components differ from the 2-hop linkage components")
    c.expect(all(cc.size == len(cc.members) for cc in r.comps.components), "component sizes")
    comp_of = np.zeros(G.size, dtype=np.int64)
    for root, members, _ in mine:
        comp_of[list(members)] = root
    c.expect(np.array_equal(r.comps.comp_of, comp_of), "comp_of differs")
    c.expect(len(mine) == G.component_count(bnd, 1), "the two linkage rules disagree")
    c.expect(sorted((s["id"], s["size"], s["near_size"]) for s in summary["components"])
             == sorted((root, len(m), nr) for root, m, nr in mine), "summary.json components")
    sizeable = [x for x in mine if len(x[1]) >= cfg.min_component_size] or mine
    if sizeable:
        outer = min(sizeable, key=lambda x: (x[2] / len(x[1]), -len(x[1]), x[0]))[0]
        c.expect(summary["outer_id"] == r.outer_id == outer, "outer component rule")
    c.expect(summary["component_count"]
             == sum(1 for x in mine if len(x[1]) >= cfg.min_component_size), "component_count")

    # distance field: hop is a BFS from every boundary node, comp the nearest
    # component (ties: smaller ID); runner-up and anchor match the central twin
    if mine:
        hop = G.hops_from(np.flatnonzero(bnd))
        per_comp = np.stack([G.hops_from(m) for _, m, _ in mine])
        cids = np.array([root for root, _, _ in mine])
        nearest = cids[np.argmin(per_comp, axis=0)]  # cids ascend: first minimum is the smaller ID
        nearest = np.where(np.isfinite(hop), nearest, 0)
        c.expect(np.array_equal(r.dist.hop[ids], hop[ids]), "dist.hop differs from the BFS")
        c.expect(np.array_equal(r.dist.comp[ids], nearest[ids]), "dist.comp is not the nearest component")
        csv_hop = np.array([int(row["hop_dist"]) for row in rows])
        c.expect(np.array_equal(csv_hop, np.where(np.isfinite(hop[ids]), hop[ids], -1)),
                 "classification.csv hop_dist differs from the BFS")
        c.expect(np.array_equal(np.array([int(row["boundary_id"]) for row in rows]), nearest[ids]),
                 "classification.csv boundary_id")
        twin = sw.boundary.central_distance_field(r.g, r.comps.components, r.density.mu_est)
        for name in ("hop2", "comp2", "anchor_q"):
            c.expect(np.array_equal(getattr(r.dist, name)[ids], getattr(twin, name)[ids]),
                     f"dist.{name} differs from central_distance_field")
        with np.errstate(invalid="ignore"):
            vor = (twin.comp2 != 0) & np.isfinite(twin.hop2) & (twin.hop2 - twin.hop <= cfg.tolerance_hops)
        c.expect(np.array_equal(np.array([int(row["voronoi"]) for row in rows]), vor[ids].astype(int)),
                 "classification.csv voronoi flags")

    # sweep.csv: each count is an independent component count at that alpha
    mu = r.density.mu_est
    for row in rep["sweep"]:
        b = G.present & (G.deg <= int(math.floor(float(row["alpha"]) * mu)))
        c.expect(int(row["boundary_node_count"]) == int(b.sum()),
                 f"sweep.csv boundary count at alpha {row['alpha']}")
        c.expect(int(row["component_count"]) == G.component_count(b, cfg.min_component_size),
                 f"sweep.csv component count at alpha {row['alpha']}")
    c.expect(bool(rep["sweep"]) == (cfg.alpha == "sweep"), "sweep.csv rows")

    # token loops: closed at the root, walking graph edges, covering members
    if cfg.token_loops:
        for cid, lp in r.loops.items():
            members = next(m for root, m, _ in mine if root == cid)
            c.expect(lp.members[0] == lp.members[-1] == cid, f"loop {cid} is not closed at its root")
            walk = np.array(lp.walk, dtype=np.int64)
            c.expect(G.are_edges(walk[:-1], walk[1:]).all(), f"loop {cid} steps off the graph")
            reach = G.hops_from(set(lp.members))
            c.expect(reach[list(members)].max() <= 2, f"loop {cid} leaves a member beyond 2 hops")
            entry = summary["token_loops"].get(str(cid), {})
            c.expect(entry == {"length": len(lp.members) - 1, "closed": True},
                     f"summary.json token loop {cid}")
    return c


def quality(sw, r, eps: float = 0.25) -> dict:
    """Statistical quality against the hidden geometry (not gated)."""
    ids = r.g.ids
    table = sw.geometry.curve_distance_table(r.region, r.g.positions[ids])
    dmin = table.min(axis=0)
    is_b = r.classes[ids] == 2
    truth = dmin <= eps
    tp = int((truth & is_b).sum())
    pos = {v: i for i, v in enumerate(ids.tolist())}
    outer = next((cc for cc in r.comps.components if cc.component_id == r.outer_id), None)
    outer_curve = -1
    if outer is not None:
        rows = [pos[v] for v in outer.members]
        outer_curve = int(np.bincount(table[:, rows].argmin(axis=0)).argmax())
    count = sum(1 for cc in r.comps.components if cc.size >= r.config.min_component_size)
    return {
        "seed": r.config.seed,
        "component_count": count,
        "region_curves": r.region.k,
        "outer_correct": outer_curve == 0,
        "precision": tp / max(int(is_b.sum()), 1),
        "recall": tp / max(int(truth.sum()), 1),
    }
