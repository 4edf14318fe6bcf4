"""Experiment harness: region ingestion, end-to-end pipeline runs, sweep
orchestration, oracle scoring, and report emission.

Subcommands: validate, run, oracle, paper-repro.  All outputs are
plain UTF-8 CSV/JSON, deterministic byte-for-byte for a fixed config.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from . import IMPORTED_AT, boundary, convergetree, geometry, netgraph, topo
from .boundary import NodeClass
from .convergetree import GraphDisconnected
from .simkernel import RoundLimitExceeded

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GEOMETRY = 3
EXIT_PROTOCOL = 4
EXIT_MISMATCH = 5


class MismatchedRun(RuntimeError):
    """Oracle invoked with a config that differs from the run's provenance."""


class UsageError(ValueError):
    """A command-line value no run can take."""


# --bins: the histogram needs 16 bins.  The census has at most delta + 1
# nonempty ones (delta is 169-228 from 13k to 45k nodes), and the histogram
# convergecast accumulates (max ID + 1) x bins integers, so more only cost memory
MIN_BINS, MAX_BINS = 16, 256

REPRO_NODES = 45_000  # the paper-scale instance `paper-repro` deploys


class NoBoundaryComponent(RuntimeError):
    """The degree threshold is below every node's degree, so classification
    marks no boundary node and no component forms."""

    def __init__(self, threshold: int, min_degree: int):
        super().__init__(threshold, min_degree)  # args rebuild it when pickled
        self.threshold = threshold
        self.min_degree = min_degree

    def __str__(self) -> str:
        return (f"no node has degree <= the threshold {self.threshold} (the smallest "
                f"degree is {self.min_degree}), so no boundary component forms")


@dataclass
class RunConfig:
    region: str = "standard"          # path or builtin name
    n: int = 20000
    seed: int = 1
    alpha: float | str = "sweep"      # numeric or "sweep"
    bin_count: int = 64
    tolerance_hops: int = 2
    min_component_size: int = 8
    token_loops: bool = True

    def to_dict(self) -> dict:
        return asdict(self)


# --------------------------------------------------------------------------
# builtin regions
# --------------------------------------------------------------------------

def _octagon(cx: float, cy: float, r: float) -> geometry.Polygon:
    ang = np.arange(8) * (math.pi / 4) + math.pi / 8
    return geometry.Polygon(np.stack([cx + r * np.cos(ang), cy + r * np.sin(ang)], axis=1))


def standard_region() -> geometry.Region:
    """30R x 30R square with three convex holes (two octagon "eyes", one
    elongated chamfered-rectangle "mouth"); total area comes to 786.90R²,
    k = 4, feature size well above 2R."""
    outer = geometry.Polygon(np.array([[0.0, 0.0], [30.0, 0.0], [30.0, 30.0], [0.0, 30.0]]))
    eye_l = _octagon(9.5, 20.5, 2.7)
    eye_r = _octagon(20.5, 20.5, 2.7)
    # mouth area solves 900 - 2*eye - mouth = 786.9015...; chamfer c = 2
    w, h, c, cx, cy = 79.86 / 7.0, 7.0, 2.0, 15.0, 8.0
    x0, x1, y0, y1 = cx - w / 2, cx + w / 2, cy - h / 2, cy + h / 2
    mouth = geometry.Polygon(np.array([
        [x0 + c, y0], [x1 - c, y0], [x1, y0 + c], [x1, y1 - c],
        [x1 - c, y1], [x0 + c, y1], [x0, y1 - c], [x0, y0 + c]]))
    return geometry.Region([outer, eye_l, eye_r, mouth])


def annulus_region(r_out: float = 9.0, r_in: float = 3.0) -> geometry.Region:
    return geometry.Region([
        geometry.Circle((0.0, 0.0), r_out),
        geometry.Circle((0.0, 0.0), r_in),
    ])


BUILTIN_REGIONS = {
    "standard": standard_region,
    "annulus": annulus_region,
}


def resolve_region(name_or_path: str) -> geometry.Region:
    if name_or_path in BUILTIN_REGIONS:
        return BUILTIN_REGIONS[name_or_path]()
    return geometry.load_region(name_or_path)


# --------------------------------------------------------------------------
# pipeline
# --------------------------------------------------------------------------

def peak_rss_mb() -> float:
    """The process's peak resident set size so far (`ru_maxrss`, which
    Linux reports in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class PhaseCost:
    """One protocol run of a phase: its cost.csv row, with the deliveries,
    wall time and peak RSS after it that go to timing.json."""
    phase: str
    broadcasts: int
    id_units: int
    rounds: int
    deliveries: int
    seconds: float
    rss_mb: float


@dataclass
class StepCost:
    """A host step outside the protocols (start-up under `swarmtopo run`,
    sampling, the graph build, the tree check, the alpha sweep, the report
    writers): its wall time and the peak RSS after it, for timing.json only."""
    step: str
    seconds: float
    rss_mb: float


@dataclass
class PipelineResult:
    config: RunConfig
    region: geometry.Region
    feature: geometry.FeatureReport
    g: netgraph.UnitDiskGraph
    mu_analytic: float
    density: boundary.DensityEstimate
    alpha_star: float
    sweep: boundary.AlphaSweep | None
    threshold: int
    classes: np.ndarray
    comps: boundary.ComponentsResult
    dist: boundary.DistanceField
    voronoi: np.ndarray
    loops: dict[int, boundary.TokenLoop]
    outer_id: int
    thick: topo.ThicknessReport
    costs: list[PhaseCost] = field(default_factory=list)
    steps: list[StepCost] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    wall_seconds: float = 0.0


def mu_analytic_value(n: int, area: float, R: float = 1.0) -> float:
    """Unconstrained expected neighborhood size (n-1) * pi R^2 / area."""
    return (n - 1) * math.pi * R * R / area


class _PhaseTrace:
    """A trace stream that starts every line with the phase writing it."""

    def __init__(self, out):
        self.out = out
        self.phase = ""

    def write(self, text: str) -> None:
        self.out.write("".join(f"{self.phase},{line}" for line in text.splitlines(True)))


def run_pipeline(config: RunConfig, trace_stream=None) -> PipelineResult:
    """Full run: validate, sample, build, bootstrap tree, estimate density,
    pick alpha, classify, form components, flood distances, flag Voronoi
    nodes, run token loops, and derive the higher-order parameters.

    `trace_stream`, if given, receives one 'phase,round,node,kind,size_units'
    line per broadcast across every protocol phase, `phase` as in cost.csv.
    """
    t0 = time.perf_counter()
    tr = None if trace_stream is None else _PhaseTrace(trace_stream)
    warnings: list[str] = []
    costs: list[PhaseCost] = []
    steps: list[StepCost] = []

    @contextlib.contextmanager
    def step(name: str):
        t = time.perf_counter()
        yield
        steps.append(StepCost(name, time.perf_counter() - t, peak_rss_mb()))

    def protocol(name: str, fn, *args, runs=lambda out: [out[1]]):
        """Run protocol `fn` as phase `name`: the phase starts its trace
        lines and names a round limit raised inside it, and each of its
        runs (`runs` of the output) books one cost row."""
        if tr is not None:
            tr.phase = name
        try:
            out = fn(*args, trace=tr)
        except RoundLimitExceeded as exc:
            exc.phase = name
            raise
        costs.extend(PhaseCost(name, res.ledger.total_broadcasts, res.ledger.total_id_units,
                               res.rounds_used, res.deliveries, res.seconds, peak_rss_mb())
                     for res in runs(out))
        return out

    region = resolve_region(config.region)
    feature = geometry.validate_region(region)
    area = feature.area
    mu_an = mu_analytic_value(config.n, area)

    with step("sample"):
        pts = geometry.sample_uniform(region, config.n, config.seed)
        ids = Generator(Philox([config.seed, 1])).permutation(config.n) + 1
    with step("build_udg"):
        g = netgraph.build_udg((ids, pts), R=1.0)

    deg = g.degrees()
    mean_deg = float(deg[g.ids].mean())
    if config.n < 100 or mean_deg < 100:
        warnings.append(
            f"density warning: mean degree {mean_deg:.1f} (paper assumes "
            f"every node reaches at least 100 others)")

    # the tree is the connectivity check: it raises GraphDisconnected
    tree = protocol("tree", convergetree.build_tree, g, runs=lambda t: [t.result])
    with step("check_tree"):
        convergetree.check_tree(g, tree)

    (delta_val,), _ = protocol("agg_delta", convergetree.aggregate, g, tree,
                               convergetree.AggOp.MAX, deg)
    protocol("flood_delta", convergetree.broadcast_down, g, tree, (delta_val,))

    bins = config.bin_count
    bin_of = netgraph.degree_bin(deg, delta_val, bins)
    hist_counts, _ = protocol("agg_histogram", convergetree.aggregate, g, tree,
                              convergetree.AggOp.HISTOGRAM_MERGE, bin_of, bins)
    hist = netgraph.DegreeHistogram(bins, np.array(hist_counts, dtype=np.int64), delta_val)
    density = boundary.estimate_mu(hist, mu_analytic=mu_an)

    sweep = None
    if config.alpha == "sweep":
        with step("alpha_sweep"):
            sweep = boundary.alpha_sweep(g, density.mu_est,
                                         min_component_size=config.min_component_size)
        alpha_star = sweep.alpha_star
        if alpha_star is None:
            warnings.append("alpha sweep found no plateau; using default alpha")
            alpha_star = boundary.default_alpha()
    else:
        alpha_star = float(config.alpha)

    thr = boundary.threshold_units(alpha_star, density.mu_est)
    protocol("flood_threshold", convergetree.broadcast_down, g, tree, (density.mu_est, thr))

    classes, _ = protocol("classify", boundary.classify, g, thr)
    if not (classes == int(NodeClass.BOUNDARY)).any():
        raise NoBoundaryComponent(thr, int(deg[g.ids].min()))

    comps = protocol("components", boundary.form_components, g, classes,
                     runs=lambda c: c.results)
    dist, _ = protocol("distance_flood", boundary.distance_flood, g, comps.comp_of,
                       density.mu_est)
    voronoi = boundary.detect_voronoi(dist, config.tolerance_hops)

    loops: dict[int, boundary.TokenLoop] = {}
    if config.token_loops:
        loops, _ = protocol("token_loops", boundary.run_token_loops, g, comps)
        for c in comps.components:
            if c.component_id not in loops:
                warnings.append(f"token loop failed for component {c.component_id}")

    sizeable = [c for c in comps.components if c.size >= config.min_component_size]
    outer_id = topo.classify_outer(sizeable or comps.components)
    thick = topo.thickness(classes, dist, deg, density.mu_est, g.id_list)

    return PipelineResult(
        config=config, region=region, feature=feature, g=g, mu_analytic=mu_an,
        density=density, alpha_star=alpha_star, sweep=sweep, threshold=thr,
        classes=classes, comps=comps, dist=dist, voronoi=voronoi, loops=loops,
        outer_id=outer_id, thick=thick, costs=costs, steps=steps,
        warnings=warnings, wall_seconds=time.perf_counter() - t0,
    )


# --------------------------------------------------------------------------
# report files
# --------------------------------------------------------------------------

def write_classification_csv(r: PipelineResult, path: str) -> None:
    """One line per node in ID order, its class by `NodeClass` name; each
    column is read with one `tolist()` and the file written with one join."""
    ids = r.g.ids
    hop = r.dist.hop[ids]
    names = {int(c): c.name for c in NodeClass}
    rows = zip(r.g.id_list, map(names.__getitem__, r.classes[ids].tolist()),
               r.dist.comp[ids].tolist(),
               np.where(np.isfinite(hop), hop, -1).astype(np.int64).tolist(),
               (r.voronoi[ids] != 0).astype(np.int64).tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("id,class,boundary_id,hop_dist,voronoi\n")
        fh.write("".join(f"{v},{c},{b},{h},{f}\n" for v, c, b, h, f in rows))


def write_sweep_csv(r: PipelineResult, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("alpha,component_count,boundary_node_count\n")
        if r.sweep is None:
            return
        for a, c, nb in zip(r.sweep.grid, r.sweep.component_counts, r.sweep.boundary_counts):
            fh.write(f"{a!r},{c},{nb}\n")


def write_cost_csv(r: PipelineResult, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("phase,broadcasts,id_units,rounds\n")
        for c in r.costs:
            fh.write(f"{c.phase},{c.broadcasts},{c.id_units},{c.rounds}\n")


def write_timing_json(r: PipelineResult, path: str, writers: StepCost) -> None:
    """Per protocol run (the rows of cost.csv, in order) its deliveries,
    wall time and peak RSS after it; per host step outside the protocols,
    in run order and ending with the report `writers`, its wall time and
    peak RSS after it; and the pipeline's wall time.  Timings vary from
    run to run, so they stay out of the byte-identical reports."""
    rows = {"phases": [asdict(c) for c in r.costs],
            "steps": [asdict(s) for s in r.steps + [writers]],
            "wall_seconds": r.wall_seconds}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(rows, fh, indent=2)
        fh.write("\n")


def summary_dict(r: PipelineResult) -> dict:
    classes = r.classes[r.g.ids]
    b = int((classes == int(NodeClass.BOUNDARY)).sum())
    nb = int((classes == int(NodeClass.NEAR_BOUNDARY)).sum())
    loops = {
        str(cid): {"length": len(lp.members) - 1, "closed": lp.members[0] == lp.members[-1]}
        for cid, lp in sorted(r.loops.items())
    }
    return {
        "schema": SCHEMA_VERSION,
        "config": r.config.to_dict(),
        "area": r.feature.area,
        "mu_analytic": r.mu_analytic,
        "mu_est": r.density.mu_est,
        "delta": r.density.delta,
        "alpha_star": r.alpha_star,
        "threshold": r.threshold,
        "plateau": list(r.sweep.plateau) if r.sweep and r.sweep.plateau else None,
        "components": [
            {"id": c.component_id, "size": c.size,
             "near_size": c.near_set_size, "ratio": c.ratio()}
            for c in sorted(r.comps.components, key=lambda c: c.component_id)
        ],
        "component_count": sum(
            1 for c in r.comps.components if c.size >= r.config.min_component_size),
        "outer_id": r.outer_id,
        "thickness_estimate": r.thick.thickness_estimate,
        "thickness_node": r.thick.best_node,
        "voronoi_count": int(r.voronoi[r.g.ids].sum()),
        "boundary_count": b,
        "near_count": nb,
        "interior_count": r.g.n - b - nb,
        "token_loops": loops,
        "warnings": r.warnings,
    }


def write_summary_json(r: PipelineResult, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary_dict(r), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_reports(r: PipelineResult, out_dir: str) -> list[str]:
    """Write the byte-deterministic reports and return their paths, and
    timing.json next to them."""
    os.makedirs(out_dir, exist_ok=True)
    t = time.perf_counter()
    files = []
    for name, writer in (("classification.csv", write_classification_csv),
                         ("sweep.csv", write_sweep_csv),
                         ("cost.csv", write_cost_csv),
                         ("summary.json", write_summary_json)):
        path = os.path.join(out_dir, name)
        writer(r, path)
        files.append(path)
    writers = StepCost("write_reports", time.perf_counter() - t, peak_rss_mb())
    write_timing_json(r, os.path.join(out_dir, "timing.json"), writers)
    return files


# --------------------------------------------------------------------------
# oracle scoring
# --------------------------------------------------------------------------

def score_run(r: PipelineResult, eps: float = 0.25, far: float = 1.5,
              inradius_step: float = 0.05) -> dict:
    """Join the run with the geometry oracles and score every claim the
    recognizer makes.  Truth for precision/recall is distance <= eps."""
    ids = r.g.ids  # column i of every per-node array below is node ids[i]
    table = geometry.curve_distance_table(r.region, r.g.positions[ids])  # (k, n)
    dmin = table.min(axis=0)
    nearest_curve = table.argmin(axis=0)
    is_b = r.classes[ids] == int(NodeClass.BOUNDARY)

    truth = dmin <= eps
    tp = int((truth & is_b).sum())
    precision = tp / max(int(is_b.sum()), 1)
    recall = tp / max(int(truth.sum()), 1)

    bands = [(0.0, 0.25), (0.25, 0.5), (0.5, 1.0), (1.0, 1.5), (1.5, math.inf)]
    band_rows = []
    for lo, hi in bands:
        m = (dmin > lo) & (dmin <= hi) if lo else (dmin <= hi)
        band_rows.append({"band": f"({lo},{hi}]" if lo else f"[0,{hi}]",
                          "nodes": int(m.sum()),
                          "boundary_rate": float(is_b[m].mean()) if m.any() else 0.0})
    false_far_rate = float(is_b[dmin >= far].mean()) if (dmin >= far).any() else 0.0

    # map components to their generating curves by member majority
    comp_curve: dict[int, int] = {}
    for c in r.comps.components:
        cols = np.searchsorted(ids, c.members)
        comp_curve[c.component_id] = int(np.bincount(nearest_curve[cols]).argmax())
    outer_correct = comp_curve.get(r.outer_id, -1) == 0

    vmask = r.voronoi[ids]
    hits = 0
    flagged = int(vmask.sum())
    for i in np.flatnonzero(vmask):
        c1, c2 = int(r.dist.comp[ids[i]]), int(r.dist.comp2[ids[i]])
        if c1 not in comp_curve or c2 not in comp_curve:
            continue
        da = table[comp_curve[c1], i]
        db = table[comp_curve[c2], i]
        if abs(da - db) <= 4.0:  # within 2R of the equidistance locus
            hits += 1
    voronoi_hit_rate = hits / flagged if flagged else 1.0

    thickness_true, _ = geometry.inradius_oracle(r.region, inradius_step)
    best_true_dist = float(dmin[np.searchsorted(ids, r.thick.best_node)])

    band_table = []
    for i, curve in enumerate(r.region.curves):
        if not isinstance(curve, geometry.Polygon):
            continue
        cf = geometry.band_areas_closed_form(curve)
        mc = geometry.band_areas_oracle(curve, samples=200_000, seed=1000 + i)
        band_table.append({
            "curve": i,
            "outer_closed": cf.outer_band, "outer_mc": mc.outer_band,
            "outer_rel_err": abs(cf.outer_band - mc.outer_band) / cf.outer_band,
            "inner_closed": cf.inner_band, "inner_mc": mc.inner_band,
            "inner_rel_err": abs(cf.inner_band - mc.inner_band) / cf.inner_band,
        })

    return {
        "schema": SCHEMA_VERSION,
        "config": r.config.to_dict(),
        "precision": precision,
        "recall": recall,
        "bands": band_rows,
        "false_rate_beyond_1_5R": false_far_rate,
        "outer_correct": bool(outer_correct),
        "component_to_curve": {str(k): v for k, v in sorted(comp_curve.items())},
        "voronoi_flagged": flagged,
        "voronoi_hit_rate": voronoi_hit_rate,
        "thickness_estimate": r.thick.thickness_estimate,
        "thickness_true": thickness_true,
        "thickness_best_node_true_dist": best_true_dist,
        "band_area_table": band_table,
    }


def check_provenance(summary: dict, config: RunConfig) -> None:
    saved = summary.get("config", {})
    mine = config.to_dict()
    for key in ("region", "n", "seed", "alpha", "bin_count", "tolerance_hops",
                "min_component_size"):
        if saved.get(key) != mine[key]:
            raise MismatchedRun(
                f"run was produced with {key}={saved.get(key)!r}, "
                f"oracle invoked with {mine[key]!r}")


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_validate(args) -> int:
    region = resolve_region(args.region)
    rep = geometry.validate_region(region)
    print(f"region ok: k={rep.k} area={rep.area:.4f}R^2 d_min={rep.d_min:.4f}R "
          f"angles=[{rep.min_angle:.4f}, {rep.max_angle:.4f}] rad")
    return EXIT_OK


def _config_from_args(args) -> RunConfig:
    if args.nodes < 1:
        raise UsageError(f"--nodes takes a positive integer, not {args.nodes}")
    if not MIN_BINS <= args.bins <= MAX_BINS:
        raise UsageError(f"--bins takes an integer from {MIN_BINS} to {MAX_BINS}, "
                         f"not {args.bins}")
    alpha = args.alpha
    if alpha != "sweep":
        try:
            alpha = float(alpha)
        except ValueError:
            alpha = math.nan
        if not math.isfinite(alpha):
            raise UsageError(f"--alpha takes a finite number or 'sweep', not {args.alpha!r}")
        if alpha <= 0 or not math.isfinite(alpha * args.nodes):  # mu_est <= n - 1
            raise UsageError(f"--alpha takes a positive number whose product with --nodes "
                             f"is finite, or 'sweep', not {args.alpha!r}")
    for flag, value in (("--seed", args.seed), ("--voronoi-tol", args.voronoi_tol),
                        ("--min-comp", args.min_comp)):
        if value < 0:
            raise UsageError(f"{flag} takes a non-negative integer, not {value}")
    return RunConfig(region=args.region, n=args.nodes, seed=args.seed,
                     alpha=alpha, bin_count=args.bins,
                     tolerance_hops=args.voronoi_tol,
                     min_component_size=args.min_comp)


def cmd_run(args) -> int:
    config = _config_from_args(args)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    with contextlib.ExitStack() as stack:
        trace_stream = None
        if args.trace:
            trace_stream = stack.enter_context(
                open(os.path.join(out_dir, "trace.csv"), "w",
                     encoding="utf-8", newline="\n"))
            trace_stream.write("phase,round,node,kind,size_units\n")
        r = run_pipeline(config, trace_stream)
    r.steps.insert(0, args.started)
    files = write_reports(r, out_dir)
    for w in r.warnings:
        print(w, file=sys.stderr)
    s = summary_dict(r)
    print(f"n={config.n} seed={config.seed} mu_analytic={r.mu_analytic:.2f} "
          f"mu_est={r.density.mu_est} delta={r.density.delta} "
          f"alpha*={r.alpha_star:.3f} components={s['component_count']} "
          f"outer={r.outer_id} thickness={r.thick.thickness_estimate:.2f}R "
          f"[{r.wall_seconds:.1f}s]")
    for f in files:
        print(f"wrote {f}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    config = _config_from_args(args)
    run_dir = args.out or "."
    path = os.path.join(run_dir, "summary.json")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            summary = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise MismatchedRun(f"{path}: not a JSON document ({exc})") from None
    if not isinstance(summary, dict) or not isinstance(summary.get("config"), dict):
        raise MismatchedRun(f"{path}: no 'config' object")
    check_provenance(summary, config)
    r = run_pipeline(config)
    score = score_run(r)
    path = os.path.join(run_dir, "oracle_score.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(score, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"precision={score['precision']:.3f} recall={score['recall']:.3f} "
          f"false>1.5R={score['false_rate_beyond_1_5R']:.4f} "
          f"voronoi_hit={score['voronoi_hit_rate']:.3f} "
          f"outer_correct={score['outer_correct']} "
          f"thickness {score['thickness_estimate']:.2f} vs {score['thickness_true']:.2f}")
    print(f"wrote {path}")
    return EXIT_OK


def _repro_one(seed: int, loops: bool) -> dict:
    n = REPRO_NODES
    config = RunConfig(region="standard", n=n, seed=seed, alpha="sweep",
                       token_loops=loops)
    r = run_pipeline(config)
    s = summary_dict(r)
    mu_an = r.mu_analytic
    bn = s["boundary_count"] + s["near_count"]
    return {
        "seed": seed,
        "mu_est": r.density.mu_est,
        "mu_rel_err": abs(r.density.mu_est - mu_an) / mu_an,
        "delta_over_mu": r.density.delta / mu_an,
        "components": s["component_count"],
        "alpha_star": r.alpha_star,
        "boundary_plus_near": bn,
        "boundary_plus_near_frac": bn / n,
        "interior": s["interior_count"],
        "outer_id": r.outer_id,
        "ratios": {str(c.component_id): round(c.ratio(), 3) for c in r.comps.components
                   if c.size >= config.min_component_size},
        "thickness_estimate": r.thick.thickness_estimate,
        "wall_seconds": round(r.wall_seconds, 1),
    }


def cmd_paper_repro(args) -> int:
    """Full-scale reproduction: REPRO_NODES nodes on the standard region.

    SWARMTOPO_THREADS > 1 fans the seeds out over worker processes (memory
    scales with the worker count); the report order stays by seed.
    """
    if args.seeds < 1:
        raise UsageError(f"--seeds takes a positive integer, not {args.seeds}")
    threads = os.environ.get("SWARMTOPO_THREADS", "1")
    try:
        workers = max(1, int(threads))
    except ValueError:
        raise UsageError(f"SWARMTOPO_THREADS takes an integer, not {threads!r}") from None
    n = REPRO_NODES
    region = standard_region()
    area = geometry.validate_region(region).area
    mu_an = mu_analytic_value(n, area)
    print(f"mu_analytic = {mu_an:.2f} (paper-scale instance, area {area:.1f}R^2)")
    seeds = list(range(1, args.seeds + 1))
    if workers > 1 and len(seeds) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_repro_one, seeds, [args.loops] * len(seeds)))
    else:
        rows = [_repro_one(seed, args.loops) for seed in seeds]
    for row in rows:
        bn = row["boundary_plus_near"]
        print(f"seed {row['seed']}: mu_est={row['mu_est']} "
              f"({100 * row['mu_rel_err']:.2f}%) "
              f"delta/mu={row['delta_over_mu']:.3f} components={row['components']} "
              f"boundary+near={bn} ({100 * bn / n:.1f}%) interior={row['interior']} "
              f"[{row['wall_seconds']}s]")
    report = {"schema": SCHEMA_VERSION, "n": n, "mu_analytic": mu_an, "runs": rows}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "paper_repro.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--region", default=RunConfig.region,
                   help="builtin name (standard, annulus) or region JSON path")
    p.add_argument("--nodes", type=int, default=RunConfig.n)
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.add_argument("--alpha", default=RunConfig.alpha, help="numeric threshold factor or 'sweep'")
    p.add_argument("--bins", type=int, default=RunConfig.bin_count,
                   help=f"degree histogram bins, {MIN_BINS} to {MAX_BINS}")
    p.add_argument("--voronoi-tol", type=int, default=RunConfig.tolerance_hops)
    p.add_argument("--min-comp", type=int, default=RunConfig.min_component_size)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--trace", action="store_true", help="write a broadcast trace CSV")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="swarmtopo",
                                 description="coordinate-free topology recognition testbed")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a region file or builtin")
    p.add_argument("--region", default=RunConfig.region)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="full pipeline run")
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("oracle", help="score a finished run against geometry oracles")
    _add_common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("paper-repro", help=f"full-scale {REPRO_NODES:,}-node reproduction")
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--out", default=None)
    p.add_argument("--no-loops", dest="loops", action="store_false")
    p.set_defaults(func=cmd_paper_repro)
    return ap


def main(argv: list[str] | None = None) -> int:
    started = StepCost("import", time.perf_counter() - IMPORTED_AT, peak_rss_mb())
    args = build_parser().parse_args(argv, argparse.Namespace(started=started))
    try:
        return args.func(args)
    except (OSError, UsageError) as exc:  # a path that cannot be read or made, too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except geometry.GeometryError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except MismatchedRun as exc:
        print(f"mismatched run: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except GraphDisconnected as exc:
        print(f"graph disconnected: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except NoBoundaryComponent as exc:
        print(f"no boundary: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except RoundLimitExceeded as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except boundary.DegenerateHistogram as exc:
        print(f"density error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL


if __name__ == "__main__":
    raise SystemExit(main())
