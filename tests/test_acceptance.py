"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line.  Statistical criteria run on the full-scale instance
(n = 45,000, the paper-scale deployment) through the centralized twins,
whose exact equality with the protocols is itself criterion 7; the
end-to-end distributed run is criterion 9/10.
"""

import math
import resource
import time
from dataclasses import dataclass

import numpy as np
import pytest
from numpy.random import Generator, Philox

from swarmtopo import boundary, cli, convergetree, geometry, netgraph, topo
from swarmtopo.boundary import NodeClass
from conftest import straight_boundary_samples, strip_components

N_FULL = 45_000
SWEEP_SEEDS = range(1, 11)
THEOREM_SEEDS = range(1, 21)

_lines = []


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    _lines.append(line)
    print(line)
    assert ok, line


def build_instance(region, n, seed):
    pts = geometry.sample_uniform(region, n, seed)
    ids = Generator(Philox([seed, 1])).permutation(n) + 1
    return netgraph.build_udg((ids, pts)), pts


@dataclass
class SeedRecord:
    seed: int
    mu_est: int
    delta: int
    sweep: boundary.AlphaSweep | None
    alpha_star: float | None
    count_at_star: int | None
    frac: float | None
    outer_ok: bool | None
    thickness_est: float | None
    hop_violations: int | None


def analyze_seed(region, area, seed, alpha_fixed=None, full=True):
    """Centralized-statistics pass over one 45k deployment."""
    g, pts = build_instance(region, N_FULL, seed)
    deg = g.degrees()
    hist = netgraph.histogram(g, 64)
    est = boundary.estimate_mu(hist)
    record = SeedRecord(seed=seed, mu_est=est.mu_est, delta=est.delta,
                        sweep=None, alpha_star=None, count_at_star=None,
                        frac=None, outer_ok=None, thickness_est=None,
                        hop_violations=None)
    if alpha_fixed is None:
        record.sweep = boundary.alpha_sweep(g, est.mu_est)
        record.alpha_star = record.sweep.alpha_star
    else:
        record.alpha_star = alpha_fixed
    thr = boundary.threshold_units(record.alpha_star, est.mu_est)
    classes = boundary.central_classify(g, thr)
    bmask = classes == int(NodeClass.BOUNDARY)
    # everything below lives in ID-sorted space: row i <-> node g.ids[i]
    pts_id = g.positions[g.ids]
    table = geometry.curve_distance_table(region, pts_id)
    dmin = table.min(axis=0)
    nearest = table.argmin(axis=0)
    is_b = bmask[g.ids]
    near = classes[g.ids] == int(NodeClass.NEAR_BOUNDARY)
    record.frac = float((is_b | near).mean())
    record.false_rate = float(is_b[dmin >= 1.5].mean())
    bpos = pts_id[is_b]
    from scipy.spatial import cKDTree
    btree = cKDTree(bpos) if len(bpos) else None
    samples = straight_boundary_samples(region)
    if btree is not None:
        hits = btree.query_ball_point(samples, 0.25)
        record.det_rate = float(np.fromiter((len(h) > 0 for h in hits), bool,
                                            len(samples)).mean())
    else:
        record.det_rate = 0.0
    if not full:
        return record

    comps = boundary.central_components(g, bmask)
    big = [c for c in comps if c.size >= 8]
    record.count_at_star = len(big)
    outer_id = topo.classify_outer(big or comps)
    votes = {}
    for c in (big or comps):
        rows = np.searchsorted(g.ids, np.array(c.members))
        votes[c.component_id] = int(np.bincount(nearest[rows]).argmax())
    record.outer_ok = votes.get(outer_id) == 0

    field = boundary.central_distance_field(g, comps, est.mu_est)
    rep = topo.thickness(classes, field, deg, est.mu_est, ids=g.id_list)
    record.thickness_est = rep.thickness_estimate
    # each hop spans at most R, so hops dominate the distance to the
    # nearest boundary *node* exactly (the curve sits a little further)
    hops = field.hop[g.ids]
    d_member, _ = btree.query(pts_id)
    record.hop_violations = int((hops + 1e-9 < d_member).sum())
    return record


@pytest.fixture(scope="session")
def region_area(standard_region):
    return geometry.validate_region(standard_region).area


@pytest.fixture(scope="session")
def sweep_records(standard_region, region_area):
    return [analyze_seed(standard_region, region_area, s) for s in SWEEP_SEEDS]


@pytest.fixture(scope="session")
def theorem_records(standard_region, region_area, sweep_records):
    alpha_star = sweep_records[0].alpha_star  # calibrate once, deploy widely
    recs = {r.seed: r for r in sweep_records}
    out = []
    for s in THEOREM_SEEDS:
        if s in recs and recs[s].alpha_star == alpha_star:
            out.append(recs[s])
        else:
            out.append(analyze_seed(standard_region, region_area, s,
                                    alpha_fixed=alpha_star, full=False))
    return out


@pytest.fixture(scope="session")
def full_run():
    """The end-to-end distributed 45k deployment (criteria 9 and 10)."""
    t0 = time.perf_counter()
    r = cli.run_pipeline(cli.RunConfig(region="standard", n=N_FULL, seed=1,
                                       alpha="sweep"))
    wall = time.perf_counter() - t0
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6
    return r, wall, peak_gb


def test_criterion_1_analytic_density(region_area):
    mu = cli.mu_analytic_value(45_000, 786.9)
    mu_region = cli.mu_analytic_value(45_000, region_area)
    ok = abs(mu - 179.65) <= 0.05 and abs(mu_region - 179.65) <= 0.05
    report(1, ok, f"mu_analytic={mu_region:.4f} (vol={region_area:.4f}R^2)")


def test_criterion_2_mu_estimation(standard_region, region_area):
    n = 20_000
    mu = cli.mu_analytic_value(n, region_area)
    errs = []
    for seed in range(1, 11):
        g, _ = build_instance(standard_region, n, seed)
        est = boundary.estimate_mu(netgraph.histogram(g, 64))
        errs.append(abs(est.mu_est - mu) / mu)
    ok = max(errs) <= 0.05
    report(2, ok, f"n=20000, 10 seeds, worst |mu_est-mu|/mu = {100 * max(errs):.2f}%")


@pytest.mark.slow
def test_criterion_3_plateau_recovery(sweep_records):
    good = 0
    zero_at_005 = True
    for r in sweep_records:
        lo, hi, count = r.sweep.plateau
        length = round((hi - lo) / 0.05) + 1
        if count == 4 and length >= 3:
            good += 1
        if r.sweep.component_counts[0] != 0:
            zero_at_005 = False
    ok = good >= 8 and zero_at_005
    report(3, ok, f"plateau at 4 (>=3 grid points) on {good}/10 seeds; "
                  f"alpha=0.05 empty on all: {zero_at_005}")


@pytest.mark.slow
def test_criterion_4_theorem_statistics(theorem_records):
    false_rates = [r.false_rate for r in theorem_records]
    det_rates = [r.det_rate for r in theorem_records]
    pooled_false = float(np.mean(false_rates))
    pooled_det = float(np.mean(det_rates))
    ok = pooled_false <= 0.02 and pooled_det >= 0.90
    report(4, ok, f"20 seeds pooled at alpha*={theorem_records[0].alpha_star:.3f}: "
                  f"false(d>=1.5R)={100 * pooled_false:.3f}%, "
                  f"detect(<=0.25R)={100 * pooled_det:.2f}%")


@pytest.mark.slow
def test_criterion_5_band_areas(monte_carlo_bands):
    sq = geometry.Polygon(np.array([[0, 0], [4, 0], [4, 4], [0, 4]], float))
    b = geometry.band_areas_closed_form(sq)
    exact = (abs(b.outer_band - (16 - 4)) < 1e-12 and
             abs(b.inner_band - (16 + math.pi)) < 1e-12)
    worst = 0.0
    for _, cf, mc in monte_carlo_bands:
        worst = max(worst,
                    abs(cf.outer_band - mc.outer_band) / cf.outer_band,
                    abs(cf.inner_band - mc.inner_band) / cf.inner_band)
    ok = exact and worst <= 0.01
    report(5, ok, f"square forms exact; worst MC deviation {100 * worst:.3f}% "
                  f"over 20 polygons")


@pytest.mark.slow
def test_criterion_6_outer_boundary(sweep_records):
    comps = strip_components([(6093, 2169), (1304, 289), (1319, 266), (2368, 616)])
    ratios = [round(c.ratio(), 3) for c in comps]
    table_ok = (ratios == [2.809, 4.512, 4.959, 3.844] and
                topo.classify_outer(comps) == comps[0].component_id)
    good = sum(1 for r in sweep_records if r.outer_ok)
    ok = table_ok and good >= 9
    report(6, ok, f"reference ratios {ratios} reproduced={table_ok}; "
                  f"end-to-end outer correct on {good}/10 seeds")


def test_criterion_7_protocol_vs_oracle(standard_region):
    regions = {
        "box+hole": geometry.Region([
            geometry.Polygon(np.array([[0, 0], [9, 0], [9, 9], [0, 9]], float)),
            geometry.Circle((4.5, 4.5), 1.4)]),
        "standard": standard_region,
    }
    checks = 0
    for name, region in regions.items():
        seeds = (1, 2, 3) if name != "standard" else (1,)
        n = 700 if name != "standard" else 4000
        for seed in seeds:
            g, _ = build_instance(region, n, seed)
            tree = convergetree.build_tree(g)
            convergetree.check_tree(g, tree)
            hist_c = netgraph.histogram(g, 64)
            (delta,), _ = convergetree.aggregate(g, tree, convergetree.AggOp.MAX, g.degrees())
            assert delta == hist_c.delta
            merged, _ = convergetree.aggregate(
                g, tree, convergetree.AggOp.HISTOGRAM_MERGE,
                netgraph.degree_bin(g.degrees(), delta, 64), 64)
            assert list(merged) == hist_c.counts.tolist()

            est = boundary.estimate_mu(hist_c)
            thr = boundary.threshold_units(0.77, est.mu_est)
            classes, _ = boundary.classify(g, thr)
            assert np.array_equal(classes, boundary.central_classify(g, thr))

            comps = boundary.form_components(g, classes)
            cents = boundary.central_components(g, classes == int(NodeClass.BOUNDARY))
            assert ({c.component_id: (set(c.members), c.near_set_size)
                     for c in comps.components} ==
                    {c.component_id: (set(c.members), c.near_set_size)
                     for c in cents})

            field, _ = boundary.distance_flood(g, comps.comp_of, est.mu_est)
            central = boundary.central_distance_field(g, comps.components, est.mu_est)
            for mine, ref in ((field.hop, central.hop), (field.hop2, central.hop2)):
                assert ((np.isinf(mine) & np.isinf(ref)) | (mine == ref)).all()
            assert np.array_equal(field.comp, central.comp)
            assert np.array_equal(field.comp2, central.comp2)
            assert np.array_equal(field.anchor_q, central.anchor_q)
            bfs = netgraph.hop_bfs(g, [v for v in g.id_list if comps.comp_of[v]])
            a, b = field.hop[g.ids], bfs[g.ids]
            assert ((np.isinf(a) & np.isinf(b)) | (a == b)).all()
            checks += 1
    report(7, True, f"distributed == centralized on {checks} instances "
                    f"(histogram, classes, components, distance flood, anchors)")


@pytest.mark.slow
def test_criterion_8_thickness(sweep_records, standard_region):
    t_std, _ = geometry.inradius_oracle(standard_region, grid_step=0.05)
    std_ok = [r for r in sweep_records
              if t_std <= r.thickness_est <= 1.5 * t_std]
    assert all(r.hop_violations == 0 for r in sweep_records), \
        "hop distance fell below the Euclidean distance to the nearest member"
    annulus = cli.annulus_region()
    t_ann, _ = geometry.inradius_oracle(annulus, grid_step=0.05)
    ann_ok = 0
    for seed in range(1, 11):
        g, pts = build_instance(annulus, 8000, seed)
        est = boundary.estimate_mu(netgraph.histogram(g, 64))
        alpha = boundary.alpha_sweep(g, est.mu_est).alpha_star
        if alpha is None:
            alpha = boundary.default_alpha()
        classes = boundary.central_classify(
            g, boundary.threshold_units(alpha, est.mu_est))
        comps = boundary.central_components(
            g, classes == int(NodeClass.BOUNDARY))
        field = boundary.central_distance_field(g, comps, est.mu_est)
        rep = topo.thickness(classes, field, g.degrees(), est.mu_est, ids=g.id_list)
        if t_ann <= rep.thickness_estimate <= 1.5 * t_ann:
            ann_ok += 1
    ok = len(std_ok) == len(sweep_records) and ann_ok == 10
    report(8, ok, f"standard T={t_std:.3f}: {len(std_ok)}/10 in [T,1.5T]; "
                  f"annulus T={t_ann:.3f}: {ann_ok}/10 in [T,1.5T]")


@pytest.mark.slow
def test_criterion_9_full_scale(full_run):
    r, wall, peak_gb = full_run
    s = cli.summary_dict(r)
    frac = (s["boundary_count"] + s["near_count"]) / N_FULL
    ok = (wall <= 600 and peak_gb <= 4.0 and s["component_count"] == 4
          and 0.20 <= frac <= 0.30)
    report(9, ok, f"n=45000 end-to-end: {wall:.0f}s, {peak_gb:.2f}GB, "
                  f"components={s['component_count']}, "
                  f"boundary+near={100 * frac:.1f}% (target 20-30%)")


@pytest.mark.slow
def test_degree_extremes_and_voronoi_quality(full_run, sweep_records):
    # supporting spec targets on the full-scale instance: the max/mean degree
    # ratio band (derived from seed variation) and the Voronoi flag quality
    mu = cli.mu_analytic_value(N_FULL, 786.9015325212005)
    ratios = [r.delta / mu for r in sweep_records]
    assert all(1.20 <= x <= 1.50 for x in ratios), ratios

    r, _, _ = full_run
    score = cli.score_run(r)
    assert score["voronoi_flagged"] > 0
    assert score["voronoi_hit_rate"] >= 0.80, score["voronoi_hit_rate"]
    print(f"supporting: delta/mu in [{min(ratios):.3f}, {max(ratios):.3f}], "
          f"voronoi hit rate {100 * score['voronoi_hit_rate']:.1f}% "
          f"({score['voronoi_flagged']} flagged)")


@pytest.mark.slow
def test_criterion_10_determinism_and_loops(full_run, tmp_path):
    # the annulus at n=4000 is dense enough to stay connected
    config = cli.RunConfig(region="annulus", n=4000, seed=3, alpha="sweep")
    blobs = []
    for sub in ("x", "y"):
        rr = cli.run_pipeline(config)
        files = cli.write_reports(rr, str(tmp_path / sub))
        blobs.append(tuple(open(f, "rb").read() for f in files))
    identical = blobs[0] == blobs[1]

    r, _, _ = full_run
    closed = all(lp.members[0] == lp.members[-1] == cid
                 for cid, lp in r.loops.items())
    all_loops = len(r.loops) == len(r.comps.components)
    covered = True
    worst_cov = 0.0
    members_of = {c.component_id: c.members for c in r.comps.components}
    for cid, lp in r.loops.items():
        d = netgraph.hop_bfs(r.g, set(lp.members))
        members = members_of[cid]
        far = max(float(d[m]) for m in members)
        worst_cov = max(worst_cov, far)
        if far > 2:
            covered = False
    for cid, lp in r.loops.items():
        walk = lp.walk
        for a, b in zip(walk, walk[1:]):
            assert b in r.g.neighbors(a), "walk not graph-adjacent"
    ok = identical and closed and all_loops and covered
    report(10, ok, f"byte-identical reruns={identical}; loops closed on "
                   f"{len(r.loops)}/{len(r.comps.components)} components; "
                   f"worst member-to-loop distance {worst_cov:.0f} hops "
                   f"(must be <= 2)")
