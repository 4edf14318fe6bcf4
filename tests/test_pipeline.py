import collections
import dataclasses
import functools
import io
import itertools
import json
import math
import os
import pathlib
import re
import time
import types

import numpy as np
import pytest
from numpy.random import Generator, Philox

from swarmtopo import boundary, cli, convergetree, geometry, netgraph
from swarmtopo.cli import MismatchedRun, RunConfig
from swarmtopo.simkernel import Kind, RoundLimitExceeded
from conftest import CROSSING_REGIONS, sha


def write_region(path, curves) -> str:
    """A region document with these curves, in R units."""
    path.write_text(json.dumps({"radius_unit": 1.0, "curves": curves}), encoding="utf-8")
    return str(path)


def small_region_file(tmp_path):
    return write_region(tmp_path / "small.json", [
        {"type": "polygon", "vertices": [[0, 0], [8, 0], [8, 8], [0, 8]]},
        {"type": "circle", "center": [4.0, 4.0], "radius": 1.2}])


def test_standard_region_matches_paper_scale():
    rep = geometry.validate_region(cli.standard_region())
    assert rep.k == 4
    assert rep.area == pytest.approx(786.9, rel=0.01)
    assert rep.d_min >= 2.0
    assert cli.mu_analytic_value(45000, rep.area) == pytest.approx(179.65, abs=0.05)


def test_pipeline_end_to_end_small(tmp_path):
    path = small_region_file(tmp_path)
    config = RunConfig(region=path, n=1500, seed=2, alpha=0.77)
    r = cli.run_pipeline(config)
    s = cli.summary_dict(r)
    assert s["schema"] == 1
    assert s["boundary_count"] + s["near_count"] + s["interior_count"] == 1500
    assert s["component_count"] >= 1
    assert r.outer_id in {c.component_id for c in r.comps.components}
    files = cli.write_reports(r, str(tmp_path / "out"))
    assert all(os.path.exists(f) for f in files)
    lines = pathlib.Path(tmp_path, "out", "classification.csv").read_text().splitlines()
    assert lines[0] == "id,class,boundary_id,hop_dist,voronoi"
    assert len(lines) == 1501


def test_classification_csv_matches_per_node_formatting(tmp_path):
    # a chain 0.6R apart, whose two ends (degree 1) are the components, and
    # a far-off triangle that no flood reaches; IDs gapped and descending
    pts = np.array([(0.6 * i, 0.0) for i in range(9)] + [(50, 50), (50.5, 50), (50, 50.5)])
    g = netgraph.build_udg((3 * np.arange(len(pts))[::-1] + 5, pts))
    classes, _ = boundary.classify(g, 1)
    comps = boundary.form_components(g, classes)
    dist, _ = boundary.distance_flood(g, comps.comp_of, 2)
    r = types.SimpleNamespace(g=g, classes=classes, dist=dist,
                              voronoi=boundary.detect_voronoi(dist, 2))
    assert np.isinf(dist.hop[g.ids]).sum() == 3 and r.voronoi[g.ids].sum() == 3
    path = tmp_path / "classification.csv"
    cli.write_classification_csv(r, str(path))
    want = "id,class,boundary_id,hop_dist,voronoi\n"
    for v in g.id_list:
        hop = int(dist.hop[v]) if np.isfinite(dist.hop[v]) else -1
        want += (f"{v},{boundary.NodeClass(int(classes[v])).name},{int(dist.comp[v])},"
                 f"{hop},{int(bool(r.voronoi[v]))}\n")
    assert path.read_bytes() == want.encode()


def test_pipeline_byte_identical_reruns(tmp_path):
    path = small_region_file(tmp_path)
    config = RunConfig(region=path, n=1200, seed=5, alpha="sweep")
    for sub in ("a", "b"):
        r = cli.run_pipeline(config)
        cli.write_reports(r, str(tmp_path / sub))
    for name in ("classification.csv", "sweep.csv", "cost.csv", "summary.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


# The reports of one annulus run with the alpha sweep and token loops on,
# recorded at commit 70023f7: sha256 of the output files, and cost.csv as
# text (its tree, first components and distance_flood rows re-recorded
# when those phases stopped opening with a round of self-announcements,
# its second components row when the organisation stopped echoing the
# totals down its tree, the id-units of the tree, second components and
# distance_flood rows when their messages stopped carrying fields their
# receivers already hold, and the tree's id-units and the agg_histogram
# row when round-0 STATEs dropped the parent, leaf REPORTs the size and
# histogram leaves their message).  A change that moves an output on purpose
# re-records it here and lists the change, old -> new, in CHANGES.md.
PINNED_CONFIG = RunConfig(region="annulus", n=4000, seed=3, alpha="sweep",
                          token_loops=True)
PINNED_DIGESTS = {
    "classification.csv": "3718b6a30230dbe69c1650e6c4606bcbb1bb27fb6036a994eb7c1d9be51dded4",
    "sweep.csv": "9eddf61a600f050b36e42316fe00be215fbb5024ad7bb9baa9436a1241cd6384",
    "summary.json": "7acdb1034040bbcba3ab0fb10f3c10a59e3a01f710503f21896bce96c79156d9",
}
PINNED_COST = """\
phase,broadcasts,id_units,rounds
tree,27466,60815,61
agg_delta,3999,7998,21
flood_delta,659,1318,21
agg_histogram,658,13968,20
flood_threshold,659,1977,21
classify,455,455,2
components,5805,15941,28
components,2410,6800,29
distance_flood,7545,18635,8
token_loops,7611,132497,222
"""


def kinds_by_name() -> dict:
    """Every message kind the protocols declare, by its name."""
    return {name: kind for module in (convergetree, boundary)
            for name, kind in vars(module).items() if isinstance(kind, Kind)}


def declared_kinds() -> dict:
    """Every message kind the protocols declare, by its trace code."""
    by_code: dict = {}
    for kind in kinds_by_name().values():
        by_code.setdefault(kind.code, []).append(kind)
    return by_code


def test_reports_pinned_across_commits(tmp_path):
    trace = io.StringIO()
    r = cli.run_pipeline(PINNED_CONFIG, trace)
    cli.write_reports(r, str(tmp_path))
    for name, digest in PINNED_DIGESTS.items():
        assert sha(tmp_path.joinpath(name).read_bytes()) == digest, name
    assert tmp_path.joinpath("cost.csv").read_text(encoding="utf-8") == PINNED_COST
    # every traced message's size recounted from its kind's declaration;
    # only the two aggregation forms share a code
    by_code = declared_kinds()
    assert {code: len(kinds) for code, kinds in by_code.items() if len(kinds) > 1} == {4: 2}

    def fits(kind, units):
        if not kind.repeat:
            return units == kind.units()
        extra = units - kind.units()
        return extra >= 0 and extra % len(kind.repeat) == 0

    sizes = collections.Counter(tuple(map(int, line.split(",")[3:]))
                                for line in trace.getvalue().splitlines())
    assert set(code for code, _ in sizes) <= set(by_code)
    for code, units in sizes:
        assert any(fits(kind, units) for kind in by_code[code]), (code, units)
    total = sum(units * n for (_, units), n in sizes.items())
    assert total == sum(int(row.split(",")[2]) for row in PINNED_COST.splitlines()[1:])
    # timing.json splits each phase by kind: the traced broadcasts, units
    # and deliveries (the sender's degree) of each phase and kind
    deg = r.g.degrees()
    traced = collections.defaultdict(lambda: np.zeros(3, dtype=np.int64))
    for line in trace.getvalue().splitlines():
        phase, _, v, code, units = line.split(",")
        traced[phase, int(code)] += (1, int(units), deg[int(v)])
    code_of = {kind.name: kind.code for kind in kinds_by_name().values()}
    split = collections.defaultdict(lambda: np.zeros(3, dtype=np.int64))
    phases = json.loads(tmp_path.joinpath("timing.json").read_text(encoding="utf-8"))["phases"]
    for row in phases:
        for name, t in row["kinds"].items():
            split[row["phase"], code_of[name]] += (t["broadcasts"], t["id_units"],
                                                   t["deliveries"])
    assert {k: v.tolist() for k, v in split.items()} == {k: v.tolist() for k, v in traced.items()}


def readme_kind_rows() -> list[list[str]]:
    """The cells of each row of README's table of message kinds."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = text[text.index("| code | kind | fields | id-units | k |"):].splitlines()[2:]
    return [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in itertools.takewhile(lambda line: line.strip().startswith("|"), lines)]


def test_readme_kind_table_matches_declarations():
    # each row's code, name, fields and id-units as `Kind` declares them,
    # and a row for every declared kind
    declared = kinds_by_name()
    rows = readme_kind_rows()
    assert sorted(row[1].strip("`") for row in rows) == sorted(declared)
    for code, name, fields, units, k in rows:
        kind = declared[name.strip("`")]
        assert kind.name == name.strip("`").removeprefix("K_").lower(), name
        group = re.search(r"\(([^)]*)\)×k", fields)
        fixed = re.sub(r",? ?\([^)]*\)×k", "", fields)
        assert int(code) == kind.code, name
        assert tuple(f for f in fixed.split(", ") if f not in ("", "—")) == kind.fields, name
        assert (tuple(group.group(1).split(", ")) if group else ()) == kind.repeat, name
        r = len(kind.repeat)
        assert units == (str(kind.units()) if not r else f"{kind.units()} + k" if r == 1
                         else f"{kind.units()} + {r}·k"), name
        assert bool(k) == bool(r), name


def test_density_warning_low_n(tmp_path):
    path = write_region(tmp_path / "tiny.json",
                        [{"type": "polygon", "vertices": [[0, 0], [2, 0], [2, 2], [0, 2]]}])
    r = cli.run_pipeline(RunConfig(region=path, n=50, seed=1, alpha=0.77,
                                   token_loops=False))
    assert any("density warning" in w for w in r.warnings)


def test_score_run_perfect_and_shuffled(tmp_path):
    path = small_region_file(tmp_path)
    config = RunConfig(region=path, n=1500, seed=3, alpha=0.77)
    r = cli.run_pipeline(config)
    # perfect classifier: relabel from the oracle itself
    table = geometry.curve_distance_table(r.region, r.g.positions[1:])
    truth = table.min(axis=0) <= 0.25
    classes = np.zeros(r.g.n + 1, dtype=np.int8)
    classes[1:][truth] = 2
    r.classes = classes
    score = cli.score_run(r, inradius_step=0.1)
    assert score["precision"] == pytest.approx(1.0)
    assert score["recall"] == pytest.approx(1.0)
    # shuffled labels: recall collapses to roughly the base rate
    rng = np.random.Generator(np.random.Philox(8))
    classes2 = np.zeros(r.g.n + 1, dtype=np.int8)
    classes2[1:][rng.permutation(r.g.n) < truth.sum()] = 2
    r.classes = classes2
    score2 = cli.score_run(r, inradius_step=0.1)
    base = truth.mean()
    assert score2["recall"] == pytest.approx(base, abs=4 * math.sqrt(base / truth.sum()))


def relabel_run(r, new_of):
    """The run `r` with node v renamed new_of[v] (new_of[0] == 0)."""
    ids = r.g.ids
    new_ids = new_of[ids]
    g = netgraph.build_udg((new_ids, r.g.positions[ids]))

    def move(a):
        out = np.zeros(g.max_id + 1, dtype=a.dtype)
        out[new_ids] = a[ids]
        return out

    d = r.dist
    dist = boundary.DistanceField(move(d.hop), new_of[move(d.comp)], move(d.hop2),
                                  new_of[move(d.comp2)], move(d.anchor_q))
    components = [boundary.BoundaryComponent(int(new_of[c.component_id]),
                                             tuple(new_of[list(c.members)].tolist()),
                                             c.size, c.near_set_size)
                  for c in r.comps.components]
    comps = dataclasses.replace(r.comps, components=components,
                                comp_of=new_of[move(r.comps.comp_of)])
    thick = dataclasses.replace(r.thick, best_node=int(new_of[r.thick.best_node]))
    return dataclasses.replace(r, g=g, classes=move(r.classes), voronoi=move(r.voronoi),
                               dist=dist, comps=comps, outer_id=int(new_of[r.outer_id]),
                               thick=thick)


def test_score_run_gapped_ids_match_dense(tmp_path):
    # the same run under shuffled IDs spread over 1..5n scores the same
    path = small_region_file(tmp_path)
    r = cli.run_pipeline(RunConfig(region=path, n=1500, seed=3, alpha="sweep",
                                   token_loops=False))
    new_of = np.zeros(r.g.max_id + 1, dtype=np.int64)
    new_of[r.g.ids] = Generator(Philox(11)).choice(5 * r.g.n, r.g.n, replace=False) + 1
    gapped = relabel_run(r, new_of)
    assert gapped.g.n == r.g.n and gapped.g.max_id > 2 * r.g.n
    dense = cli.score_run(r, inradius_step=0.1)
    assert dense["voronoi_flagged"] > 0 and len(dense["component_to_curve"]) > 1
    dense["component_to_curve"] = {str(new_of[int(c)]): curve
                                   for c, curve in dense["component_to_curve"].items()}
    assert cli.score_run(gapped, inradius_step=0.1) == dense


def test_cli_validate_and_run(tmp_path, capsys):
    path = small_region_file(tmp_path)
    assert cli.main(["validate", "--region", path]) == 0
    out = str(tmp_path / "run")
    rc = cli.main(["run", "--region", path, "--nodes", "900", "--seed", "4",
                   "--alpha", "0.77", "--out", out])
    assert rc == 0
    summary = json.loads(pathlib.Path(out, "summary.json").read_text())
    assert summary["config"]["n"] == 900
    assert_timing_steps(json.loads(pathlib.Path(out, "timing.json").read_text()), started=True)
    captured = capsys.readouterr()
    assert "mu_est" in captured.out


@pytest.mark.parametrize("argv", [
    ["run", "--region", "/nonexistent/region.json"],
    ["validate", "--region", "{tmp}"],  # a directory
    ["run", "--region", "annulus", "--out", "{tmp}/file"],  # an output directory that is a file
], ids=["missing", "directory", "out-is-file"])
def test_cli_missing_region_file(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("")
    assert cli.main([a.format(tmp=tmp_path) for a in argv]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flag, value, message", [
    ("--bins", "0", "--bins takes an integer from 16 to 256, not 0"),
    ("--bins", "15", "--bins takes an integer from 16 to 256, not 15"),
    ("--bins", "100000", "--bins takes an integer from 16 to 256, not 100000"),
    ("--nodes", "0", "--nodes takes a positive integer, not 0"),
    ("--seed", "-1", "--seed takes a non-negative integer, not -1"),
    ("--alpha", "abc", "--alpha takes a finite number or 'sweep', not 'abc'"),
    ("--alpha", "nan", "--alpha takes a finite number or 'sweep', not 'nan'"),
    ("--alpha", "inf", "--alpha takes a finite number or 'sweep', not 'inf'"),
    ("--alpha", "-0.5", "--alpha takes a positive number whose product with --nodes "
                        "is finite, or 'sweep', not '-0.5'"),
    ("--alpha", "0", "--alpha takes a positive number whose product with --nodes "
                     "is finite, or 'sweep', not '0'"),
    ("--alpha", "1e308", "--alpha takes a positive number whose product with --nodes "
                         "is finite, or 'sweep', not '1e308'"),
    ("--voronoi-tol", "-1", "--voronoi-tol takes a non-negative integer, not -1"),
    ("--min-comp", "-1", "--min-comp takes a non-negative integer, not -1"),
], ids=["bins-0", "bins-15", "bins-huge", "nodes-0", "seed-negative", "alpha-abc", "alpha-nan", "alpha-inf",
        "alpha-negative", "alpha-zero", "alpha-overflow", "voronoi-tol-negative", "min-comp-negative"])
def test_cli_rejects_bad_values(monkeypatch, tmp_path, capsys, flag, value, message):
    def unreachable(config, trace_stream=None):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr(cli, "run_pipeline", unreachable)
    assert cli.main(["run", flag, value, "--out", str(tmp_path)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("seeds, message", [
    ("0", "--seeds takes a positive integer, not 0"),
    ("-2", "--seeds takes a positive integer, not -2"),
], ids=["seeds-0", "seeds-negative"])
def test_paper_repro_rejects_bad_values(monkeypatch, capsys, seeds, message):
    # rejected before any seed runs
    def unreachable(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "_repro_one", unreachable)
    assert cli.main(["paper-repro", "--seeds", seeds]) == cli.EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_degenerate_histogram(tmp_path, capsys):
    # a single node has degree 0: no histogram to estimate the density from
    argv = ["run", "--region", "annulus", "--nodes", "1", "--alpha", "0.7", "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_PROTOCOL
    err = capsys.readouterr().err
    with pytest.raises(boundary.DegenerateHistogram) as e:
        cli.run_pipeline(RunConfig(region="annulus", n=1, alpha=0.7))
    assert err == f"density error: {e.value}\n"


def test_cli_disconnected_graph(tmp_path, capsys):
    # 50 nodes on the standard region are far too sparse to stay connected
    rc = cli.main(["run", "--nodes", "50", "--out", str(tmp_path)])
    assert rc == cli.EXIT_PROTOCOL
    err = capsys.readouterr().err
    assert "graph disconnected" in err and "connected components" in err
    with pytest.raises(cli.GraphDisconnected) as e:
        cli.run_pipeline(RunConfig(n=50, seed=1))
    assert 1 < e.value.components <= 50
    assert f"has {e.value.components} connected components" in err


def test_cli_no_boundary_component(tmp_path, capsys):
    # alpha 0.01 puts the threshold below every degree: no node is BOUNDARY
    args = ["--region", "annulus", "--nodes", "2000", "--seed", "1", "--alpha", "0.01"]
    assert cli.main(["run", *args, "--out", str(tmp_path)]) == cli.EXIT_PROTOCOL
    err = capsys.readouterr().err
    with pytest.raises(cli.NoBoundaryComponent) as e:
        cli.run_pipeline(RunConfig(region="annulus", n=2000, seed=1, alpha=0.01))
    assert 0 <= e.value.threshold < e.value.min_degree
    assert f"no boundary: {e.value}" in err
    assert f"threshold {e.value.threshold} " in err and f"is {e.value.min_degree})" in err


@pytest.mark.parametrize("exc, code, prefix", [
    (RoundLimitExceeded(7, {3: "dist(slots=[])"}), cli.EXIT_PROTOCOL, "protocol error: "),
    (RoundLimitExceeded(7, {3: "dist(slots=[])"}, "distance_flood"), cli.EXIT_PROTOCOL,
     "protocol error: "),
    (cli.GraphDisconnected(50, 3), cli.EXIT_PROTOCOL, "graph disconnected: "),
    (cli.NoBoundaryComponent(12, 40), cli.EXIT_PROTOCOL, "no boundary: "),
    (geometry.FeatureSizeViolation("holes 0.5R apart"), cli.EXIT_GEOMETRY, "geometry error: "),
    (FileNotFoundError("no region file"), cli.EXIT_USAGE, "error: "),
], ids=["round-limit", "round-limit-phase", "disconnected", "no-boundary", "geometry",
        "missing-file"])
def test_cli_failure_exit_codes(monkeypatch, tmp_path, capsys, exc, code, prefix):
    def fail(config, trace_stream=None):
        raise exc

    monkeypatch.setattr(cli, "run_pipeline", fail)
    assert cli.main(["run", "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert err == f"{prefix}{exc}\n"
    if getattr(exc, "phase", None):
        assert err.startswith(f"{prefix}no quiescence in phase {exc.phase} after 7 rounds")


@pytest.mark.parametrize("module, name, phase", [pytest.param(*c, id=f"{c[1]}-{c[2]}") for c in (
    (convergetree, "build_tree", "tree"),
    (convergetree, "aggregate", "agg_delta"),
    (convergetree, "broadcast_down", "flood_delta"),
    # classify takes no round limit and passes none to its driver, and it
    # runs first of boundary's protocols: the driver gets the limit
    (boundary, "run_protocol", "classify"),
    (boundary, "form_components", "components"),
    (boundary, "distance_flood", "distance_flood"),
    (boundary, "run_token_loops", "token_loops"))])
def test_round_limit_names_its_phase(monkeypatch, tmp_path, capsys, module, name, phase):
    # every protocol the pipeline calls, cut to one round (each needs two
    # or more): the pipeline names the first phase that runs it
    monkeypatch.setattr(module, name, functools.partial(getattr(module, name), max_rounds=1))
    path = small_region_file(tmp_path)
    argv = ["run", "--region", path, "--nodes", "600", "--seed", "9", "--alpha", "0.6",
            "--out", str(tmp_path / "o")]
    assert cli.main(argv) == cli.EXIT_PROTOCOL
    err = capsys.readouterr().err
    assert err.startswith(f"protocol error: no quiescence in phase {phase} after 1 rounds; ")


def region_json(polygons) -> str:
    return json.dumps({"curves": [{"type": "polygon", "vertices": v} for v in polygons]})


HOLE_NEAR_EDGE = region_json([[[0, 0], [30, 0], [30, 30], [0, 30]],
                              [[1.0, 10], [5, 10], [5, 14], [1.0, 14]]])


@pytest.mark.parametrize("text, names", [
    (HOLE_NEAR_EDGE, None),
    (region_json(CROSSING_REGIONS["plus-of-holes"]), None),
    (region_json(CROSSING_REGIONS["bar-across-notch"]), None),
    ('{"curves": [', "not a JSON document"),
    ("{}", "'curves'"),
    ('{"curves": 3}', "'curves'"),
    ("[1, 2]", "'curves'"),
    ('{"curves": [{"type": "circle", "center": [0, 0]}]}', "'radius'"),
    ('{"curves": [{"type": "circle", "center": [0, 0], "radius": "x"}]}', "'radius'"),
], ids=["hole-near-edge", "plus-of-holes", "bar-across-notch", "bad-json", "empty",
        "curves-not-list", "not-object", "circle-no-radius", "circle-radius-text"])
def test_cli_invalid_region(tmp_path, capsys, text, names):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["validate", "--region", str(path)]) == cli.EXIT_GEOMETRY
    err = capsys.readouterr().err
    assert err.startswith("geometry error: ")
    if names:  # content that is no region document: the file and the key
        assert f"{path}: " in err and names in err


def test_cli_oracle_roundtrip_and_mismatch(tmp_path):
    path = small_region_file(tmp_path)
    out = str(tmp_path / "o")
    args = ["--region", path, "--nodes", "800", "--seed", "6", "--alpha", "0.77",
            "--out", out]
    assert cli.main(["run"] + args) == 0
    assert cli.main(["oracle"] + args) == 0
    score = json.loads(pathlib.Path(out, "oracle_score.json").read_text())
    assert 0 <= score["recall"] <= 1
    assert score["band_area_table"]
    # different seed than the recorded provenance
    bad = ["--region", path, "--nodes", "800", "--seed", "7", "--alpha", "0.77",
           "--out", out]
    assert cli.main(["oracle"] + bad) == cli.EXIT_MISMATCH
    # a Voronoi tolerance or component floor the run was not made with
    assert cli.main(["oracle", "--voronoi-tol", "9"] + args) == cli.EXIT_MISMATCH
    assert cli.main(["oracle", "--min-comp", "3"] + args) == cli.EXIT_MISMATCH


def test_oracle_skips_the_token_phase_and_scores_the_same(tmp_path, monkeypatch):
    # the score reads no loop, so the oracle's rerun leaves the token phase
    # out and writes the bytes the whole pipeline's score gives
    path = small_region_file(tmp_path)
    out = tmp_path / "o"
    args = ["--region", path, "--nodes", "800", "--seed", "6", "--alpha", "0.77",
            "--out", str(out)]
    assert cli.main(["run"] + args) == 0
    run, configs = cli.run_pipeline, []
    monkeypatch.setattr(cli, "run_pipeline", lambda config: configs.append(config) or run(config))
    assert cli.main(["oracle"] + args) == 0
    assert [c.token_loops for c in configs] == [False]
    whole = cli.score_run(run(dataclasses.replace(configs[0], token_loops=True)))
    assert (out / "oracle_score.json").read_text(encoding="utf-8") == \
        json.dumps(whole, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("text, names", [
    ("{", "not a JSON document"),
    ("[1]", "'config'"),
    ('{"config": 3}', "'config'"),
], ids=["bad-json", "not-object", "config-not-object"])
def test_cli_oracle_malformed_summary(tmp_path, capsys, text, names):
    (tmp_path / "summary.json").write_text(text, encoding="utf-8")
    argv = ["oracle", "--region", "annulus", "--nodes", "500", "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_MISMATCH
    err = capsys.readouterr().err
    assert err.startswith(f"mismatched run: {tmp_path / 'summary.json'}: ") and names in err


def test_check_provenance():
    # every field that changes what score_run scores must match the run's
    summary = {"config": RunConfig(n=100, seed=1).to_dict()}
    cli.check_provenance(summary, RunConfig(n=100, seed=1))
    for key, value in (("n", 200), ("tolerance_hops", 9), ("min_component_size", 3)):
        with pytest.raises(MismatchedRun, match=f"^run was produced with {key}="):
            cli.check_provenance(summary, dataclasses.replace(RunConfig(n=100, seed=1),
                                                              **{key: value}))


def test_trace_flag_writes_costs(tmp_path):
    path = small_region_file(tmp_path)
    out = str(tmp_path / "t")
    rc = cli.main(["run", "--region", path, "--nodes", "600", "--seed", "9",
                   "--alpha", "0.6", "--out", out, "--trace"])
    assert rc == 0
    cost = pathlib.Path(out, "cost.csv").read_text().splitlines()
    assert cost[0] == "phase,broadcasts,id_units,rounds"
    phases = [line.split(",")[0] for line in cost[1:]]
    assert "tree" in phases and "distance_flood" in phases
    trace = pathlib.Path(out, "trace.csv").read_text().splitlines()
    assert trace[0] == "phase,round,node,kind,size_units"
    total = sum(int(line.split(",")[1]) for line in cost[1:])
    assert len(trace) - 1 == total  # one line per charged broadcast


def test_timing_rows_line_up_with_cost(tmp_path):
    path = small_region_file(tmp_path)
    buf = io.StringIO()
    r = cli.run_pipeline(RunConfig(region=path, n=600, seed=9, alpha=0.6), buf)
    cli.write_reports(r, str(tmp_path))
    cost = (tmp_path / "cost.csv").read_text().splitlines()[1:]
    timing = json.loads((tmp_path / "timing.json").read_text())
    assert [f"{t['phase']},{t['broadcasts']},{t['id_units']},{t['rounds']}"
            for t in timing["phases"]] == cost
    assert len(cost) == 10  # both component runs, token loops included
    assert 0 < sum(t["seconds"] for t in timing["phases"]) <= timing["wall_seconds"]
    assert_timing_steps(timing)
    # the trace runs phase by phase and names each line's phase: a phase's
    # lines are its broadcasts, their units add up to its id-units, and they
    # reach their senders' degrees in nodes
    deg = r.g.degrees()
    lines = [line.split(",") for line in buf.getvalue().splitlines()]
    phases = list(dict.fromkeys(t["phase"] for t in timing["phases"]))
    assert [name for name, _ in itertools.groupby(f[0] for f in lines)] == phases
    for name in phases:
        rows = [t for t in timing["phases"] if t["phase"] == name]
        senders = [int(f[2]) for f in lines if f[0] == name]
        assert len(senders) == sum(t["broadcasts"] for t in rows), name
        assert sum(int(f[4]) for f in lines if f[0] == name) == \
            sum(t["id_units"] for t in rows), name
        assert sum(t["deliveries"] for t in rows) == int(deg[senders].sum()), name


def assert_timing_steps(timing, swept=(), started=False):
    """timing.json's host-step rows, and the peak RSS on every row.  A run
    of `swarmtopo run` (`started`) opens with its start-up row, the time
    from the package's import to `cli.main`, outside `wall_seconds`."""
    phases, steps = timing["phases"], timing["steps"]
    if started:
        assert steps[0]["step"] == "import" and steps[0]["seconds"] > 0
        assert 0 < steps[0]["rss_mb"] <= steps[1]["rss_mb"]
        steps = steps[1:]
    assert [t["step"] for t in steps] == ["sample", "build_udg", "check_tree", *swept,
                                          "write_reports"]
    assert all(t["seconds"] >= 0 for t in steps)
    assert sum(t["seconds"] for t in phases + steps[:-1]) <= timing["wall_seconds"]
    # the peak RSS after each row only grows: the graph is built before
    # the tree phase, and the tree checked after it
    rss = [t["rss_mb"] for t in phases]
    assert 0 < steps[0]["rss_mb"] <= steps[1]["rss_mb"] <= rss[0] <= steps[2]["rss_mb"]
    assert steps[2]["rss_mb"] <= rss[1] and rss == sorted(rss)
    assert [t["rss_mb"] for t in steps] == sorted(t["rss_mb"] for t in steps)
    assert steps[-1]["rss_mb"] >= rss[-1]


def test_timing_steps_name_the_alpha_sweep(tmp_path):
    r = cli.run_pipeline(RunConfig(region=small_region_file(tmp_path), n=600, seed=9,
                                   alpha="sweep"))
    cli.write_reports(r, str(tmp_path))
    timing = json.loads((tmp_path / "timing.json").read_text())
    assert len(timing["phases"]) == len(r.costs)  # cost.csv gets no host rows
    assert_timing_steps(timing, ["alpha_sweep"])


def test_tree_row_books_the_tree_check(tmp_path, monkeypatch):
    # the check that makes a TreeBuild is part of the tree phase, so the
    # tree row's seconds count it with the kernel's run
    has_edges = convergetree.has_edges

    def slow_has_edges(*args):
        time.sleep(0.05)
        return has_edges(*args)

    monkeypatch.setattr(convergetree, "has_edges", slow_has_edges)
    r = cli.run_pipeline(RunConfig(region=small_region_file(tmp_path), n=600, seed=9, alpha=0.6))
    [tree] = [c for c in r.costs if c.phase == "tree"]
    assert tree.seconds >= 0.05


@pytest.mark.slow
def test_paper_repro_smoke(tmp_path, capsys):
    # one seed, loops off: exercises the reporting path end to end
    rc = cli.main(["paper-repro", "--seeds", "1", "--no-loops",
                   "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "paper_repro.json").read_text())
    assert report["mu_analytic"] == pytest.approx(179.65, abs=0.01)
    run = report["runs"][0]
    assert run["components"] == 4
    assert run["mu_rel_err"] <= 0.03
    assert 1.2 <= run["delta_over_mu"] <= 1.5
    out = capsys.readouterr().out
    assert "mu_analytic = 179.65" in out
