"""The whole pipeline against its centralized twin, on drawn regions.

Each protocol has a twin checked on its own; here the twins are composed
into the pipeline the CLI runs (histogram -> mu_est -> threshold ->
classes -> components -> distance field -> Voronoi -> outer -> thickness)
and their reports are compared byte for byte with the distributed run's.
"""

import json
import math

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from swarmtopo import boundary, cli, geometry, netgraph, topo
from swarmtopo.boundary import NodeClass
from conftest import star_polygon

# the typed errors a run of a valid region can stop with before its reports
RUN_ERRORS = (cli.GraphDisconnected, cli.NoBoundaryComponent, boundary.DegenerateHistogram)
TWIN_FILES = (("classification.csv", cli.write_classification_csv),
              ("sweep.csv", cli.write_sweep_csv),
              ("summary.json", cli.write_summary_json))


def twin_pipeline(config: cli.RunConfig, loops: dict) -> cli.PipelineResult:
    """`cli.run_pipeline` with every protocol replaced by its centralized
    twin.  The alpha sweep is host code in both; the token loops, which
    have no twin yet, are the distributed run's `loops`."""
    region = cli.resolve_region(config.region)
    feature = geometry.validate_region(region)
    mu_an = cli.mu_analytic_value(config.n, feature.area)
    pts = geometry.sample_uniform(region, config.n, config.seed)
    ids = Generator(Philox([config.seed, 1])).permutation(config.n) + 1
    g = netgraph.build_udg((ids, pts), R=1.0)
    if not netgraph.is_connected(g):
        raise cli.GraphDisconnected(g.n, netgraph.component_count(g))
    deg = g.degrees()
    warnings = []
    if config.n < 100 or deg[g.ids].mean() < 100:
        warnings.append(f"density warning: mean degree {deg[g.ids].mean():.1f} (paper "
                        f"assumes every node reaches at least 100 others)")
    density = boundary.estimate_mu(netgraph.histogram(g, config.bin_count))
    sweep = None
    alpha_star = config.alpha
    if config.alpha == "sweep":
        sweep = boundary.alpha_sweep(g, density.mu_est,
                                     min_component_size=config.min_component_size)
        alpha_star = sweep.alpha_star
        if alpha_star is None:
            warnings.append("alpha sweep found no plateau; using default alpha")
            alpha_star = boundary.default_alpha()
    thr = boundary.threshold_units(alpha_star, density.mu_est)
    classes = boundary.central_classify(g, thr)
    member = classes == int(NodeClass.BOUNDARY)
    if not member.any():
        raise cli.NoBoundaryComponent(thr, int(deg[g.ids].min()))
    comps = boundary.central_components(g, member)
    dist = boundary.central_distance_field(g, comps, density.mu_est)
    warnings += [f"token loop failed for component {c.component_id}"
                 for c in comps if config.token_loops and c.component_id not in loops]
    sizeable = [c for c in comps if c.size >= config.min_component_size]
    return cli.PipelineResult(
        config=config, region=region, feature=feature, g=g, mu_analytic=mu_an,
        density=density, alpha_star=alpha_star, sweep=sweep, threshold=thr,
        classes=classes, comps=boundary.ComponentsResult(comps, None, []), dist=dist,
        voronoi=boundary.detect_voronoi(dist, config.tolerance_hops), loops=loops,
        outer_id=topo.classify_outer(sizeable or comps),
        thick=topo.thickness(classes, dist, deg, density.mu_est, g.id_list),
        warnings=warnings)


def outcome(run, out_dir) -> dict | tuple:
    """The run's three twin-checked reports as bytes, or its typed error."""
    try:
        r = run()
    except RUN_ERRORS as exc:
        return type(exc), str(exc)
    out_dir.mkdir()
    files = {}
    for name, write in TWIN_FILES:
        write(r, str(out_dir / name))
        files[name] = (out_dir / name).read_bytes()
    return files


def _boundary_distance(vertices) -> float:
    """The distance from the origin to the polygon's boundary."""
    a, b = vertices, np.roll(vertices, -1, axis=0)
    d = b - a
    t = np.clip(-(a * d).sum(axis=1) / (d * d).sum(axis=1), 0.0, 1.0)
    return float(np.hypot(*(a + t[:, None] * d).T).min())


@st.composite
def deployments(draw, tmp_path):
    """A star-polygon region, perhaps with a circular hole about the origin,
    scaled to a drawn mean degree, written to `tmp_path`, and a config."""
    n = draw(st.integers(300, 3000))
    poly = star_polygon(draw(st.integers(1, 200)))
    hole = draw(st.booleans())
    # mean degree about n * pi / area: scale the polygon's area to it
    x, y = poly.vertices.T
    area = abs(x @ np.roll(y, -1) - y @ np.roll(x, -1)) / 2
    vertices = poly.vertices * math.sqrt(n * math.pi / draw(st.floats(8.0, 40.0)) / area)
    curves = [{"type": "polygon", "vertices": vertices.tolist()}]
    if hole:
        curves.append({"type": "circle", "center": [0.0, 0.0],
                       "radius": _boundary_distance(vertices) / 3})
    path = tmp_path / "region.json"
    path.write_text(json.dumps({"radius_unit": 1.0, "curves": curves}), encoding="utf-8")
    try:
        geometry.validate_region(cli.resolve_region(str(path)))
    except geometry.GeometryError:
        assume(False)
    return cli.RunConfig(region=str(path), n=n, seed=draw(st.integers(1, 10**6)),
                         alpha=draw(st.sampled_from(["sweep", "sweep", 0.6, 0.77, 0.05])),
                         token_loops=draw(st.booleans()))


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.filter_too_much])
@given(data=st.data())
def test_pipeline_equals_its_twin(tmp_path_factory, data):
    tmp_path = tmp_path_factory.mktemp("twin")
    config = data.draw(deployments(tmp_path))
    loops = {}

    def distributed():
        r = cli.run_pipeline(config)
        loops.update(r.loops)
        return r

    got = outcome(distributed, tmp_path / "run")
    want = outcome(lambda: twin_pipeline(config, loops), tmp_path / "twin")
    assert got == want
