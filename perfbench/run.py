#!/usr/bin/env python3
"""Layer-by-layer benchmark of the swarmtopo pipeline.

    python3 perfbench/run.py --workload annulus-13k --seed 1 --seconds 10 --trace 0

A run builds the workload's inputs from --seed and repeats whole pipeline
runs (cli.run_pipeline, then cli.write_reports: the `swarmtopo run` path)
until --seconds have passed, at least once.  Outside the timed part it
times the set-up alone, checks every output against the benchmark's own
computations (verify.py) and compares the report digests with the
reference digests in README.md.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
pipeline runs are traced (spans.py), the first deployment also runs
untraced, and the metrics are the per-layer ones plus the tracing
overhead.  Everything a run writes goes under perfbench/results/.
"""

from __future__ import annotations

import os

# one process, no extra threads: numerical libraries read these at import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import importlib
import json
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans
import verify
from spans import clock, peak_rss_mb
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
README = HERE / "README.md"

MODULES = ("geometry", "netgraph", "simkernel", "convergetree", "boundary", "topo", "cli")
REPORTS = ("classification.csv", "sweep.csv", "cost.csv", "summary.json")
SETUP_REPEATS = 5
DIGESTS_BEGIN, DIGESTS_END = "<!-- digests:begin -->", "<!-- digests:end -->"

# per-layer metrics of every executor run, named as the rows of cost.csv
# with the two components runs split into their flood and organisation
PHASE_METRICS = (("s", "s"), ("rounds", "rounds"), ("broadcasts", "messages"),
                 ("id_units", "id-units"), ("deliveries", "deliveries"), ("rss_mb", "MB"))
LAYER_SPANS = ("geometry.validate_region", "geometry.sample_uniform", "netgraph.build_udg",
               "netgraph.is_connected", "convergetree.check_tree", "topo.thickness",
               "cli.write_reports")


class Program:
    """swarmtopo imported from this checkout's src/ and nowhere else."""

    def __init__(self):
        if not (SRC / "swarmtopo" / "__init__.py").is_file():
            raise SystemExit(f"perfbench: no swarmtopo sources under {SRC}")
        sys.path.insert(0, str(SRC))
        self.modules = {m: importlib.import_module(f"swarmtopo.{m}") for m in MODULES}
        where = Path(self.modules["cli"].__file__).resolve().parent.parent
        if where != SRC.resolve():
            raise SystemExit(f"perfbench: swarmtopo was imported from {where}, not {SRC}")

    def __getattr__(self, name):
        try:
            return self.modules[name]
        except KeyError:
            raise AttributeError(name) from None


@dataclass
class Rep:
    """One pipeline run of one deployment."""
    seconds: float
    phases: dict
    digests: dict
    edges: int
    recorder: spans.Recorder


def name_phases(runs: list, costs: list) -> dict:
    if [r.rounds for r in runs] != [c.rounds for c in costs]:
        raise RuntimeError("captured executor runs do not line up with the cost rows")
    parts = iter(("components.flood", "components.org"))
    return {(next(parts) if c.phase == "components" else c.phase): run
            for run, c in zip(runs, costs)}


def digests(report_dir: str) -> dict:
    out = {}
    for name in REPORTS:
        with open(os.path.join(report_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_once(sw: Program, config, report_dir: str, timed: bool):
    rec = spans.Recorder(sw.modules, timed)
    with rec.installed():
        t0 = clock()
        r = sw.cli.run_pipeline(config)
        sw.cli.write_reports(r, report_dir)
        seconds = clock() - t0
    rep = Rep(seconds, name_phases(rec.runs, r.costs), digests(report_dir),
              r.g.edge_count(), rec)
    return rep, r


def in_child(fn, *args):
    """fn(*args) in a forked child, so that the checks' allocations stay
    out of this process's peak RSS, which is one of the metrics."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(rfd)
            try:
                payload = {"result": fn(*args)}
            except Exception:
                payload = {"error": traceback.format_exc()}
            with os.fdopen(wfd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
        finally:
            os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd, encoding="utf-8") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    out = json.loads(data) if data else {"error": f"exit status {status}"}
    if "error" in out:
        raise RuntimeError(f"output checks did not finish:\n{out['error']}")
    return out["result"]


def check_deployment(sw: Program, r, phases: dict, report_dir: str) -> dict:
    checker = verify.check(sw, r, phases, report_dir)
    return {"checks": checker.checks, "failures": checker.failures,
            "loops": (len(r.comps.components), len(r.loops)),
            "quality": verify.quality(sw, r)}


def phase_seconds(rep: Rep, name: str) -> float:
    rec = rep.recorder
    idx = rep.phases[name].span
    if name.startswith("components."):
        flood = rec.children(idx)[0].seconds
        return flood if name == "components.flood" else rec.spans[idx].seconds - flood
    return rec.spans[idx].seconds


def phase_rss(rep: Rep, name: str) -> float:
    rec = rep.recorder
    idx = rep.phases[name].span
    if name == "components.flood":
        return rec.children(idx)[0].rss_mb
    return rec.spans[idx].rss_mb


def over_passes(passes: list, f) -> float:
    """Median over the passes of f summed over the pass's deployments."""
    return statistics.median(sum(f(rep) for rep in p) for p in passes)


def end_to_end(plain: list, setup: list, peak: float) -> dict:
    phases = [p for rep in plain[0] for p in rep.phases.values()]
    return {
        "run_s": (over_passes(plain, lambda rep: rep.seconds), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak, "MB"),
        "sim_rounds": (sum(p.rounds for p in phases), "rounds"),
        "sim_broadcasts": (sum(p.broadcasts for p in phases), "messages"),
        "sim_id_units": (sum(p.id_units for p in phases), "id-units"),
        "sim_deliveries": (sum(p.deliveries for p in phases), "deliveries"),
    }


def per_layer(traced: list, plain: list) -> dict:
    first = traced[0]
    out = {}
    for name in first[0].phases:
        out[f"{name}.s"] = (over_passes(traced, lambda rep: phase_seconds(rep, name)), "s")
        for field, unit in PHASE_METRICS[1:-1]:
            out[f"{name}.{field}"] = (sum(getattr(rep.phases[name], field) for rep in first), unit)
        out[f"{name}.rss_mb"] = (phase_rss(first[0], name), "MB")
    for span in LAYER_SPANS:
        out[f"{span}.s"] = (over_passes(traced, lambda rep: rep.recorder.total(span)), "s")
    out["netgraph.edges"] = (sum(rep.edges for rep in first), "count")
    executor = over_passes(traced, lambda rep: rep.recorder.total(spans.EXECUTOR_SPAN))
    out["simkernel.handler_s"] = (over_passes(traced, lambda rep: rep.recorder.handler_s), "s")
    out["simkernel.dispatch_s"] = (over_passes(
        traced, lambda rep: rep.recorder.total(spans.EXECUTOR_SPAN) - rep.recorder.handler_s), "s")
    out["simkernel.handler_calls"] = (sum(rep.recorder.handler_calls for rep in first), "count")
    deliveries = sum(p.deliveries for rep in first for p in rep.phases.values())
    out["simkernel.deliveries_per_s"] = (deliveries / executor, "1/s")
    out["trace.overhead_s"] = (statistics.median(
        tr[0].seconds - pl[0].seconds for tr, pl in zip(traced, plain)), "s")
    return out


def reference_digests() -> dict:
    text = README.read_text(encoding="utf-8")
    if DIGESTS_BEGIN not in text:
        return {}
    block = text.split(DIGESTS_BEGIN, 1)[1].split(DIGESTS_END, 1)[0]
    return json.loads(block.strip().removeprefix("```json").removesuffix("```"))


def measure(sw: Program, workload, seed: int, seconds: float, trace: bool,
            work_dir: str) -> dict:
    """One benchmark run; returns the result record (see main).

    A pass runs every deployment of the workload once; with --trace 1 the
    runs are traced and the first deployment also runs untraced, which
    gives the tracing overhead.  Passes repeat until `seconds` have passed.
    Each deployment's outputs are checked after its first run.
    """
    configs = workload.configs(sw.cli, seed, os.path.relpath(RESULTS, ROOT))
    dirs = [os.path.join(work_dir, f"deployment-{c.seed}") for c in configs]
    traced: list[list[Rep]] = []
    plain: list[list[Rep]] = []
    outcomes = []
    start = clock()
    while True:
        this_pass = {True: [], False: []}
        for i, (config, report_dir) in enumerate(zip(configs, dirs)):
            # traced runs get one untraced twin, of the first deployment
            for timed in ((True, False) if i == 0 else (True,)) if trace else (False,):
                r = None  # free the previous pipeline before the next starts
                rep, r = run_once(sw, config, report_dir, timed)
                this_pass[timed].append(rep)
                if len(outcomes) == i:  # check each deployment's first run
                    outcomes.append(in_child(check_deployment, sw, r, rep.phases, report_dir))
                for p in rep.phases.values():
                    p.kept = None
            r = None
        traced += [this_pass[True]] if trace else []
        plain.append(this_pass[False])
        if clock() - start >= seconds:
            break
    peak = peak_rss_mb()
    setup = [spans.setup_seconds(sw.modules, configs[i % len(configs)])
             for i in range(SETUP_REPEATS)]

    failures = [f for o in outcomes for f in o["failures"]]
    for i, config in enumerate(configs):
        reps = [p[i] for p in traced + plain if i < len(p)]
        counts = [[(p.rounds, p.broadcasts, p.id_units, p.deliveries)
                   for p in rep.phases.values()] for rep in reps]
        if any(c != counts[0] for c in counts):
            failures.append(f"seed {config.seed}: protocol counts differ between repetitions")
        if any(rep.digests != reps[0].digests for rep in reps):
            failures.append(f"seed {config.seed}: report files differ between repetitions")

    first = traced[0] if trace else plain[0]
    found = {str(c.seed): rep.digests for c, rep in zip(configs, first)}
    ref = reference_digests().get(workload.name, {})
    known = [s for s in found if s in ref]
    ops = sum(len(rep.phases) for rep in first)
    failed = 0
    if workload.token_loops:  # one operation per component loop; a missing loop failed
        loops = [o["loops"] for o in outcomes]
        ops += sum(want for want, _ in loops)
        failed = sum(want - got for want, got in loops)
    passes = len(plain)
    metrics = per_layer(traced, plain) if trace else end_to_end(plain, setup, peak)
    if trace:
        with open(os.path.join(work_dir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump([rep.recorder.dump() for rep in traced[0]], fh, indent=1)
    return {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "deployment_seeds": [c.seed for c in configs],
        "passes": len(plain),
        "correct": not failures, "checks": sum(o["checks"] for o in outcomes),
        "check_failures": failures,
        "attempted": ops * passes, "failed": failed * passes,
        "digests": found,
        "digests_match": all(ref[s] == found[s] for s in known) if known else None,
        "quality": [o["quality"] for o in outcomes],
        "setup_samples_s": setup,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.chdir(ROOT)  # region paths in summary.json are relative to the checkout
    sw = Program()
    work_dir = RESULTS / args.workload / f"seed-{args.seed}-trace-{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    res = measure(sw, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                  str(work_dir))
    with open(work_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)

    print(f"{res['workload']} seed {res['seed']}: deployments {res['deployment_seeds']},"
          f" {res['passes']} passes, trace {res['trace']}, {res['checks']} checks,"
          f" {len(res['check_failures'])} failed")
    for f in res["check_failures"]:
        print(f"  CHECK FAILED: {f}")
    match = res["digests_match"]
    print("digests:", "no reference for these seeds" if match is None
          else "match the README" if match else "DIFFER from the README (not counted as failed)")
    for q in res["quality"]:
        print(f"quality (not gated), seed {q['seed']}: {q['component_count']} components for"
              f" {q['region_curves']} curves, outer correct {q['outer_correct']},"
              f" precision {q['precision']:.3f}, recall {q['recall']:.3f}")
    for name, m in res["metrics"].items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
