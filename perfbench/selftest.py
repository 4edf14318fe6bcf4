#!/usr/bin/env python3
"""Fast self-test of the benchmark harness (about 15 s).

    python3 perfbench/selftest.py

Runs a small annulus deployment, with the alpha sweep and token loops on,
through the same measuring and checking code as the benchmark, traced and
untraced.  Then it corrupts one report file and one captured count and
expects the checks to catch both.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import os
import shutil

import run
import verify
from workloads import Workload


def expect(ok, what) -> None:
    if not ok:
        raise SystemExit(f"selftest failed: {what}")

# an annulus of outer radius 4.5R and hole radius 1.5R; analytic
# neighbourhood size 117, about the paper's density
SMALL = Workload(name="selftest", n=2100, alpha="sweep", token_loops=True,
                 region={"radius_unit": 1.0, "curves": [
                     {"type": "circle", "center": [0.0, 0.0], "radius": 4.5},
                     {"type": "circle", "center": [0.0, 0.0], "radius": 1.5}]})


def main() -> int:
    os.chdir(run.ROOT)
    sw = run.Program()
    work = str(run.RESULTS / "selftest")
    shutil.rmtree(work, ignore_errors=True)
    plain = run.measure(sw, SMALL, seed=1, seconds=0, trace=False, work_dir=work)
    traced = run.measure(sw, SMALL, seed=1, seconds=0, trace=True, work_dir=work)
    for res in (plain, traced):
        expect(res["correct"], res["check_failures"])
        expect(res["attempted"] > 0 and res["failed"] == 0, (res["attempted"], res["failed"]))
    want_e2e = {"run_s", "setup_s", "peak_rss_mb", "sim_rounds", "sim_broadcasts",
                "sim_id_units", "sim_deliveries"}
    expect(set(plain["metrics"]) == want_e2e, sorted(plain["metrics"]))
    phases = [k.removesuffix(".rounds") for k in traced["metrics"] if k.endswith(".rounds")]
    expect("token_loops" in phases and "components.org" in phases, phases)
    for metric in ("simkernel.handler_s", "simkernel.dispatch_s", "trace.overhead_s",
                   "netgraph.build_udg.s", "cli.write_reports.s"):
        expect(metric in traced["metrics"], metric)
    expect(plain["digests"] == traced["digests"], "traced and untraced reports differ")
    e2e = plain["metrics"]
    for field in ("rounds", "id_units", "deliveries"):
        total = sum(traced["metrics"][f"{p}.{field}"]["value"] for p in phases)
        expect(total == e2e[f"sim_{field}"]["value"], field)

    # the checks must notice a wrong class in classification.csv
    r, rep, report_dir = rerun(sw)
    path = os.path.join(report_dir, "classification.csv")
    lines = open(path, encoding="utf-8").read().splitlines(keepends=True)
    row = lines[1].split(",")
    row[1] = "INTERIOR" if row[1] != "INTERIOR" else "BOUNDARY"
    lines[1] = ",".join(row)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    caught = verify.check(sw, r, rep.phases, report_dir).failures
    expect(any("classes" in f for f in caught), caught)

    # ... and a histogram that is not the degree census
    r, rep, report_dir = rerun(sw)
    hist = list(rep.phases["agg_histogram"].kept)
    hist[0] += 1
    rep.phases["agg_histogram"].kept = tuple(hist)
    caught = verify.check(sw, r, rep.phases, report_dir).failures
    expect(caught == ["merged histogram differs from the degree census"], caught)
    print("selftest ok:", plain["attempted"], "operations per run,",
          plain["metrics"]["run_s"]["value"], "s")
    return 0


def rerun(sw):
    work = str(run.RESULTS / "selftest" / "mutated")
    os.makedirs(work, exist_ok=True)
    config = SMALL.configs(sw.cli, 1, os.path.relpath(run.RESULTS, run.ROOT))[0]
    report_dir = os.path.join(work, "reports")
    rep, r = run.run_once(sw, config, report_dir, timed=False)
    return r, rep, report_dir


if __name__ == "__main__":
    raise SystemExit(main())
