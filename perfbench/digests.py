#!/usr/bin/env python3
"""Regenerate the reference digests of the report files in README.md.

    python3 perfbench/digests.py

Runs every workload once on each README seed through the benchmark's
measuring and checking code and rewrites the digests block of README.md.
Run it when a change deliberately alters a protocol's output, and say so
in CHANGES.md.
"""

from __future__ import annotations

import json
import os

import run
from workloads import WORKLOADS

SEEDS = (1, 2, 3)


def main() -> int:
    os.chdir(run.ROOT)
    sw = run.Program()
    table = {}
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            work = str(run.RESULTS / name / f"seed-{seed}-digests")
            res = run.measure(sw, workload, seed, seconds=0, trace=False, work_dir=work)
            if not res["correct"]:
                raise SystemExit(f"{name} seed {seed}: checks failed: {res['check_failures']}")
            table.setdefault(name, {}).update(res["digests"])  # by deployment seed
            print(f"{name} seed {seed}: deployments {res['deployment_seeds']}")
    text = run.README.read_text(encoding="utf-8")
    head, rest = text.split(run.DIGESTS_BEGIN, 1)
    tail = rest.split(run.DIGESTS_END, 1)[1]
    block = "```json\n" + json.dumps(table, indent=1, sort_keys=True) + "\n```"
    tmp = run.README.with_suffix(".tmp")
    tmp.write_text(f"{head}{run.DIGESTS_BEGIN}\n{block}\n{run.DIGESTS_END}{tail}", encoding="utf-8")
    os.replace(tmp, run.README)
    print(f"wrote {run.README}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
