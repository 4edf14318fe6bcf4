"""The benchmark harness against the current sources.

`perfbench/selftest.py` runs a small annulus, with the alpha sweep and
token loops, through the benchmark's own wrappers and checks, traced and
untraced.  Those wrappers reach into the program (the `run_protocol`
child span of `form_components`, `TreeBuild.states`, the `NodeProto`
handlers), so a source change that breaks them fails here.  The harness
writes only under the git-ignored `perfbench/results/`."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "selftest ok:" in done.stdout, done.stdout[-2000:]
