"""One short traced benchmark run of newton_solve.

A traced run wraps the package's functions by name and derives its
per-layer metrics from their spans, so a change that stops calling one
of them (say, a _Point.F that never calls scalarize) can end the run
with an exception and a non-zero exit; this catches that in the test
suite rather than in the benchmark.  About 4 s.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_newton_solve_run_exits_clean():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "newton_solve",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0)
