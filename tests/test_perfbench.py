"""The benchmark's traced path, run small: what the per-layer record
needs from the package keeps working."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_benchmark_run_passes_its_gate():
    # perfbench/run.py exits nonzero when a workload misses one of its
    # expected spans, when a span other than on_record or the noise draw
    # sits inside propagate_block, or when its spans do not add up; the
    # last line reports the correctness gate of both runs it makes
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "mixed_compare", "--seed", "1", "--seconds", "0.1",
         "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] == 2
    assert last["metrics"]["propagator.records"]["value"] == 501
