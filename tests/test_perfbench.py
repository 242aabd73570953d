"""The benchmark's traced path, run small: what the per-layer record
needs from the package keeps working, and every workload passes its
correctness gate."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from snbd.ensemble import _usable_cpus

ROOT = Path(__file__).resolve().parent.parent

# each serial tiny config is one run of 4 blocks, whose halves two usable
# CPUs step in two processes, each counting every record
HALVES = 2 if hasattr(os, "fork") and _usable_cpus() >= 2 else 1


@pytest.mark.parametrize("workload, records, traj_steps", [
    ("two_spin_ship", 11 * HALVES, 40_000), ("spins8", 22, 8_000),
    ("mixed_compare", 501 * HALVES, 40_000)],
    ids=["two_spin_ship", "spins8", "mixed_compare"])
def test_traced_benchmark_run_passes_its_gate(workload, records, traj_steps):
    # perfbench/run.py exits nonzero when a workload misses one of its
    # expected spans, when a span other than on_record or the noise draw
    # sits inside propagate_block, or when its spans do not add up; the
    # last line reports the correctness gate of both runs it makes
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0.1",
         "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] == 2
    assert last["metrics"]["propagator.records"]["value"] == records
    # the tiny M x 1000 steps, counted at the draw in every process that
    # steps: a pool worker or a serial run's sibling writes its spans file
    # when it exits
    assert last["metrics"]["propagator.traj_steps"]["value"] == traj_steps
    # perfbench reads the active fraction from the mask on_record is
    # handed at the last record; no trajectory of these runs is skipped
    assert last["metrics"]["ensemble.active_frac"]["value"] == 1.0
