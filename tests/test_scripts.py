"""The scripts README documents run, small, and report as documented."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120)


def test_spectrum_demo(tmp_path):
    done = run_script("spectrum_demo.py", "--t-max", "40", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    last = done.stdout.splitlines()[-1]
    assert last.startswith("worst offset ") and last.endswith(" (OK)")


def test_two_spin_benchmark_prints_its_table(tmp_path):
    out = tmp_path / "out"
    done = run_script("two_spin_benchmark.py", "--m", "40", "--out", str(out),
                      cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    head = lines.index(f"{'t':>6} {'trace_dist':>11} {'5*SE':>9} "
                       f"{'fidelity':>9}")
    # t = 0, 0.05, ..., 0.5: the shipped config's records
    assert len(lines[head + 1:lines.index("", head)]) == 11
    assert (out / "compare.csv").is_file()


def test_two_spin_benchmark_reports_a_config_error(tmp_path):
    # two recorded times are too few for recovery: the CLI's one error
    # line and exit code, no traceback
    done = run_script("two_spin_benchmark.py", "--m", "40", "--t-final",
                      "0.05", "--out", str(tmp_path / "out"), cwd=tmp_path)
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        "error: recovery.enabled: recovery needs at least 3 recorded times, "
        "got 2"]
