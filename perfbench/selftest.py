#!/usr/bin/env python3
"""Self-test of the benchmark harness; it measures nothing.

    python3 perfbench/selftest.py

Checks, at a few trajectories per block (``run.py --tiny``):

1. every workload, untraced and traced, emits exactly the end-to-end and
   per-layer metrics named in BENCHMARK.json, each with its unit, and
   passes the correctness gate;
2. the gate trips on a deliberately corrupted ``observables.csv``;
3. in a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class SelfTestError(AssertionError):
    pass


def require(ok, message):
    if not ok:
        raise SelfTestError(message)


def bench(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "1"]
        + args, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_metrics(spec, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        out = bench(["--workload", workload, "--trace", str(trace), "--tiny"],
                    ROOT)
        require(out.returncode == 0,
                f"{workload} trace {trace}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        require(set(result) == RESULT_KEYS, f"result keys {sorted(result)}")
        require(result["correct"] and result["failed"] == 0
                and result["attempted"] >= 1,
                f"{workload} trace {trace}: {result}\n{out.stderr}")
        expected = {m["name"]: m["unit"] for m in spec[section]}
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        require(emitted == expected,
                f"{workload} trace {trace}: emitted {emitted}, "
                f"BENCHMARK.json names {expected}")
        print(f"ok  {workload} --trace {trace}: {len(emitted)} metrics")


def check_gate_trips():
    sys.path.insert(0, str(ROOT / "src"))
    from run import Bench
    from workloads import WORKLOADS

    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        b = Bench(WORKLOADS["two_spin_ship"], 1, tmp, tiny=True)
        require(not b.run().problems, "the clean tiny run fails the gate")
        path = b.out / "observables.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        fields = lines[-1].split(",")
        fields[1] = repr(float(fields[1]) + 0.5)
        lines[-1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        problems = b.gate.check(0, b.out)
        require(any("from the oracle" in p for p in problems),
                f"corrupted observables.csv passed the gate: {problems}")
    print("ok  gate trips on a corrupted observables.csv")


def check_bare_directory():
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = bench(["--workload", "spins8", "--trace", "0"], tmp)
        require(out.returncode != 0 and not out.stdout.strip(),
                f"bare directory: exit {out.returncode}, stdout {out.stdout!r}")
    print("ok  exits non-zero without sources")


def main():
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in WORKLOADS:
        check_metrics(spec, name)
    check_gate_trips()
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
