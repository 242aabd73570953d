#!/usr/bin/env python3
"""Benchmark of the snbd CLI: trajectory-steps per second on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it uses the checkout's
``src/snbd``.  NAME is one of two_spin_ship, spins8, mixed_compare, or
``all`` to run the three in turn.  The seed picks each workload's
``master_seed``; the configs are generated into a temporary directory
under ``.bench_build/perfbench`` and the CLI receives only those.

With ``--trace 0`` every timed operation is one ``python -m snbd`` child
process, timed from spawn to exit, repeated until S seconds of them have
run (at least three).  Set-up time is the median of seven
``snbd validate`` children on the same config.  With ``--trace 1`` one
untraced and one traced child run; the traced one wraps the calls into
each snbd module from outside (see trace_child.py) and gives the
per-layer metrics.  Every child is checked by the correctness gate
(gate.py), outside its timing, and all runs of one seed must produce
byte-identical outputs.

Human-readable lines come first; the last line of standard output is one
JSON object with keys correct, attempted, failed and metrics.  A fuller
record, with the machine and environment, goes to
``.bench_build/perfbench/results-<workload>-seed<N>-trace<T>.json``.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

MIN_OPS = 3
SETUP_REPEATS = 7
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# ROADMAP's Baseline section: snbd run on the shipped config, 1 worker.
ROADMAP_WALL_S = {"two_spin_ship": 7.6}


@dataclass
class Op:
    """One CLI child process."""

    returncode: int
    wall_s: float
    peak_rss_mb: float
    problems: list


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)


def spawn(argv, cwd, log_path):
    """Run one child to exit: (exit code, wall seconds, peak RSS in MB).

    The peak RSS is the child's own rusage from wait4, which on Linux
    covers its reaped descendants (the pool workers) as a maximum.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # the child's session holds its pool workers too
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6


class Bench:
    """One workload at one seed, in its own temporary directory."""

    def __init__(self, workload, seed, tmp, tiny=False):
        from gate import Gate

        self.workload = workload
        self.tmp = Path(tmp)
        self.out = self.tmp / "out"
        self.config = self.tmp / f"{workload.name}.json"
        cfg = workload.build(seed, str(self.out), tiny)
        self.traj_steps = cfg["ensemble"]["M"] * workload.steps
        self.config.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
        self.gate = Gate(self.config)
        self.digests = None
        self.ops = []

    def cli_args(self, subcommand):
        return [subcommand, "--config", str(self.config), "--quiet"]

    def validate(self):
        """One `snbd validate` child; returns its wall seconds."""
        log = self.tmp / "validate.log"
        code, wall, _ = spawn(
            [sys.executable, "-m", "snbd"] + self.cli_args("validate"),
            self.tmp, log)
        if code != 0:
            raise SystemExit(f"snbd validate failed with exit code {code}:\n"
                             + log.read_text(errors="replace")[-2000:])
        return wall

    def run(self, trace_dir=None):
        """One gated CLI run of the workload, optionally traced."""
        from gate import file_digests, read_manifest

        shutil.rmtree(self.out, ignore_errors=True)
        args = self.cli_args(self.workload.subcommand)
        if trace_dir is None:
            argv = [sys.executable, "-m", "snbd"] + args
        else:
            argv = [sys.executable, str(HERE / "trace_child.py"),
                    str(trace_dir)] + args
        log = self.tmp / f"run{len(self.ops)}.log"
        code, wall, rss = spawn(argv, self.tmp, log)
        problems = self.gate.check(code, self.out)
        manifest = read_manifest(self.out)
        if manifest is not None:
            digests = file_digests(manifest)
            if self.digests is None:
                self.digests = digests
            elif digests != self.digests:
                problems.append("output sha256 differs from the first run")
        if problems:
            print(f"{self.workload.name}: run {len(self.ops)} failed: "
                  + "; ".join(problems), file=sys.stderr)
            print(log.read_text(errors="replace")[-2000:], file=sys.stderr)
        op = Op(code, wall, rss, problems)
        self.ops.append(op)
        return op


def measure(bench, seconds):
    """End-to-end metrics as {name: (value, unit)}."""
    bench.validate()  # untimed: fills the bytecode and file caches
    setup = [bench.validate() for _ in range(SETUP_REPEATS)]
    measured = 0.0
    while measured < seconds or len(bench.ops) < MIN_OPS:
        measured += bench.run().wall_s
    walls = [op.wall_s for op in bench.ops]
    return {
        "wall_s": (median(walls), "s"),
        "traj_steps_per_s": (
            median(bench.traj_steps / x for x in walls), "1/s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (median(op.peak_rss_mb for op in bench.ops), "MB"),
    }


def measure_layers(bench):
    """Per-layer metrics from one traced run, next to one untraced run."""
    from layers import layer_metrics

    bench.validate()
    plain = bench.run()
    trace_dir = bench.tmp / "trace"
    trace_dir.mkdir()
    traced = bench.run(trace_dir)
    metrics = layer_metrics(trace_dir, bench.workload, bench.out,
                            traced.wall_s, plain.wall_s)
    spans = sorted(trace_dir.glob("spans-*.json"))
    (WORK / f"spans-{bench.workload.name}.json").write_text(json.dumps(
        [json.loads(p.read_text()) for p in spans]), encoding="utf-8")
    return metrics


def environment(workload):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "workers": workload.workers,
        "child_env": THREAD_ENV,
        "machine": platform.machine(),
    }


def run_workload(workload, seed, seconds, trace, tiny=False):
    """Measure one workload; returns the result object the last line prints."""
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        bench = Bench(workload, seed, tmp, tiny)
        metrics = (measure_layers(bench) if trace
                   else measure(bench, seconds))
    failed = sum(1 for op in bench.ops if op.problems)
    attempted = len(bench.ops)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=workload.name, seed=seed, trace=trace,
                  environment=environment(workload),
                  runs=[op.__dict__ for op in bench.ops],
                  sha256=bench.digests)
    (WORK / f"results-{workload.name}-seed{seed}-trace{trace}.json"
     ).write_text(json.dumps(record, indent=1), encoding="utf-8")
    report(bench, result, record["environment"])
    return result


def report(bench, result, env):
    workload = bench.workload
    print(f"{workload.name}: snbd {workload.subcommand}, "
          f"{bench.traj_steps} trajectory-steps, "
          f"{workload.workers} worker(s), {result['attempted']} runs")
    print(f"  environment {json.dumps(env)}")
    for name, m in result["metrics"].items():
        note = ""
        if name == "wall_s" and workload.name in ROADMAP_WALL_S:
            note = f"   (ROADMAP baseline {ROADMAP_WALL_S[workload.name]} s)"
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}{note}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':36s} {failed_frac:.6g} fraction "
          f"({result['failed']} of {result['attempted']})")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few trajectories per block (harness self-test)")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "snbd" / "__init__.py").is_file():
        print(f"perfbench: no snbd sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names) or args.seed < 0:
        parser.error(f"--workload is one of {sorted(WORKLOADS)} or all, "
                     f"and --seed is >= 0")
    results = {n: run_workload(WORKLOADS[n], args.seed, args.seconds,
                               args.trace, args.tiny) for n in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
