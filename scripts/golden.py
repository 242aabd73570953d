#!/usr/bin/env python3
"""Output digests: the sha256 of every file a fixed set of small runs writes.

Nine runs go through the CLI (``snbd.cli.main``):

- each benchmark workload's ``--tiny`` config (``perfbench/workloads.py``)
  at workload seeds 1 and 2;
- the ``mixed_compare`` tiny config at ``ensemble.positivity_tol`` 0.3,
  seeds 1 and 2, which drops trajectories mid-run (the positivity drop);
- ``snbd compare`` on ``configs/two_spin_heisenberg.json`` at M = 407, a
  batch that is not a multiple of its ``n_blocks``.

``tests/golden_digests.json`` holds each run's exit code and the sha256 of
every file it wrote, ``manifest.json`` included.  The bytes rest on the
BLAS and SIMD kernels numpy picks, so the entries are keyed by
``environment()``.  ``tests/test_golden.py`` runs the nine cases and
compares them with the entry of its environment.  A change that moves
output bytes on purpose rewrites the entry and names each moved file.

    python scripts/golden.py            # compare with the committed entry
    python scripts/golden.py --update   # rewrite this environment's entry
"""

import argparse
import hashlib
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "golden_digests.json"
SHIPPED = ROOT / "configs" / "two_spin_heisenberg.json"

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

from snbd.cli import main as snbd_main  # noqa: E402


def environment() -> str:
    """numpy's version, its BLAS build line and the SIMD extensions found
    on this CPU: what the output bytes of a run rest on."""
    info = np.show_config(mode="dicts")
    blas = info["Build Dependencies"]["blas"]
    return "; ".join([
        f"numpy {np.__version__}",
        blas.get("openblas configuration", blas.get("name", "unknown")),
        "SIMD " + " ".join(info["SIMD Extensions"]["found"])])


def cases(work: Path) -> dict:
    """Each case's CLI arguments but ``--out``; the workload configs are
    written into ``work``."""
    argv = {}
    for name, workload in WORKLOADS.items():
        for seed in (1, 2):
            path = work / f"{name}-{seed}.json"
            path.write_text(json.dumps(workload.build(seed, "out", tiny=True)))
            argv[f"{name} tiny seed {seed}"] = [
                workload.subcommand, "--config", str(path)]
    for seed in (1, 2):
        argv[f"mixed_compare tiny seed {seed} tol 0.3"] = (
            argv[f"mixed_compare tiny seed {seed}"]
            + ["--ensemble.positivity_tol=0.3"])
    argv["two_spin_heisenberg compare M 407"] = [
        "compare", "--config", str(SHIPPED), "--ensemble.M=407"]
    return argv


def run(argv, target: Path) -> dict:
    """Run one case's arguments with ``--out target``: its exit code and,
    per output file, the sha256 of its bytes."""
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        code = snbd_main(argv + ["--out", str(target), "--quiet"])
    return {"exit": code, "files": {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(target.iterdir())}}


def digests(work: Path) -> dict:
    """Run every case under ``work`` (``run``)."""
    return {name: run(argv, work / name.replace(" ", "_"))
            for name, argv in cases(work).items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite this environment's entry")
    args = parser.parse_args(argv)
    key = environment()
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as work:
        found = digests(Path(work))
    if args.update:
        table[key] = found
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(found)} cases for {key!r}")
        return 0
    if key not in table:
        print(f"no entry for {key!r}; run with --update", file=sys.stderr)
        return 2
    moved = []
    for name in sorted(set(table[key]) | set(found)):
        old, new = (case.get(name, {"files": {}}) for case in (table[key], found))
        if old != new:
            moved.append(name)
            files = [f for f in sorted(set(old["files"]) | set(new["files"]))
                     if old["files"].get(f) != new["files"].get(f)]
            print(f"{name}: exit {old.get('exit')} -> {new.get('exit')}, "
                  f"moved: {', '.join(files) or 'none'}")
    print(f"{len(moved)} of {len(found)} cases differ from the entry")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
