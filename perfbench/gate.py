"""Correctness gate applied after every CLI run the benchmark makes.

A run passes when the CLI exited 0 and left a ``complete`` manifest
whose diagnostics show the runtime invariants held (trace drift within
the propagator's trip-wire, exact Hermiticity, no skipped trajectory)
and every observable in ``observables.csv`` lies within 5 standard
errors (+1e-13) of the exact oracle at every recorded time.
"""

import csv
import json
from pathlib import Path

import numpy as np

from snbd.config import parse_config
from snbd.oracle import exact_observable, propagate_exact
from snbd.propagator import TRACE_TRIPWIRE

SIGMAS = 5.0
ABS_SLACK = 1e-13


def read_manifest(out_dir):
    path = Path(out_dir) / "manifest.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def file_digests(manifest) -> dict:
    return {name: entry["sha256"] for name, entry in manifest["files"].items()}


class Gate:
    def __init__(self, config_path):
        self.cfg = parse_config(config_path)
        self._times = None
        self._exact = None

    def exact(self, times) -> dict:
        """Oracle value of every observable at ``times``, computed once."""
        if self._times is None or not np.array_equal(times, self._times):
            states = propagate_exact(self.cfg.system, times)
            self._exact = {
                obs.name: exact_observable(states, obs, self.cfg.system.dims)
                for obs in self.cfg.observables}
            self._times = times
        return self._exact

    def check(self, returncode, out_dir) -> list:
        """Every way this run's outputs fail the gate (empty when correct)."""
        problems = []
        if returncode != 0:
            problems.append(f"exit code {returncode}")
        manifest = read_manifest(out_dir)
        if manifest is None:
            return problems + ["no manifest.json"]
        if manifest["status"] != "complete":
            problems.append(f"manifest status {manifest['status']!r}")
        diag = manifest["diagnostics"]
        if not diag.get("max_trace_deviation", np.inf) <= TRACE_TRIPWIRE:
            problems.append(
                f"max_trace_deviation {diag.get('max_trace_deviation')}")
        if diag.get("max_hermiticity_deviation") != 0:
            problems.append(f"max_hermiticity_deviation "
                            f"{diag.get('max_hermiticity_deviation')}")
        skipped = (diag.get("skipped_blowups", 0)
                   + diag.get("skipped_positivity", 0))
        if skipped:
            problems.append(f"{skipped} skipped trajectories")
        return problems + self._check_observables(Path(out_dir))

    def _check_observables(self, out_dir) -> list:
        path = out_dir / "observables.csv"
        if not path.is_file():
            return ["no observables.csv"]
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        table = np.array(rows[1:], dtype=float)
        column = {name: table[:, i] for i, name in enumerate(header)}
        exact = self.exact(column["t"])
        problems = []
        for name, reference in exact.items():
            if name not in column or f"{name}_stderr" not in column:
                problems.append(f"observables.csv lacks {name}")
                continue
            err = np.abs(column[name] - reference)
            limit = SIGMAS * column[f"{name}_stderr"] + ABS_SLACK
            if not (err <= limit).all():
                worst = int(np.argmax(err - limit))
                problems.append(
                    f"{name} at t={column['t'][worst]:.6g} is "
                    f"{err[worst]:.3e} from the oracle, "
                    f"limit {limit[worst]:.3e}")
        return problems
