"""The three benchmark workloads, generated from a workload seed.

Each workload is a complete snbd JSON config plus the CLI subcommand that
runs it.  The seed only picks ``ensemble.master_seed``; sizes are fixed,
so every seed does the same amount of work.  The unit of work is one
trajectory-step: one Euler-Maruyama update of all N one-body densities
of one trajectory, so a run does M x steps of them.
"""

import hashlib
import math
from dataclasses import dataclass

# Spin-1/2 Pauli matrices and spin-1 operators, entries as [re, im].
SX = [[0, 1], [1, 0]]
SY = [[0, [0, -1]], [[0, 1], 0]]
SZ = [[1, 0], [0, -1]]
UP = [[1, 0], [0, 0]]
DOWN = [[0, 0], [0, 1]]
R = 1 / math.sqrt(2)
S1X = [[0, R, 0], [R, 0, R], [0, R, 0]]
S1Y = [[0, [0, -R], 0], [[0, R], 0, [0, -R]], [0, [0, R], 0]]
S1Z = [[1, 0, 0], [0, 0, 0], [0, 0, -1]]
S1_UP = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]


def _half(m):
    return [[[0.5 * x for x in e] if isinstance(e, list) else 0.5 * e
             for e in row] for row in m]


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    config: dict        # master_seed and output.directory are set by build
    expected_spans: frozenset
    tiny: dict              # ensemble overrides for the harness self-test

    @property
    def steps(self) -> int:
        t = self.config["time"]
        return round(t["t_final"] / t["dt"])

    @property
    def workers(self) -> int:
        return self.config["ensemble"]["worker_count"]

    def build(self, seed: int, out_dir: str, tiny: bool = False) -> dict:
        """The config the CLI receives for one workload seed."""
        cfg = {key: (dict(value) if isinstance(value, dict) else value)
               for key, value in self.config.items()}
        cfg["ensemble"]["master_seed"] = master_seed(self.name, seed)
        if tiny:
            cfg["ensemble"].update(self.tiny)
        cfg["output"] = {"directory": out_dir,
                         "formats": self.config["output"]["formats"]}
        return cfg


def master_seed(name: str, seed: int) -> int:
    """Per-workload ensemble seed derived from the benchmark seed."""
    digest = hashlib.sha256(f"{name}/{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# Spans every run records; the workloads add the ones their path reaches.
COMMON_SPANS = frozenset({
    "cli.main", "config.parse", "ensemble.run_ensemble",
    "propagator.propagate_block", "ensemble.on_record",
    "propagator.noise_draw", "ensemble.batched_refvec",
    "recovery.recover", "output.write",
})

# Why: the README and ROADMAP reference run and the plain single-process
# baseline.  Its small batch (40 blocks of 50) puts about 95% of the time
# in the N=2, d=2 step kernel and its per-call overhead, which is where a
# faster kernel must show; record work is about 1% and noise about 4%.
# The config is configs/two_spin_heisenberg.json, copied here so that
# editing the shipped example cannot change the benchmark, with one
# change: the same 1000 steps cover half its horizon (dt 2.5e-4, t 0.25).
# At the shipped t=0.5 about one seed in seven skips a diverged or
# non-positive trajectory (6 of 43 seeds), which the gate counts as a
# failure; at t=0.25 none of 40 seeds did.  The work per step is the same.
TWO_SPIN_SHIP = Workload(
    name="two_spin_ship",
    subcommand="run",
    config={
        "system": {
            "particles": [
                {"dim": 2, "h": [[0.5, 0], [0, -0.5]],
                 "statistics": "distinguishable"},
                {"dim": 2, "h": [[0.5, 0], [0, -0.5]],
                 "statistics": "distinguishable"},
            ],
            "interaction": {"pair_matrix": [
                [0.2, 0, 0, 0],
                [0, -0.2, 0.4, 0],
                [0, 0.4, -0.2, 0],
                [0, 0, 0, 0.2],
            ]},
            "initial": [UP, DOWN],
        },
        "time": {"t_final": 0.25, "dt": 0.00025, "record_stride": 100},
        "ensemble": {"M": 2000, "worker_count": 1, "n_blocks": 40,
                     "full_density": True, "blowup_policy": "skip",
                     "positivity_tol": 10.0},
        "observables": [
            {"name": "sz_0", "factors": [SZ, None]},
            {"name": "szsz", "factors": [SZ, SZ]},
        ],
        "recovery": {"enabled": True, "reference_vectors": None,
                     "window": True, "spectrum_source": "recovery"},
        "output": {"formats": ["csv", "bin"]},
    },
    expected_spans=COMMON_SPANS | {"ensemble.batched_kron"},
    tiny={"M": 40, "n_blocks": 4},
)

# Why: a wide N loads noise sampling, pair sums and mean fields: 8 spin-1/2
# particles, one Heisenberg V = J S.S (J=0.05) on every pair (the model
# applies one V to all pairs, so this is not a chain), 28 pairs x 3 terms =
# 84 complex increments per trajectory-step.  It is the only workload on
# the process pool (2 workers) and on memory: a block of 100 pre-draws a
# 134 MB noise chunk.  blowup_policy "skip" with a 1e300 positivity budget keeps the
# divergence guard on while skipping no trajectory.
SPINS8 = Workload(
    name="spins8",
    subcommand="run",
    config={
        "system": {
            "particles": [{"dim": 2, "h": _half(SZ),
                           "statistics": "distinguishable"}] * 8,
            # J S.S with S = sigma/2, i.e. (J/4) sigma.sigma
            "interaction": {"pair_matrix": [
                [0.0125, 0, 0, 0],
                [0, -0.0125, 0.025, 0],
                [0, 0.025, -0.0125, 0],
                [0, 0, 0, 0.0125],
            ]},
            "initial": [UP, DOWN] * 4,
        },
        "time": {"t_final": 0.5, "dt": 0.0005, "record_stride": 100},
        "ensemble": {"M": 400, "worker_count": 2, "n_blocks": 4,
                     "full_density": False, "blowup_policy": "skip",
                     "positivity_tol": 1e300},
        "observables": [
            {"name": "sz_0", "factors": [SZ] + [None] * 7},
            {"name": "szsz_01", "factors": [SZ, SZ] + [None] * 6},
            {"name": "sxsx_34",
             "factors": [None] * 3 + [SX, SX] + [None] * 3},
        ],
        "recovery": {"enabled": True},
        "output": {"formats": ["csv", "bin"]},
    },
    expected_spans=COMMON_SPANS,
    tiny={"M": 8, "n_blocks": 2},
)

# Why: the only workload on the mixed-dimension branch of propagate_block
# (a spin-1 and two spin-1/2 particles, dims 3, 2, 2, D=12, with three
# per-particle-operator terms, omega=0.2, coupling Sx, Sy and Sz).  It
# records every 2 steps (501 records) into the full-density and recovery
# accumulators and reads them back in the jackknife, so a gain in stepping
# that costs recording shows here.  About half its time is record-time
# work (accumulation plus the record monitors: with a record every 100
# steps it runs in about half the time), the rest mixed-dimension stepping
# and about 8% oracle, jackknife, recovery and 2.5 MB of output.
MIXED_COMPARE = Workload(
    name="mixed_compare",
    subcommand="compare",
    config={
        "system": {
            "particles": [
                {"dim": 3, "h": _half(S1Z)},
                {"dim": 2, "h": _half(SZ)},
                {"dim": 2, "h": _half(SZ)},
            ],
            "interaction": {"terms": [
                {"omega": 0.2, "ops": [S1X, _half(SX), _half(SX)]},
                {"omega": 0.2, "ops": [S1Y, _half(SY), _half(SY)]},
                {"omega": 0.2, "ops": [S1Z, _half(SZ), _half(SZ)]},
            ]},
            "initial": [S1_UP, DOWN, UP],
        },
        "time": {"t_final": 0.5, "dt": 0.0005, "record_stride": 2},
        "ensemble": {"M": 400, "worker_count": 1, "n_blocks": 8,
                     "full_density": True, "blowup_policy": "skip",
                     "positivity_tol": 10.0},
        "observables": [
            {"name": "Sz_0", "factors": [S1Z, None, None]},
            {"name": "sz_1", "factors": [None, SZ, None]},
            {"name": "szsz_12", "factors": [None, SZ, SZ]},
        ],
        "recovery": {"enabled": True},
        "output": {"formats": ["csv", "bin"]},
    },
    expected_spans=COMMON_SPANS | {
        "ensemble.batched_kron", "ensemble.jackknife_density",
        "recovery.jackknife_recovery", "oracle.propagate_exact"},
    tiny={"M": 40, "n_blocks": 4},
)

WORKLOADS = {w.name: w for w in (TWO_SPIN_SHIP, SPINS8, MIXED_COMPARE)}
