"""Stochastic propagation of coupled one-body densities.

One trajectory carries N one-body densities rho_k driven by a shared set
of complex Wiener increments, one per (interaction term s, unordered
particle pair {k,l}).  The Ito update for particle k over a step dt is

    drho_k = -i [H_k, rho_k] dt
             - i sum_s sum_{l != k} omega_s Obar_l^s [O_k^s, rho_k] dt
             + sum_s sqrt(-i omega_s) (O_k^s - Obar_k^s) rho_k W_k^s
             + sum_s conj(sqrt(-i omega_s)) rho_k (O_k^s - Obar_k^s) conj(W_k^s)

with mean fields Obar_k^s = Tr{O_k^s rho_k} evaluated at the start of the
step and W_k^s = sum_{l != k} dalpha_{k,l}^s.  The increment for (l, k)
is the complex conjugate of the one stored for (k, l); each stored
increment is (mu + i nu) sqrt(dt/2) with mu, nu standard normal, so that
E[|dalpha|^2] = dt (each quadrature carries variance dt/2).

The whole update is assembled as rho + (P + P^dag) with P = Q rho, which
makes every step map Hermitian matrices to Hermitian matrices exactly (in
floating point, not just analytically) and conserves the trace to
roundoff, so the densities are symmetrized as (rho + rho^dag)/2 once, at
t = 0, and never again.

``propagate_block`` is the only code that advances densities: it steps a
batch of trajectories in lockstep, with the particles of each dimension
stacked into one array, and a single trajectory is a batch of one.  How
many trajectories one call steps together changes no result: every
operation of a step acts on each trajectory's own rows.

Per-trajectory randomness comes from counter-based Philox streams keyed
by (master seed, trajectory index), so any trajectory can be reproduced
in isolation and ensembles are independent of worker scheduling.

A note on positivity: the update conserves trace and Hermiticity exactly,
but individual trajectory densities are genuine quasi-densities.  From a
pure initial state the smallest eigenvalue drifts negative at the rate

    sum_s |omega_s| (N - 1) |<2|(O^s - Obar^s)|1>|^2

(numerically verified against fine-step integration), and the mean-field
coupling then amplifies excursions multiplicatively.  The positivity
monitor therefore measures a real property of the dynamics, not an
integrator defect.

A note on the mean: one step reproduces the exact generator on average,
but the ensemble mean still departs from the exact dynamics from about
|omega| * t ~ 0.3 on (t ~ 0.7 on the two-spin benchmark, omega = 0.4),
by an amount that is the same across seeds and does not shrink with dt.
More trajectories or a finer step do not remove it; keep |omega| * t
below that onset when the estimate must match the exact dynamics.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    PositivityViolationError,
    ShapeError,
    TrajectoryBlowupError,
)
from .system import SystemSpec

#: Hard cap on steps per trajectory.
MAX_STEPS = 100_000_000

#: Absolute floor added to the dt-scaled positivity tolerance (roundoff).
POSITIVITY_FLOOR = 1e-12

#: Bytes of noise pre-drawn at a time by the batched driver: the chunk
#: holds as many steps of every trajectory of the batch as fit (at least one).
NOISE_CHUNK_BYTES = 2 * 1024 * 1024

#: Steps between divergence checks in the batched driver.
CHECK_STRIDE = 25

#: A one-body density with entries beyond this magnitude counts as diverged
#: (physical states have entries of order 1).
NORM_CAP = 1e4

#: Runtime trip-wire; far above roundoff, far below physical scales.
TRACE_TRIPWIRE = 1e-8

#: What propagate_block does with a diverged or non-positive trajectory.
BLOWUP_POLICIES = ("abort", "skip")


# ---------------------------------------------------------------------------
# pair bookkeeping and noise sampling
# ---------------------------------------------------------------------------

def pair_count(n_particles: int) -> int:
    return n_particles * (n_particles - 1) // 2


def pair_index(k: int, l: int, n_particles: int) -> int:
    """Index of the unordered pair {k, l} (k < l) in lexicographic order."""
    if not 0 <= k < l < n_particles:
        raise ShapeError(f"invalid pair ({k}, {l}) for N={n_particles}")
    return k * n_particles - k * (k + 1) // 2 + (l - k - 1)


def pair_list(n_particles: int) -> list:
    return [
        (k, l)
        for k in range(n_particles - 1)
        for l in range(k + 1, n_particles)
    ]


def pair_projectors(n_particles: int):
    """0/1 matrices mapping pair slots to particles.

    ``plus[q, k] = 1`` when particle k is the first member of pair q and
    ``minus[q, k] = 1`` when it is the second; used to accumulate
    W_k = sum_{l>k} dalpha_{k,l} + sum_{l<k} conj(dalpha_{l,k}).
    """
    npairs = pair_count(n_particles)
    plus = np.zeros((npairs, n_particles))
    minus = np.zeros((npairs, n_particles))
    for q, (k, l) in enumerate(pair_list(n_particles)):
        plus[q, k] = 1.0
        minus[q, l] = 1.0
    return plus, minus


def _particle_sums(dal, plus, minus) -> np.ndarray:
    """W[b, k, s] from one step's stored increments ``dal[b, s, q]``.

    The one place where the pairing is applied: a stored (k, l) increment
    enters its first particle as it is and its second particle complex
    conjugated, through the ``plus``/``minus`` projectors.
    """
    return (np.einsum("bpq,qk->bkp", dal, plus)
            + np.einsum("bpq,qk->bkp", dal.conj(), minus))


def trajectory_rng(master_seed: int, index: int) -> np.random.Generator:
    """Counter-based per-trajectory stream keyed by (master seed, index)."""
    if master_seed < 0 or index < 0:
        raise ConfigError("master seed and trajectory index must be >= 0")
    return np.random.Generator(np.random.Philox(key=(int(master_seed) << 64) + int(index)))


def _raw_to_increments(raw: np.ndarray, dt: float) -> np.ndarray:
    """Map standard-normal draws (..., 2) to (mu + i nu) sqrt(dt/2)."""
    return (raw[..., 0] + 1j * raw[..., 1]) * np.sqrt(dt / 2.0)


def sample_increments(rng, p: int, n_particles: int, dt: float) -> np.ndarray:
    """Draw one step's increments: p * N(N-1)/2 independent complex Gaussians.

    Returns ``values[s, q]``, the increment of term s on pair q = {k, l}
    with k < l; each is (mu + i nu) sqrt(dt/2) with mu, nu standard
    normal, giving E[dalpha* dalpha] = dt and E[dalpha dalpha] = 0; the
    generator advances deterministically.

    The driver draws many steps at once (``_draw_noise_chunk``); this
    one-step draw is kept as the literal reference that chunked draw is
    tested against, bit for bit, and as the noise of the moment checks.
    """
    if dt <= 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    raw = rng.standard_normal(size=(p, pair_count(n_particles), 2))
    return _raw_to_increments(raw, dt)


def sqrt_noise_factors(terms) -> np.ndarray:
    """Principal-branch sqrt(-i omega_s) per term; the same branch is used
    everywhere, so the product of the two factors on a pair is -i omega_s."""
    omegas = np.array([t.omega for t in terms], dtype=float)
    return np.sqrt(-1j * omegas.astype(complex))


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def positivity_tolerance(dt: float, spec: SystemSpec, t_final: float = 0.0) -> float:
    """Default negative-eigenvalue budget.

    The leading term is 100 dt max|omega|.  The Euler drift alone is not
    exactly unitary and walks eigenvalues by O(dt^2 ||H||^2) per step, so
    a second term covers dt * t_final * max_k ||H_k||^2 when the horizon
    is known; a roundoff floor keeps zero-coupling runs from tripping on
    rounding.  Interacting runs past t ~ 100 dt exceed this budget as a
    matter of course (see the module notes on positivity); such runs need
    an explicit, physically motivated tolerance.
    """
    h_scale = max((np.linalg.norm(p.h) for p in spec.particles), default=0.0)
    return max(100.0 * dt * spec.max_abs_omega,
               4.0 * dt * t_final * h_scale ** 2,
               POSITIVITY_FLOOR)


@dataclass(frozen=True)
class TimeGrid:
    """Integration grid: ``t_final / dt`` steps, recorded every
    ``record_stride`` steps and at t = 0.  Validated on construction;
    the times are stored as floats, so ``TimeGrid(1, ...)`` and
    ``TimeGrid(1.0, ...)`` are the same grid."""

    t_final: float
    dt: float
    record_stride: int = 1

    def __post_init__(self):
        t_final, dt = float(self.t_final), float(self.dt)
        object.__setattr__(self, "t_final", t_final)
        object.__setattr__(self, "dt", dt)
        if not (math.isfinite(t_final) and math.isfinite(dt)):
            raise ConfigError(
                f"t_final and dt must be finite, got {t_final} and {dt}")
        if dt <= 0:
            raise ConfigError(f"dt must be positive, got {dt}")
        if t_final < dt:
            raise ConfigError(f"t_final={t_final} must be at least dt={dt}")
        if self.record_stride < 1:
            raise ConfigError(
                f"record_stride must be >= 1, got {self.record_stride}")
        steps = t_final / dt
        n_steps = self.n_steps
        if n_steps < 1 or abs(steps - n_steps) > 1e-9 * max(1.0, abs(steps)):
            raise ConfigError(
                f"t_final={t_final} is not an integer number of steps of dt={dt}"
            )
        if n_steps % self.record_stride != 0:
            raise ConfigError(
                f"step count {n_steps} is not a multiple of "
                f"record_stride={self.record_stride}"
            )
        if n_steps > MAX_STEPS:
            raise ConfigError(f"step count {n_steps} exceeds the cap {MAX_STEPS}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    @property
    def times(self) -> np.ndarray:
        """The recorded times, t = 0 included."""
        n_times = self.n_steps // self.record_stride + 1
        return np.arange(n_times) * (self.record_stride * self.dt)


# ---------------------------------------------------------------------------
# single trajectories
# ---------------------------------------------------------------------------

@dataclass
class TrajectoryState:
    """One recorded time of one trajectory: time and N one-body densities."""

    t: float
    rhos: list


def propagate_trajectory(spec: SystemSpec, t_final: float, dt: float,
                         record_stride: int = 1, *, rng_seed,
                         positivity_tol: float = None) -> list:
    """Integrate one trajectory, returning snapshots every ``record_stride``
    steps (including t = 0).  Deterministic given the seed.

    ``rng_seed`` is interpreted as (master_seed, trajectory_index) when a
    tuple, otherwise as a master seed for trajectory 0.  The trajectory is
    a block of one, so it is bitwise the trajectory of that index in any
    ensemble run; ``positivity_tol=np.inf`` switches the positivity check off.
    """
    master_seed, index = rng_seed if isinstance(rng_seed, tuple) else (rng_seed, 0)
    snapshots = []

    def on_record(r_index, t, rhos, active, min_eigs):
        snapshots.append(TrajectoryState(t=t, rhos=[r[0].copy() for r in rhos]))

    propagate_block(spec, master_seed, index, 1, t_final, dt, record_stride,
                    on_record, positivity_tol=positivity_tol)
    return snapshots


# ---------------------------------------------------------------------------
# batched block driver
# ---------------------------------------------------------------------------

@dataclass
class BlockStats:
    """Diagnostics from one propagated block of trajectories.

    ``trace_dev`` and ``herm_dev`` hold each trajectory's largest
    |Tr rho_k - 1| and |rho_k - rho_k^dag| while it was active; a skipped
    trajectory reads 0.
    """

    trace_dev: np.ndarray   # (count,)
    herm_dev: np.ndarray    # (count,)
    blowups: tuple
    positivity_skips: tuple

    @property
    def max_trace_dev(self) -> float:
        return float(self.trace_dev.max(initial=0.0))

    @property
    def max_herm_dev(self) -> float:
        return float(self.herm_dev.max(initial=0.0))


@dataclass
class _DimGroup:
    """The particles of one dimension d, stepped as one (B, K, d, d) stack."""

    members: list        # particle indices, ascending
    cols: slice          # their columns in the group-ordered (B, N, p) arrays
    ops: np.ndarray      # (K, p, d, d) interaction factors O_k^s
    mihdt: np.ndarray    # (K, d, d) -i dt H_k
    diag: np.ndarray     # arange(d), indexes the diagonal of every stack
    rho: np.ndarray      # (B, K, d, d) current densities
    obar: np.ndarray     # (B, K, p) complex view into the shared mean fields


def _dim_groups(spec: SystemSpec, count: int, dt: float, obar_c: np.ndarray):
    """Group the particles by dimension, groups in order of first appearance."""
    dims = spec.dims
    groups, lo = [], 0
    for d in dict.fromkeys(dims):
        members = [k for k in range(spec.n_particles) if dims[k] == d]
        cols = slice(lo, lo + len(members))
        lo = cols.stop
        ops = np.zeros((len(members), len(spec.terms), d, d), dtype=complex)
        for j, k in enumerate(members):
            for s, term in enumerate(spec.terms):
                ops[j, s] = term.ops[k]
        rho = np.stack([
            np.broadcast_to(_symmetrize(spec.initial[k].astype(complex)),
                            (count, d, d))
            for k in members], axis=1)
        mihdt = np.stack([(-1j * dt) * spec.particles[k].h for k in members])
        groups.append(_DimGroup(members=members, cols=cols, ops=ops,
                                mihdt=mihdt, diag=np.arange(d), rho=rho,
                                obar=obar_c[:, cols]))
    return groups


def _draw_noise_chunk(rngs, n_steps, p, npairs, dt):
    """``n_steps`` steps of increments per trajectory, (B, n_steps, p, npairs).

    Each stream fills its trajectory's rows in place through the float
    view of the complex chunk (real and imaginary parts interleaved, as
    ``sample_increments`` pairs them), and one scaling by sqrt(dt/2)
    follows; the result is bitwise that of n_steps one-step draws.
    """
    out = np.empty((len(rngs), n_steps, p, npairs), dtype=complex)
    normals = out.view(np.float64)
    for rng, rows in zip(rngs, normals):
        rng.standard_normal(out=rows)
    normals *= np.sqrt(dt / 2.0)
    return out


def propagate_block(spec: SystemSpec, master_seed: int, start: int, count: int,
                    t_final: float, dt: float, record_stride: int,
                    on_record, *, positivity_tol: float = None,
                    policy: str = "abort") -> BlockStats:
    """Propagate trajectories [start, start + count) in lockstep.

    ``on_record(record_index, t, rhos_by_particle, active, min_eigs)`` is
    called at every time t of ``TimeGrid(t_final, dt, record_stride).times``
    with per-particle (count, d, d) density stacks, the mask of
    still-active trajectories, and the per-trajectory minimum eigenvalue
    of each density.  Each trajectory consumes its own
    Philox stream, so results are independent of how trajectories are
    grouped into blocks or distributed over workers.  The noise is drawn
    in chunks of at most ``NOISE_CHUNK_BYTES`` (one step when a single
    step of the batch is larger).

    ``policy`` is "abort" (raise on the first NaN/Inf or positivity
    violation, at the recording time where it is detected) or "skip"
    (deactivate the offending trajectories and keep going; skipped
    indices are reported in the returned stats).

    The particles of each dimension form one group; every (B, N, p) array
    of a step (mean fields, particle sums, coefficients) holds the groups
    side by side, and the groups couple only through them.
    """
    if policy not in BLOWUP_POLICIES:
        raise ConfigError(f"unknown blowup policy {policy!r}")
    grid = TimeGrid(t_final, dt, record_stride)
    n_steps, times = grid.n_steps, grid.times
    if positivity_tol is None:
        positivity_tol = positivity_tolerance(dt, spec, t_final)
    n = spec.n_particles
    p = len(spec.terms)
    npairs = pair_count(n)

    omegas = np.array([t.omega for t in spec.terms], dtype=float)
    momdt = (-1j * dt) * omegas
    z = sqrt_noise_factors(spec.terms)
    obar_c = np.empty((count, n, p), dtype=complex)
    obar = obar_c.real
    groups = _dim_groups(spec, count, dt, obar_c)
    order = [k for g in groups for k in g.members]
    # the mean-field total sums the particles in their own order, so
    # interleaved dimensions round exactly as if ungrouped
    unsort = slice(None) if order == sorted(order) else np.argsort(order)
    plus, minus = (np.ascontiguousarray(a[:, order]) for a in pair_projectors(n))

    rngs = [trajectory_rng(master_seed, start + b) for b in range(count)]
    chunk_steps = max(1, NOISE_CHUNK_BYTES // max(1, 16 * count * p * npairs))
    active = np.ones(count, dtype=bool)
    trace_dev = np.zeros(count)
    herm_dev = np.zeros(count)
    blowups, pos_skips = [], []

    def current_rhos():
        cur = [None] * n
        for g in groups:
            for j, k in enumerate(g.members):
                cur[k] = g.rho[:, j]
        return cur

    def flag_blowups(t, cur):
        """Deactivate (or abort on) diverged trajectories: NaN/Inf entries or
        entries beyond NORM_CAP, which only an unstable path can reach."""
        healthy = np.ones(count, dtype=bool)
        for k in range(n):
            flat = np.abs(cur[k]).reshape(count, -1)
            healthy &= np.isfinite(flat).all(axis=1) & (flat.max(axis=1) <= NORM_CAP)
        bad = active & ~healthy
        if bad.any():
            first = int(np.nonzero(bad)[0][0])
            if policy == "abort":
                raise TrajectoryBlowupError(t=t, trajectory=start + first)
            blowups.extend((start + int(b)) for b in np.nonzero(bad)[0])
            active[bad] = False

    def record(r_index, t):
        cur = current_rhos()
        flag_blowups(t, cur)
        min_eigs = np.full((count, n), np.inf)
        for k in range(n):
            ok = active
            if ok.any():
                min_eigs[ok, k] = np.linalg.eigvalsh(cur[k][ok]).min(axis=1)
        lows = min_eigs.min(axis=1)
        viol = active & ((lows < -positivity_tol) | ~np.isfinite(lows))
        if viol.any():
            first = int(np.nonzero(viol)[0][0])
            pk = int(np.argmin(min_eigs[first]))
            if policy == "abort":
                raise PositivityViolationError(
                    t=t, particle=pk, min_eig=float(min_eigs[first, pk]),
                    tol=positivity_tol, trajectory=start + first)
            pos_skips.extend((start + int(b)) for b in np.nonzero(viol)[0])
            active[viol] = False
        for k in range(n):
            dev = np.abs(cur[k] - cur[k].conj().swapaxes(-1, -2))
            hd = dev.reshape(count, -1).max(axis=1)
            np.fmax(herm_dev, np.where(active, hd, 0.0), out=herm_dev)
        on_record(r_index, t, cur, active.copy(), min_eigs)

    record(0, times[0])
    step = 0
    r_index = 0
    # diverging trajectories are caught by the norm/NaN guards; their
    # intermediate overflow arithmetic is expected under the skip policy
    with np.errstate(over="ignore", invalid="ignore"):
        while step < n_steps:
            chunk = min(chunk_steps, n_steps - step)
            dal = _draw_noise_chunk(rngs, chunk, p, npairs, dt)
            for i in range(chunk):
                zw = z * _particle_sums(dal[:, i], plus, minus)
                for g in groups:
                    np.einsum("kpij,bkji->bkp", g.ops, g.rho, out=g.obar)
                tot = obar[:, unsort].sum(axis=1, keepdims=True)
                coeff = momdt * (tot - obar) + zw
                g0 = (zw * obar).sum(axis=-1)
                for g in groups:
                    q = np.einsum("bkp,kpij->bkij", coeff[:, g.cols], g.ops)
                    q += g.mihdt
                    q[:, :, g.diag, g.diag] -= g0[:, g.cols, None]
                    pm = q @ g.rho
                    g.rho = g.rho + (pm + pm.conj().swapaxes(-1, -2))
                    tr = np.einsum("bkii->bk", g.rho)
                    dev = (np.abs(tr.real - 1.0) + np.abs(tr.imag)).max(axis=1)
                    np.fmax(trace_dev, np.where(active, dev, 0.0), out=trace_dev)
                step += 1
                if step % record_stride == 0:
                    r_index += 1
                    record(r_index, times[r_index])
                elif step % CHECK_STRIDE == 0:
                    flag_blowups(step * dt, current_rhos())
            del dal  # the next chunk is drawn without this one alive

    trace_dev[~active] = 0.0
    herm_dev[~active] = 0.0
    stats = BlockStats(trace_dev=trace_dev, herm_dev=herm_dev,
                       blowups=tuple(blowups),
                       positivity_skips=tuple(pos_skips))
    if stats.max_trace_dev > TRACE_TRIPWIRE:
        raise TrajectoryBlowupError(
            t=t_final,
            detail=f"trace drift {stats.max_trace_dev:.3e} above trip-wire")
    return stats
