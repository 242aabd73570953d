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

Each rho_k is held as its d^2 real coordinates c_a = Tr{B_a rho_k} in
the orthonormal Hermitian basis of ``system.build_hermitian_basis``,
whose B_0 = 1/sqrt(d) carries the trace.  The step is
rho + Q rho + rho Q^dag with

    Q = sum_s coeff_s O_k^s - i dt H_k - g0,
    coeff_s = -i dt omega_s sum_{l != k} Obar_l^s + sqrt(-i omega_s) W_k^s,
    g0 = sum_s sqrt(-i omega_s) W_k^s Obar_k^s,

which is {X, rho} + i [Y, rho] with the Hermitian X = sum_s Re coeff_s
O_k^s - Re g0 and Y = sum_s Im coeff_s O_k^s - dt H_k.  In coordinates
that is c + M(u) c, with M(u) = sum_j u_j T_j linear in the real row
u = [Re coeff, Im coeff, 1, Re g0]; the parts T_j ({O_k^s, .},
i[O_k^s, .], -i dt [H_k, .] and -2 times the identity) are built once
per run from the basis's structure constants, and the mean fields are
Obar_k^s = o_k^s . c_k.  Every coordinate vector is a Hermitian matrix,
and coordinate 0 is never written after t = 0, so Hermiticity and the
trace hold by construction, not to roundoff.  Densities are rebuilt as
matrices (exactly Hermitian, the lower triangle the conjugate of the
upper) only where they are looked at: at the recorded times and at the
divergence checks.  The t = 0 record is the symmetrized initial
densities (rho + rho^dag)/2 themselves.

``propagate_block`` is the only code that advances densities: it steps a
batch of trajectories in lockstep, with the particles of each dimension
stacked into one array, and a single trajectory is a batch of one.  The
batch is the last axis: the coordinates of all particles form one array
C, (sum_k d_k^2, W), one column per trajectory, and a group of K
particles of dimension d views its rows as (K, d^2, W).  Every product
of a step has a left factor built once per run and shared by all
columns.  The rows u come from two GEMMs:

    Z A = [Re z_s W_k^s, Im z_s W_k^s],   z_s = sqrt(-i omega_s),
    L C = [Obar_k^s, -dt omega_s sum_{l != k} Obar_l^s],

where A holds one step's stored increments, (2 p npairs, W), and the
noise factor Z (one block per term) folds in the pairing, the conjugate
read of the second particle and z_s.  Then Re coeff is a copy, Im coeff
one addition and Re g0 one product summed over the terms.  Per group,
M(u) = T^T U is one more GEMM with the operator tables as the left
factor, and M(u) c an elementwise product summed over the d^2
coordinates in order.  Only the Philox draw stays per trajectory.

How many trajectories one call steps together changes no result, bit
for bit.  The elementwise work is per column by construction.  For the
GEMMs it rests on a measured property of BLAS: when the width is a
multiple of 8, a column of the product depends only on that column, the
left factor and the column's position modulo 8 (OpenBLAS 0.3.31 on an
AVX-512 core, left factors from 1 x 4 to 1260 x 34, widths 8 to 1024;
the noise-factor blocks and the mean-field factor of 8 spin-1/2 on all
28 pairs, 16 x 56 and 48 x 32, pass the same test).  At other widths
the bits do change: the tail columns take other kernels, and a width of
one takes the matrix-vector path.  So W is the batch rounded up to a
multiple of ``COLUMN_ALIGN`` = 8, and trajectory j sits in column
j - 8 floor(start / 8), always at position j mod 8.  (On the core measured the position did
not matter at all once the width was aligned; the fixed position costs
at most 7 columns and relies on nothing that was not measured.)  The
padding columns hold the initial state and zero increments, and nothing
reads them.  ``test_same_bits_at_any_width`` guards the property at
every start modulo 8 and widths from 1 to ``LOCKSTEP_WIDTH``, on systems
whose factors reach 4 x 2 (one term), an inner dimension of 16 (d = 4),
mixed dimensions and 16 x 56 blocks (8 spins).

Per-trajectory randomness comes from counter-based Philox streams keyed
by (master seed, trajectory index), so any trajectory can be reproduced
in isolation and ensembles are independent of worker scheduling.

A note on positivity: the update conserves trace and Hermiticity, but
individual trajectory densities are genuine quasi-densities.  From a pure
initial state the smallest eigenvalue drifts negative at the rate

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
    TrajectoryBlowupError,
)
from .system import (
    SystemSpec,
    build_hermitian_basis,
    hermitian_coordinates,
    hermitian_structure_constants,
)

#: Hard cap on steps per trajectory.
MAX_STEPS = 100_000_000

#: Absolute floor added to the dt-scaled positivity tolerance (roundoff).
POSITIVITY_FLOOR = 1e-12

#: Bytes of noise pre-drawn at a time by the batched driver: the chunk
#: holds as many steps of every trajectory of the batch as fit (at least one).
NOISE_CHUNK_BYTES = 2 * 1024 * 1024

#: The batch is padded to a multiple of this many columns, and trajectory
#: j sits at column position j mod COLUMN_ALIGN (see the module notes).
COLUMN_ALIGN = 8

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


def pair_list(n_particles: int) -> list:
    return [
        (k, l)
        for k in range(n_particles - 1)
        for l in range(k + 1, n_particles)
    ]


def _noise_factor(z, order) -> np.ndarray:
    """The left factor Z that takes one step's stored increments to
    Re z_s W_k^s and Im z_s W_k^s, one (2 N, 2 npairs) block per term s.

    Block s reads the float view of ``dal[s]``, columns (q, re | im), and
    writes rows (Re | Im, particle), the particles in ``order``.  The one
    place where the pairing is applied: a stored (k, l) increment a + i b
    enters particle k as z_s (a + i b) and particle l conjugated, as
    z_s (a - i b), and no other particle.
    """
    n, p, npairs = len(order), len(z), pair_count(len(order))
    out = np.zeros((p, 2, n, npairs, 2))
    row = {k: r for r, k in enumerate(order)}
    for q, (k, l) in enumerate(pair_list(n)):
        for r, sign in ((row[k], 1.0), (row[l], -1.0)):
            out[:, 0, r, q] = np.stack([z.real, -sign * z.imag], axis=-1)
            out[:, 1, r, q] = np.stack([z.imag, sign * z.real], axis=-1)
    return out.reshape(p, 2 * n, 2 * npairs)


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
        if not math.isfinite(steps):
            raise ConfigError(
                f"t_final={t_final} / dt={dt} overflows a step count")
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
    trajectory reads 0.  The latter is 2 max |Im (rho_k)_ii| over the
    diagonal, the only entries a rebuilt density does not mirror.
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
    """The K particles of one dimension d, stepped as (K, d^2, W) real
    coordinates in ``build_hermitian_basis(d)``, one column per trajectory.

    A density is rebuilt from ``to_upper``, whose column pairs are the
    (re, im) parts of the basis entries at the flat indices ``upper``:
    the off-diagonal ones first, mirrored to ``lower``, then the diagonal.
    """

    members: list        # particle indices, ascending
    rows: slice          # their rows in the group-ordered (N, ..., W) arrays
    tables: np.ndarray   # (K, (d^2 - 1) d^2, 2p + 2) T^T: M(u) = T^T U
    coords: np.ndarray   # (K, d^2, W) current coordinates, a view of C
    live: slice          # the columns of the batch's trajectories
    to_upper: np.ndarray  # (d^2, 2 d (d + 1) / 2)
    upper: np.ndarray    # d (d + 1) / 2 flat indices
    lower: np.ndarray    # d (d - 1) / 2 flat indices
    initial: np.ndarray  # (K, d, d) symmetrized initial densities


def _dim_groups(spec: SystemSpec, live: slice, width: int, dt: float):
    """Group the particles by dimension, groups in order of first appearance.

    Returns the groups, the coordinates C of all of them, (sum K d^2, W),
    of which each group's ``coords`` is a view, and the mean-field factor
    L, (2 N p, sum K d^2): L C holds Obar_k^s = o_k^s . c_k and
    -dt omega_s sum_{l != k} Obar_l^s, rows (Obar | field, particle, s).

    The parts of M(u) = sum_j u_j T_j for particle k are {O_k^s, .},
    i[O_k^s, .], -i dt [H_k, .] and -2 times the identity, in coordinates,
    for u = [Re coeff, Im coeff, 1, Re g0].  Row 0 (the trace coordinate)
    of every part is dropped: it is never updated.  Every one of the
    ``width`` columns starts at the initial state; ``live`` are the
    batch's.
    """
    dims = spec.dims
    coords = np.empty((sum(d * d for d in dims), width))
    # fields[k, s] is o_k^s on particle k's coordinates, zero elsewhere
    fields = np.zeros((spec.n_particles, len(spec.terms), len(coords)))
    groups, lo, col = [], 0, 0
    for d in dict.fromkeys(dims):
        members = [k for k in range(spec.n_particles) if dims[k] == d]
        n_k, n_c = len(members), d * d
        rows = slice(lo, lo + n_k)
        lo = rows.stop
        anti, comm = hermitian_structure_constants(d)
        ops = hermitian_coordinates(np.array(
            [[term.ops[k] for term in spec.terms] for k in members]
        ).reshape(n_k, len(spec.terms), d, d))
        h = hermitian_coordinates(np.stack([spec.particles[k].h for k in members]))
        parts = np.concatenate([
            np.einsum("kse,eab->ksab", ops, anti),
            np.einsum("kse,eab->ksab", ops, comm),
            (-dt) * np.einsum("ke,eab->kab", h, comm)[:, None],
            np.broadcast_to(-2.0 * np.eye(n_c), (n_k, 1, n_c, n_c)),
        ], axis=1)
        rho = np.stack([_symmetrize(spec.initial[k].astype(complex))
                        for k in members])
        iu, ju = np.triu_indices(d, 1)
        iu, ju = np.r_[iu, np.arange(d)], np.r_[ju, np.arange(d)]
        basis = np.array(build_hermitian_basis(d))
        group = coords[col:col + n_k * n_c].reshape(n_k, n_c, width)
        group[...] = hermitian_coordinates(rho)[:, :, None]
        for j in range(n_k):
            fields[rows.start + j, :, col + j * n_c:col + (j + 1) * n_c] = ops[j]
        col += n_k * n_c
        groups.append(_DimGroup(
            members=members, rows=rows,
            tables=np.ascontiguousarray(
                parts[:, :, 1:].reshape(n_k, len(parts[0]), -1)
                .transpose(0, 2, 1)),
            coords=group,
            live=live,
            to_upper=np.ascontiguousarray(basis[:, iu, ju]).view(np.float64),
            upper=iu * d + ju, lower=(ju * d + iu)[:-d],
            initial=rho))
    mdtw = -dt * np.array([t.omega for t in spec.terms], dtype=float)[:, None]
    # the particles' blocks are disjoint, so sum - own is exactly the others'
    mean_field = np.concatenate([fields, mdtw * (fields.sum(axis=0) - fields)])
    return groups, coords, mean_field.reshape(-1, len(coords))


def _densities(g: _DimGroup) -> np.ndarray:
    """(K, B, d, d) densities of the batch's B trajectories, rebuilt from
    the coordinates, exactly Hermitian.

    The upper triangle and diagonal are sum_a c_a B_a, accumulated term by
    term in elementwise arithmetic, so an entry that cancels analytically
    (the empty level of a diagonal state) cancels exactly; the lower
    triangle is the conjugate of the upper.
    """
    c = g.coords[:, :, g.live]
    n_k, n_c, count = c.shape
    d = g.initial.shape[-1]
    upper = c[:, 0, :, None] * g.to_upper[0]
    for a in range(1, n_c):
        upper += c[:, a, :, None] * g.to_upper[a]
    upper = upper.view(complex)
    rho = np.empty((n_k, count, n_c), dtype=complex)
    rho[..., g.upper] = upper
    rho[..., g.lower] = upper[..., :len(g.lower)].conj()
    return rho.reshape(n_k, count, d, d)


def _min_eigenvalues(g: _DimGroup, rho: np.ndarray, on) -> np.ndarray:
    """(K, len(on)) smallest eigenvalue of the group's densities ``rho``
    (K, B, d, d) of the trajectories ``on``.

    For d = 2 the basis is the Pauli basis over sqrt(2), so
    rho = (c_0 + c . sigma) / sqrt(2) has the eigenvalues
    (c_0 +- |(c_1, c_2, c_3)|) / sqrt(2), taken elementwise from the
    coordinates.  A larger d takes one eigvalsh call over the stack, which
    LAPACK solves matrix by matrix, as it would one particle at a time; no
    closed form is used there, since the trigonometric cubic of d = 3
    loses about sqrt(eps) at a degenerate pair of eigenvalues.
    """
    if rho.shape[-1] == 2:
        c = g.coords[:, :, g.live][:, :, on]
        norm = np.sqrt(c[:, 1] ** 2 + c[:, 2] ** 2 + c[:, 3] ** 2)
        return (c[:, 0] - norm) / np.sqrt(2.0)
    return np.linalg.eigvalsh(rho[:, on]).min(axis=-1)


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
    still-active trajectories, and ``min_eigs`` (count, N), the smallest
    eigenvalue of each density (inf for a trajectory already inactive at
    the divergence check).  A spin-1/2 reads it in closed form from its
    coordinates, within a few 1e-16 of ``eigvalsh`` of the matrix handed
    on; a larger particle reads ``eigvalsh`` itself, one call per
    dimension group (see ``_min_eigenvalues``).  Each trajectory consumes
    its own Philox stream, so results are independent of how trajectories
    are grouped into blocks or distributed over workers.  The noise is drawn
    in chunks of at most ``NOISE_CHUNK_BYTES`` (one step when a single
    step of the batch is larger).

    ``policy`` is "abort" (raise on the first NaN/Inf or positivity
    violation, at the recording time where it is detected) or "skip"
    (deactivate the offending trajectories and keep going; skipped
    indices are reported in the returned stats).

    The particles of each dimension form one group; every (N, ..., W)
    array of a step (mean fields, the rows u) holds the groups side by
    side, and the groups couple only through the noise and mean-field
    factors Z and L (see the module notes).
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

    # trajectory j in column j - COLUMN_ALIGN * (start // COLUMN_ALIGN)
    live = slice(start % COLUMN_ALIGN, start % COLUMN_ALIGN + count)
    width = -(-live.stop // COLUMN_ALIGN) * COLUMN_ALIGN
    groups, coords, mean_field = _dim_groups(spec, live, width, dt)
    noise_factor = _noise_factor(sqrt_noise_factors(spec.terms),
                                 [k for g in groups for k in g.members])
    # one step's increments, rows (s; q, re | im) as Z reads them; the
    # padding columns stay zero, so their noise rows do too
    increments = np.zeros((p, 2 * npairs, width))
    noise = np.empty((p, 2, n, width))      # Re, Im of z_s W_k^s
    fields = np.empty((2, n, p, width))     # Obar, -dt omega_s sum_{l != k} Obar_l
    # u = [Re coeff, Im coeff, 1, Re g0] per particle, trajectories last
    u = np.zeros((n, 2 * p + 2, width))
    u[:, 2 * p] = 1.0
    re, im, g0 = u[:, :p], u[:, p:2 * p], u[:, 2 * p + 1]

    rngs = [trajectory_rng(master_seed, start + b) for b in range(count)]
    chunk_steps = max(1, NOISE_CHUNK_BYTES // max(1, 16 * count * p * npairs))
    active = np.ones(count, dtype=bool)
    trace_dev = np.zeros(count)
    herm_dev = np.zeros(count)
    blowups, pos_skips = [], []

    def check(t, stacks):
        """Per-particle density stacks from the group stacks, after the
        divergence check and the trace monitor have seen them.

        A trajectory with NaN/Inf entries or entries beyond NORM_CAP,
        which only an unstable path can reach, is deactivated or aborts
        (``max`` carries a NaN through, and NaN <= NORM_CAP is false).
        """
        cur = [None] * n
        healthy = np.ones(count, dtype=bool)
        for g, rho in zip(groups, stacks):
            flat = np.abs(rho).reshape(len(g.members), count, -1)
            healthy &= (flat.max(axis=2) <= NORM_CAP).all(axis=0)
            tr = np.einsum("kbii->kb", rho)
            dev = (np.abs(tr.real - 1.0) + np.abs(tr.imag)).max(axis=0)
            np.fmax(trace_dev, np.where(active, dev, 0.0), out=trace_dev)
            for j, k in enumerate(g.members):
                cur[k] = rho[j]
        bad = active & ~healthy
        if bad.any():
            first = int(np.nonzero(bad)[0][0])
            if policy == "abort":
                raise TrajectoryBlowupError(t=t, trajectory=start + first)
            blowups.extend((start + int(b)) for b in np.nonzero(bad)[0])
            active[bad] = False
        return cur

    def record(r_index, t, stacks):
        cur = check(t, stacks)
        min_eigs = np.full((count, n), np.inf)
        on = np.flatnonzero(active)
        if on.size:
            for g, rho in zip(groups, stacks):
                min_eigs[np.ix_(on, g.members)] = _min_eigenvalues(
                    g, rho, on).T
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
        # a rebuilt density's lower triangle is the conjugate of its upper
        # one, so only an imaginary diagonal entry can break Hermiticity
        for rho in stacks:
            hd = 2.0 * np.abs(np.diagonal(rho, axis1=-2, axis2=-1).imag).max(
                axis=(0, 2))
            np.fmax(herm_dev, np.where(active, hd, 0.0), out=herm_dev)
        on_record(r_index, t, cur, active.copy(), min_eigs)

    record(0, times[0], [np.repeat(g.initial[:, None], count, axis=1)
                         for g in groups])
    step = 0
    r_index = 0
    # diverging trajectories are caught by the norm/NaN guards; their
    # intermediate overflow arithmetic is expected under the skip policy
    with np.errstate(over="ignore", invalid="ignore"):
        while step < n_steps:
            chunk = min(chunk_steps, n_steps - step)
            dal = _draw_noise_chunk(rngs, chunk, p, npairs, dt)
            for i in range(chunk):
                increments[..., live] = dal[:, i].view(np.float64).transpose(
                    1, 2, 0)
                np.matmul(noise_factor, increments,
                          out=noise.reshape(p, 2 * n, width))
                np.matmul(mean_field, coords, out=fields.reshape(-1, width))
                re[...] = noise[:, 0].swapaxes(0, 1)
                np.add(noise[:, 1].swapaxes(0, 1), fields[1], out=im)
                # the sums over terms and coordinates run along a leading
                # axis with the trajectories contiguous, so numpy adds them
                # in axis order, column by column
                np.sum(re * fields[0], axis=1, out=g0)
                for g in groups:
                    n_k, n_c, _ = g.coords.shape
                    m = np.matmul(g.tables, u[g.rows]).reshape(
                        n_k, n_c - 1, n_c, width)
                    m *= g.coords[:, None]
                    g.coords[:, 1:] += m.sum(axis=2)
                step += 1
                if step % record_stride == 0:
                    r_index += 1
                    record(r_index, times[r_index], [_densities(g) for g in groups])
                elif step % CHECK_STRIDE == 0:
                    check(step * dt, [_densities(g) for g in groups])
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
