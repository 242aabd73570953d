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
is the complex conjugate of the one for (k, l), each (mu + i nu)
sqrt(dt/2) with mu, nu standard normal, so E[|dalpha|^2] = dt.

A particle sees the increments only through W^s, a complex Gaussian
vector with E[W W^H] = (N - 1) dt I and E[W W^T] = dt (J - I) (J all
ones), whose real covariance has rank r = 2N - 1 (2 at N = 2, 0 at
N = 1).  So the step draws r standard normals x per term, not N (N - 1),
and [Re W; Im W] = sqrt(dt/2) R x with the fixed factor of
``_rank_factor``, which gives W exactly that covariance: the law of every
trajectory is that of the pair increments, only the samples differ.  At
N = 2, R is the pair map itself, (Re, Im) = (mu, nu), bit for bit.

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
trace hold by construction, not to roundoff.

The record path stays on the coordinates.  ``on_record`` is handed C
itself, and everything the ensemble sums is linear in it (ensemble
notes).  The monitors read as little as they must:

- the divergence check reads ||c_k||_2 = ||rho_k||_F >= max |rho_ij|, and
  rebuilds only a column too large for that bound to settle (the trace
  and Hermiticity need no reading, see above and ``_upper_map``);
- a spin-1/2's smallest eigenvalue is closed-form in its coordinates;
  a d = 3 density's is eigvalsh's, but a certified screen hands eigvalsh
  only the few densities that can decide a block's minimum or the
  positivity test (``_screened_minima``, ``_below``): a floating-point
  LDL^H of rho - (s + sigma) I with positive pivots proves that eigvalsh
  reads more than s, where the allowance sigma = 2^-40 (||rho||_F + |s|)
  is over 30 times the error bound it must cover (``_ldl_positive``);
- a larger particle takes eigvalsh over its group.

A density handed to eigvalsh is rebuilt as a matrix, exactly Hermitian
(the lower triangle the conjugate of the upper), by term-by-term
arithmetic whose bits do not depend on which densities are formed, so
every decision (divergence, positivity, each block's minimum) is bit for
bit the one a rebuild of every density would take.

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

where A holds one step's normals, (p r, W), and the noise factor Z (one
(2 N, r) block per term) is R times z_s, so the pairing and the
conjugate read live in it alone.  Then Re coeff is a copy, Im coeff
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
the noise-factor blocks of 2, 3 and 8 particles, 4 x 2, 6 x 5 and
16 x 15, and the mean-field factor of 8 spin-1/2 on all 28 pairs,
48 x 32, pass the same test).  At other widths
the bits do change: the tail columns take other kernels, and a width of
one takes the matrix-vector path.  So W is the batch rounded up to a
multiple of ``COLUMN_ALIGN`` = 8, and trajectory j sits in column
j - 8 floor(start / 8), always at position j mod 8.  (On the core measured the position did
not matter at all once the width was aligned; the fixed position costs
at most 7 columns and relies on nothing that was not measured.)  The
padding columns hold the initial state and zero normals; the
ensemble's record products run over all W columns, for the same
property, and drop them.  ``test_same_bits_at_any_width`` guards the property at
every start modulo 8 and widths from 1 to ``LOCKSTEP_WIDTH``, on systems
whose factors reach 4 x 2 (one term), an inner dimension of 16 (d = 4),
mixed dimensions with 6 x 5 noise blocks (N = 3, an odd inner
dimension) and 16 x 15 blocks (8 spins).

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
    ContractViolationError,
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

#: A column whose coordinates have at most this 2-norm (= ||rho_k||_F) has
#: every entry within NORM_CAP, with room for the rebuild's roundoff.
NORM_SCREEN = NORM_CAP * (1.0 - 1e-12)

#: Largest |Tr rho_k - 1| a run may report, far above roundoff (perfbench's
#: gate holds the manifest's max_trace_deviation to it).
TRACE_TRIPWIRE = 1e-8

#: sigma, the d = 3 certificate's allowance relative to ||rho||_F + |shift|
#: (the bound it rests on is in ``_ldl_positive``).
CERTIFICATE_ALLOWANCE = 2.0 ** -40

#: The d = 3 screen's margin on a block's least closed-form estimate,
#: relative to 1 + |estimate|; it sets how many matrices reach eigvalsh,
#: not the value a block reads.
ESTIMATE_MARGIN = 2.0 ** -20

#: What propagate_block does with a diverged or non-positive trajectory.
BLOWUP_POLICIES = ("abort", "skip")


# ---------------------------------------------------------------------------
# noise sampling
# ---------------------------------------------------------------------------

def _rank_factor(n: int) -> np.ndarray:
    """R, (2 N, r): one term's [Re W; Im W] = sqrt(dt/2) R x from r
    standard normals x = [h, g_1..g_{N-1}, f_1..f_{N-1}] (no g at N = 2),
    with v_j = (1, .., 1, -j, 0, ..), j ones, the Helmert basis of 1^perp:

        Re W = sqrt((2N-2)/N) h 1 + sum_j sqrt((N-2)/(j(j+1))) g_j v_j,
        Im W = sum_j sqrt(N/(j(j+1))) f_j v_j.

    Then Cov(Re W) = (dt/2) (J + (N-2) I), Cov(Im W) = (dt/2) (N I - J)
    and the two are uncorrelated: the pair sums' covariance.  At N = 2
    the entries are exactly 0 and +-1 and (h, f) = (mu, nu).
    """
    if n < 2:
        return np.zeros((2 * n, 0))
    i, j = np.arange(n)[:, None], np.arange(1, n)
    helmert = (i < j) - j * (i == j)        # column j - 1 is v_j
    norm = j * (j + 1.0)
    re = [np.full((n, 1), math.sqrt((2 * n - 2) / n))]
    if n > 2:
        re.append(helmert * np.sqrt((n - 2) / norm))
    re = np.hstack(re)
    im = helmert * np.sqrt(n / norm)
    return np.block([[re, np.zeros_like(im)],
                     [np.zeros_like(re), im]])


def _noise_factor(z, order) -> np.ndarray:
    """The left factor Z that takes one step's normals to Re z_s W_k^s and
    Im z_s W_k^s, one (2 N, r) block per term s: [[Re z_s, -Im z_s],
    [Im z_s, Re z_s]] applied to ``_rank_factor``, rows (Re | Im,
    particle), the particles in ``order``."""
    n = len(order)
    rank = _rank_factor(n)
    rows = rank.reshape(2, n, rank.shape[1])[:, list(order)]
    a, b = z.real[:, None, None], z.imag[:, None, None]
    return np.concatenate([a * rows[0] - b * rows[1],
                           b * rows[0] + a * rows[1]], axis=1)


def trajectory_rng(master_seed: int, index: int) -> np.random.Generator:
    """Counter-based per-trajectory stream keyed by (master seed, index)."""
    if master_seed < 0 or index < 0:
        raise ConfigError("master seed and trajectory index must be >= 0")
    return np.random.Generator(np.random.Philox(key=(int(master_seed) << 64) + int(index)))


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
        if n_steps < 1 or not abs(steps - n_steps) <= 1e-9 * max(1.0, abs(steps)):
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
    ensemble run; ``positivity_tol=np.inf`` switches the positivity check
    off.  The snapshots are the densities rebuilt from the coordinates
    handed to ``on_record`` (see ``coordinate_densities``).
    """
    master_seed, index = rng_seed if isinstance(rng_seed, tuple) else (rng_seed, 0)
    rows = coordinate_rows(spec.dims)
    col = slice(index % COLUMN_ALIGN, index % COLUMN_ALIGN + 1)
    snapshots = []

    def on_record(r_index, t, coords, active, min_eigs):
        snapshots.append(TrajectoryState(t=t, rhos=[
            coordinate_densities(coords[r, col], d)[0]
            for r, d in zip(rows, spec.dims)]))

    propagate_block(spec, master_seed, index, 1, t_final, dt, record_stride,
                    on_record, positivity_tol=positivity_tol)
    return snapshots


# ---------------------------------------------------------------------------
# batched block driver
# ---------------------------------------------------------------------------

@dataclass
class BlockStats:
    """The trajectories of one propagated block that the skip policy
    dropped, as diverged or as non-positive."""

    blowups: tuple
    positivity_skips: tuple


@dataclass
class _DimGroup:
    """The K particles of one dimension d, stepped as (K, d^2, W) real
    coordinates in ``build_hermitian_basis(d)``, one column per trajectory.

    ``maps`` rebuilds the densities (``_upper_map``).  ``screen`` is its
    table as one left factor, whose product with the coordinates the d = 3
    screen reads.
    """

    members: list        # particle indices, ascending
    rows: slice          # their rows in the group-ordered (N, ..., W) arrays
    tables: np.ndarray   # (K, (d^2 - 1) d^2, 2p + 2) T^T: M(u) = T^T U
    coords: np.ndarray   # (K, d^2, W) current coordinates, a view of C
    maps: tuple          # (table, upper, lower), see _upper_map
    screen: np.ndarray   # (d (d + 1), d^2) the table as a left factor

    @property
    def dim(self) -> int:
        return math.isqrt(self.coords.shape[1])


def coordinate_rows(dims) -> list:
    """Particle k's rows of the coordinates C that ``propagate_block``
    steps and hands ``on_record``: the particles grouped by dimension,
    groups in order of first appearance, members ascending, d_k^2 rows
    each (coordinate a of particle k is row ``rows[k].start + a``)."""
    rows, lo = [None] * len(dims), 0
    for d in dict.fromkeys(dims):
        for k, dk in enumerate(dims):
            if dk == d:
                rows[k] = slice(lo, lo + d * d)
                lo += d * d
    return rows


def _initial_coordinates(spec: SystemSpec) -> np.ndarray:
    """The column C every trajectory starts from, (sum_k d_k^2,): each
    initial density made exactly Hermitian, (rho + rho^dag) / 2, in
    coordinates at its ``coordinate_rows``."""
    out = np.empty(sum(d * d for d in spec.dims))
    for rho, rows in zip(spec.initial, coordinate_rows(spec.dims)):
        out[rows] = hermitian_coordinates(_symmetrize(rho.astype(complex)))
    return out


def carried_trace_deviation(spec: SystemSpec) -> float:
    """max_k |Tr rho_k - 1| = |sqrt(d_k) c_{k,0} - 1| of every trajectory at
    every step: coordinate 0 is never written after t = 0."""
    c = _initial_coordinates(spec)
    return max(abs(math.sqrt(d) * float(c[rows.start]) - 1.0)
               for d, rows in zip(spec.dims, coordinate_rows(spec.dims)))


def _dim_groups(spec: SystemSpec, width: int, dt: float):
    """Group the particles by dimension, groups in order of first appearance.

    Returns the groups, the coordinates C of all of them, (sum K d^2, W),
    of which each group's ``coords`` is a view, and the mean-field factor
    L, (2 N p, sum K d^2): L C holds Obar_k^s = o_k^s . c_k and
    -dt omega_s sum_{l != k} Obar_l^s, rows (Obar | field, particle, s).

    The parts of M(u) = sum_j u_j T_j for particle k are {O_k^s, .},
    i[O_k^s, .], -i dt [H_k, .] and -2 times the identity, in coordinates,
    for u = [Re coeff, Im coeff, 1, Re g0].  Row 0 (the trace coordinate)
    of every part is dropped: it is never updated.  Every one of the
    ``width`` columns starts at ``_initial_coordinates``.
    """
    dims = spec.dims
    rows = coordinate_rows(dims)
    coords = np.repeat(_initial_coordinates(spec)[:, None], width, axis=1)
    # fields[i, s] is o_k^s on the coordinates of the i-th particle k in
    # group order, zero elsewhere
    fields = np.zeros((spec.n_particles, len(spec.terms), len(coords)))
    groups, lo = [], 0
    for d in dict.fromkeys(dims):
        members = [k for k in range(spec.n_particles) if dims[k] == d]
        n_k, n_c = len(members), d * d
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
        top = rows[members[0]].start
        group = coords[top:top + n_k * n_c].reshape(n_k, n_c, width)
        for j, k in enumerate(members):
            fields[lo + j, :, rows[k]] = ops[j]
        maps = _upper_map(d)
        groups.append(_DimGroup(
            members=members, rows=slice(lo, lo + n_k),
            tables=np.ascontiguousarray(
                parts[:, :, 1:].reshape(n_k, len(parts[0]), -1)
                .transpose(0, 2, 1)),
            coords=group,
            maps=maps,
            screen=np.ascontiguousarray(maps[0][:, :, 0].T)))
        lo += n_k
    mdtw = -dt * np.array([t.omega for t in spec.terms], dtype=float)[:, None]
    # the particles' blocks are disjoint, so sum - own is exactly the others'
    mean_field = np.concatenate([fields, mdtw * (fields.sum(axis=0) - fields)])
    return groups, coords, mean_field.reshape(-1, len(coords))


def _upper_map(d: int) -> tuple:
    """The rebuild of a d x d density from its coordinates: a table
    (d^2, d (d + 1), 1) whose rows (re, im) per entry are the basis
    entries at the flat indices ``upper`` (the off-diagonal ones first,
    mirrored to ``lower``, then the diagonal), and those indices.  A
    rebuilt density is exactly Hermitian, as no diagonal entry has an
    imaginary row, which is checked here (``ContractViolationError``)."""
    iu, ju = np.triu_indices(d, 1)
    iu, ju = np.r_[iu, np.arange(d)], np.r_[ju, np.arange(d)]
    basis = np.array(build_hermitian_basis(d))
    table = np.ascontiguousarray(basis[:, iu, ju]).view(np.float64)
    if table[:, 1 - 2 * d::2].any():
        raise ContractViolationError(f"the d = {d} basis has an imaginary diagonal")
    return table[:, :, None], iu * d + ju, (ju * d + iu)[:-d]


def _rebuild(c: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The upper entries' planes sum_a c_a table[a], (..., rows, B), from
    coordinates (..., n_c, B): row 2 u is the real and row 2 u + 1 the
    imaginary part of entry u.  The sum is accumulated term by term in
    elementwise arithmetic, so an entry that cancels analytically (the
    empty level of a diagonal state) cancels exactly, and an entry's bits
    do not depend on which others are formed."""
    terms = c[..., :, None, :] * table
    out = terms[..., 0, :, :].copy()
    for a in range(1, len(table)):
        out += terms[..., a, :, :]
    return out


def _assemble(planes: np.ndarray, maps: tuple) -> np.ndarray:
    """(..., B, d, d) exactly Hermitian matrices from upper-entry planes
    (..., rows, B): the lower triangle is the conjugate of the upper."""
    _, upper, lower = maps
    up = np.ascontiguousarray(np.swapaxes(planes, -1, -2)).view(complex)
    d = math.isqrt(len(upper) + len(lower))
    rho = np.empty(up.shape[:-1] + (d * d,), dtype=complex)
    rho[..., upper] = up
    rho[..., lower] = up[..., :len(lower)].conj()
    return rho.reshape(up.shape[:-1] + (d, d))


def coordinate_densities(c: np.ndarray, d: int) -> np.ndarray:
    """(..., B, d, d) densities from their coordinates (..., d^2, B) in
    ``build_hermitian_basis(d)``, exactly Hermitian, bit for bit the
    matrices whose eigenvalues ``propagate_block`` reads."""
    maps = _upper_map(d)
    return _assemble(_rebuild(c, maps[0]), maps)


# ---------------------------------------------------------------------------
# the d = 3 minimum-eigenvalue screen
# ---------------------------------------------------------------------------

def _min_eigvalsh(rho: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each matrix of a stack, by eigvalsh, which
    LAPACK solves matrix by matrix: a value does not depend on the stack."""
    return np.linalg.eigvalsh(rho).min(axis=-1)


def _trig_min_estimate(e: np.ndarray) -> np.ndarray:
    """Closed-form smallest eigenvalue of each Hermitian 3 x 3 given by its
    upper-entry planes e (12, M), elementwise: the trigonometric root of
    the characteristic cubic.  It loses about sqrt(eps) ||rho|| at a
    degenerate pair, so it only steers ``_screened_minima``, whose result
    does not depend on it."""
    z1, z2, y1, y2, x1, x2 = e[:6]          # a12, a13, a23
    q = (e[6] + e[8] + e[10]) / 3.0
    b11, b22, b33 = e[6] - q, e[8] - q, e[10] - q
    n12, n13, n23 = z1 * z1 + z2 * z2, y1 * y1 + y2 * y2, x1 * x1 + x2 * x2
    p = np.sqrt((b11 * b11 + b22 * b22 + b33 * b33
                 + 2.0 * (n12 + n13 + n23)) / 6.0)
    # det(rho - q) with 2 Re(a12 a23 conj(a13)) for the two cyclic terms;
    # r = det / (2 p^3) in [-1, 1], and 0 when p = 0 (then det = 0 too)
    det = (b11 * b22 * b33 - b11 * n23 - b22 * n13 - b33 * n12
           + 2.0 * ((z1 * x1 - z2 * x2) * y1 + (z1 * x2 + z2 * x1) * y2))
    safe = np.maximum(p, 1e-100)
    r = np.minimum(np.maximum(det / (2.0 * safe * safe * safe), -1.0), 1.0)
    return q + 2.0 * p * np.cos(np.arccos(r) / 3.0 + 2.0 * np.pi / 3.0)


def _ldl_positive(e: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """True where the floating-point LDL^H of rho - shift I runs to three
    pivots > 0, for the Hermitian 3 x 3s given by their upper-entry planes
    e (12, M) and shifts (M,); the diagonal's imaginary parts are not
    read, as eigvalsh does not read them.

    Why a pass certifies (u = 2^-53 the unit roundoff): a factorization
    that completes with positive pivots is the exact one of a nearby
    matrix, L D L^H = A~ + E with |E| <= gamma |L| D |L^H| (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 10.3, in
    its square-root-free form; complex arithmetic raises gamma_{n+1} to
    about gamma_{8(n+1)}), and ||E||_2 <= gamma / (1 - gamma) tr(A~)
    (Rump, BIT 46 (2006) 433, the bound behind its Lemma 2.1).  With
    A~ = fl(rho - shift I) and tr(A~) <= sqrt(3) ||rho||_F + 3 |shift|,
    the smallest eigenvalue of rho then exceeds
    shift - 2 gamma (sqrt(3) ||rho||_F + 3 |shift|) - u |shift|.  Below
    that must also fit eigvalsh's own error, p(3) u ||rho||_2, and the
    distance between the planes read here (one GEMM) and the matrix
    eigvalsh reads (``_rebuild``), at most 2 gamma_9 per entry times
    ||rho||_F, 54 u ||rho||_F in Frobenius norm: in all about
    (170 + p(3)) u (||rho||_F + |shift|) with gamma = gamma_32.
    ``CERTIFICATE_ALLOWANCE`` sigma is 8192 u times that scale, over 30
    times the bound for any p(3) up to 80.
    """
    z1, z2, y1, y2, x1, x2 = e[:6]          # a12, a13, a23
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d1 = e[6] - shift
        d2 = (e[8] - shift) - (z1 * z1 + z2 * z2) / d1
        # the (2, 3) entry of the Schur complement, a23 - conj(a12) a13 / d1
        w1 = x1 - (z1 * y1 + z2 * y2) / d1
        w2 = x2 - (z1 * y2 - z2 * y1) / d1
        d3 = ((e[10] - shift) - (y1 * y1 + y2 * y2) / d1
              - (w1 * w1 + w2 * w2) / d2)
        return (d1 > 0.0) & (d2 > 0.0) & (d3 > 0.0)


def _allowance(norms, shift):
    """The certificate's sigma for densities of Frobenius norm ``norms``
    at ``shift`` (see ``_ldl_positive``)."""
    return CERTIFICATE_ALLOWANCE * (norms + np.abs(shift))


def _solve(matrices, need: np.ndarray, exact: np.ndarray):
    """Fill ``exact`` with eigvalsh's smallest eigenvalue where ``need``;
    ``matrices(index)`` gives the matrices eigvalsh reads."""
    if need.any():
        index = np.flatnonzero(need)
        exact[index] = _min_eigvalsh(matrices(index))


def _below(e: np.ndarray, norms: np.ndarray, tol: float, exact: np.ndarray,
           matrices) -> np.ndarray:
    """Where the smallest eigvalsh eigenvalue of 3 x 3 densities is below
    -tol, bit for bit the comparison of eigvalsh's values, from their
    planes e (12, M) and Frobenius norms.  A density is cleared (its
    eigvalsh value is > -tol) when ||rho||_F + sigma < tol, or else when
    its LDL^H of rho + (tol - sigma) I passes; only the rest reach
    eigvalsh, through ``matrices`` (see ``_solve``).  ``exact``, (M,) and
    NaN where unknown, takes the values eigvalsh gave."""
    need = ~(norms + _allowance(norms, 0.0) < tol)
    if need.any():
        need[need] = ~_ldl_positive(
            e[:, need], _allowance(norms[need], tol) - tol)
    _solve(matrices, need, exact)
    return need & ~(exact >= -tol)


def _segment_min(x: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """The minimum of x over each segment [seg[i], seg[i + 1]), the last
    one to the end; inf for an empty segment."""
    out = np.full(len(seg), np.inf)
    filled = seg < np.append(seg[1:], len(x))
    if filled.any():
        out[filled] = np.minimum.reduceat(x, seg[filled])
    return out


def _screened_minima(e: np.ndarray, norms: np.ndarray, seg: np.ndarray,
                     exact: np.ndarray, matrices) -> np.ndarray:
    """Each segment's smallest eigvalsh eigenvalue of 3 x 3 densities, bit
    for bit, from their planes e (12, M) and Frobenius norms, with
    eigvalsh run on few of them (through ``matrices``, see ``_solve``).

    ``seg`` holds the segments' first indices (a block's trajectories) and
    ``exact`` eigvalsh's values where known, NaN elsewhere; it takes the
    values computed here.  Per segment, m is the least closed-form
    estimate plus a margin.  A density whose LDL^H of rho - (m + sigma) I
    passes has an eigvalsh value > m and is ruled out; the rest are
    solved.  If their least value mu is at most m, every ruled-out value
    is above it and mu is the minimum; otherwise the whole segment is
    solved.  So the estimate's accuracy sets only how many are solved.
    """
    if not len(norms):
        return np.full(len(seg), np.inf)
    owner = np.repeat(np.arange(len(seg)), np.diff(np.append(seg, len(norms))))
    low = _segment_min(_trig_min_estimate(e), seg)
    bound = low + ESTIMATE_MARGIN * (1.0 + np.abs(low))
    m = bound[owner]
    _solve(matrices, ~_ldl_positive(e, m + _allowance(norms, m))
           & np.isnan(exact), exact)
    mins = _segment_min(np.where(np.isnan(exact), np.inf, exact), seg)
    redo = mins > bound
    if redo.any():
        _solve(matrices, redo[owner] & np.isnan(exact), exact)
        mins[redo] = _segment_min(exact, seg)[redo]
    return mins


def _selection(on: np.ndarray, count: int):
    """An index for the trajectories ``on`` of a batch of ``count``: a
    slice, which selects without a copy, when that is all of them."""
    return slice(None) if len(on) == count else on


def _draw_noise_chunk(rngs, n_steps, p, r, dt):
    """``n_steps`` steps of r normals per term for each trajectory, times
    sqrt(dt/2), (B, n_steps, p, r).

    Each stream fills its trajectory's rows in place and one scaling
    follows; the result is bitwise that of n_steps one-step draws.
    """
    out = np.empty((len(rngs), n_steps, p, r))
    for rng, rows in zip(rngs, out):
        rng.standard_normal(out=rows)
    out *= np.sqrt(dt / 2.0)
    return out


def propagate_block(spec: SystemSpec, master_seed: int, start: int, count: int,
                    t_final: float, dt: float, record_stride: int,
                    on_record, *, positivity_tol: float = None,
                    policy: str = "abort", block_starts=None) -> BlockStats:
    """Propagate trajectories [start, start + count) in lockstep.

    ``on_record(record_index, t, coords, active, min_eigs)`` is called at
    every time t of ``TimeGrid(t_final, dt, record_stride).times`` with
    the live coordinates C, (sum_k d_k^2, W): particle k's rows are
    ``coordinate_rows(spec.dims)[k]`` and trajectory start + j is column
    start % COLUMN_ALIGN + j (the other columns are padding).  C is the
    propagator's own array, valid during the call only.  ``active`` is
    the mask of trajectories still active after this record's checks and
    ``min_eigs`` (n_blocks, N) each block's smallest eigenvalue of each
    particle over those trajectories, inf for a block with none.  The
    blocks start at ``block_starts`` (ascending offsets into the batch,
    the first 0); by default each trajectory is a block of its own.

    A spin-1/2 reads its smallest eigenvalue in closed form from its
    coordinates; a larger particle reads ``eigvalsh`` of its rebuilt
    density, bit for bit, although a d = 3 block solves only the few
    matrices a certified screen cannot rule out (``_screened_minima``),
    and the positivity test solves only those it cannot clear.  Each
    trajectory consumes its own Philox stream, so results are independent
    of how trajectories are grouped into blocks or distributed over
    workers.  The noise is drawn in chunks of at most
    ``NOISE_CHUNK_BYTES`` (one step when a single step of the batch is
    larger).

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
    starts = (np.arange(count) if block_starts is None
              else np.asarray(block_starts, dtype=np.intp))

    # trajectory j in column j - COLUMN_ALIGN * (start // COLUMN_ALIGN)
    live = slice(start % COLUMN_ALIGN, start % COLUMN_ALIGN + count)
    width = -(-live.stop // COLUMN_ALIGN) * COLUMN_ALIGN
    groups, coords, mean_field = _dim_groups(spec, width, dt)
    noise_factor = _noise_factor(sqrt_noise_factors(spec.terms),
                                 [k for g in groups for k in g.members])
    rank = noise_factor.shape[2]
    # one step's normals, rows (s; r) as Z reads them; the padding
    # columns stay zero, so their noise rows do too
    normals = np.zeros((p, rank, width))
    noise = np.empty((p, 2, n, width))      # Re, Im of z_s W_k^s
    fields = np.empty((2, n, p, width))     # Obar, -dt omega_s sum_{l != k} Obar_l
    # u = [Re coeff, Im coeff, 1, Re g0] per particle, trajectories last
    u = np.zeros((n, 2 * p + 2, width))
    u[:, 2 * p] = 1.0
    re, im, g0 = u[:, :p], u[:, p:2 * p], u[:, 2 * p + 1]

    rngs = [trajectory_rng(master_seed, start + b) for b in range(count)]
    chunk_steps = max(1, NOISE_CHUNK_BYTES // max(1, 8 * count * p * rank))
    active = np.ones(count, dtype=bool)
    blowups, pos_skips = [], []

    def check(t):
        """The divergence check; returns each group's density norms
        (K, count).

        A column whose coordinates have a 2-norm, which is
        ||rho_k||_F >= max |rho_ij|, within ``NORM_SCREEN`` is healthy; any
        other active column, NaN included, is rebuilt and deactivated or
        aborts when an entry is NaN/Inf or beyond NORM_CAP, which only an
        unstable path can reach (NaN <= NORM_CAP is false).
        """
        healthy = np.ones(count, dtype=bool)
        norms = []
        for g in groups:
            c = g.coords[:, :, live]
            sq = (c * c).sum(axis=1)
            doubt = active & ~(sq <= NORM_SCREEN ** 2).all(axis=0)
            if doubt.any():
                cols = np.flatnonzero(doubt)
                rho = coordinate_densities(c[:, :, cols], g.dim)
                healthy[cols] &= (np.abs(rho).reshape(
                    len(g.members), len(cols), -1).max(axis=2)
                    <= NORM_CAP).all(axis=0)
            norms.append(np.sqrt(sq))
        bad = active & ~healthy
        if bad.any():
            first = int(np.nonzero(bad)[0][0])
            if policy == "abort":
                raise TrajectoryBlowupError(t=t, trajectory=start + first)
            blowups.extend((start + int(b)) for b in np.nonzero(bad)[0])
            active[bad] = False
        return norms

    def sources(g):
        """Per particle of the group, ``matrices(index)`` (see ``_solve``)
        and its upper-entry planes (12, count) for a d = 3 group."""
        c = g.coords[:, :, live]
        planes = np.matmul(g.screen, c) if g.dim == 3 else [None] * len(c)
        return [(lambda index, cj=cj: _assemble(
            _rebuild(cj[:, index], g.maps[0]), g.maps), e)
            for cj, e in zip(c, planes)]

    def lowest(g, src, on, norms):
        """(K, count) smallest eigenvalues of the group's trajectories
        ``on`` where known (NaN where the d = 3 screen left them unsolved;
        inf off ``on``), and the mask of those below -positivity_tol."""
        sel = _selection(on, count)
        vals = np.full((len(g.members), count), np.inf)
        if g.dim == 2:
            # rho = (c_0 + c . sigma) / sqrt(2): eigenvalues
            # (c_0 +- |(c_1, c_2, c_3)|) / sqrt(2)
            c = g.coords[:, :, live][:, :, sel]
            norm = np.sqrt(c[:, 1] ** 2 + c[:, 2] ** 2 + c[:, 3] ** 2)
            vals[:, sel] = (c[:, 0] - norm) / np.sqrt(2.0)
            return vals, ~(vals >= -positivity_tol).all(axis=0)
        below = np.zeros(count, dtype=bool)
        for j, (matrices, e) in enumerate(src):
            exact = np.full(len(on), np.nan)
            if g.dim > 3:
                exact[:] = _min_eigvalsh(matrices(on))
                below[sel] |= ~(exact >= -positivity_tol)
            else:
                below[sel] |= _below(e[:, sel], norms[j, sel],
                                     positivity_tol, exact,
                                     lambda index, m=matrices: m(on[index]))
            vals[j, sel] = exact
        return vals, below

    def record(r_index, t):
        norms = check(t)
        srcs = [None if g.dim == 2 else sources(g) for g in groups]
        on = np.flatnonzero(active)
        found = [lowest(g, src, on, nm)
                 for g, src, nm in zip(groups, srcs, norms)]
        viol = active & np.logical_or.reduce([below for _, below in found])
        if viol.any():
            first = int(np.nonzero(viol)[0][0])
            if policy == "abort":
                eig = np.empty(n)
                for g, src, (vals, _) in zip(groups, srcs, found):
                    for j, k in enumerate(g.members):
                        eig[k] = vals[j, first]
                        if np.isnan(eig[k]):
                            eig[k] = _min_eigvalsh(src[j][0]([first]))[0]
                pk = int(np.argmin(eig))
                raise PositivityViolationError(
                    t=t, particle=pk, min_eig=float(eig[pk]),
                    tol=positivity_tol, trajectory=start + first)
            pos_skips.extend((start + int(b)) for b in np.nonzero(viol)[0])
            active[viol] = False
        min_eigs = np.full((len(starts), n), np.inf)
        on = np.flatnonzero(active)
        sel, seg = _selection(on, count), np.searchsorted(on, starts)
        for g, src, nm, (vals, _) in zip(groups, srcs, norms, found):
            if g.dim != 3:
                min_eigs[:, g.members] = np.minimum.reduceat(
                    np.where(active, vals, np.inf), starts, axis=1).T
                continue
            for j, (k, (matrices, e)) in enumerate(zip(g.members, src)):
                min_eigs[:, k] = _screened_minima(
                    e[:, sel], nm[j, sel], seg, vals[j, sel],
                    lambda index, m=matrices: m(on[index]))
        on_record(r_index, t, coords, active.copy(), min_eigs)

    record(0, times[0])
    step = 0
    r_index = 0
    # diverging trajectories are caught by the norm/NaN guards; their
    # intermediate overflow arithmetic is expected under the skip policy
    with np.errstate(over="ignore", invalid="ignore"):
        while step < n_steps:
            chunk = min(chunk_steps, n_steps - step)
            dal = _draw_noise_chunk(rngs, chunk, p, rank, dt)
            for i in range(chunk):
                normals[..., live] = dal[:, i].transpose(1, 2, 0)
                np.matmul(noise_factor, normals,
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
                    record(r_index, times[r_index])
                elif step % CHECK_STRIDE == 0:
                    check(step * dt)
            del dal  # the next chunk is drawn without this one alive

    return BlockStats(blowups=tuple(blowups),
                      positivity_skips=tuple(pos_skips))
