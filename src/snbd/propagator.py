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

The record path stays on the coordinates, in one object (``_Records``),
and runs ``RECORD_BATCH`` = 8 records at a time.  At each record the step
loop copies C into a snapshot buffer; the pending snapshots are processed
together when the buffer is full, when a divergence check between records
finds a diverged column (the pending records first, so every abort and
skip happens in time order) and after the last step.  A batch is read
once, over the trajectories active at its start, in passes that each move
forward: the columns' first divergences, every drop, each record's minima
over its final mask, and in time order each record's drops and the call
to ``on_record`` with its snapshot.  Everything the ensemble sums is
linear in it (ensemble notes).  The steps never read the mask, so
deferring the monitors changes no step, and every product keeps its
per-record shape (stacked matmuls, the reductions along the same axes),
so it changes no bit either.  The monitors read as little as they must:

- the divergence check reads ||c_k||_2 = ||rho_k||_F >= max |rho_ij|, and
  rebuilds only a column too large for that bound to settle (the trace
  and Hermiticity need no reading, see above and ``_upper_map``);
- a spin-1/2's smallest eigenvalue is closed-form in its coordinates;
  a d = 3 density's is eigvalsh's, but a certified screen hands eigvalsh
  only the few densities that can decide a record's minimum
  (``_screened_values``): a floating-point LDL^H of rho - (s + sigma) I
  with positive pivots proves that eigvalsh reads more than s, where the
  allowance sigma = 2^-40 (||rho||_F + |s|) is over 30 times the error
  bound it must cover (``_ldl_positive``);
- a larger particle takes eigvalsh over its group, before a divergence;
- the positivity test takes a verdict only where a minimum is below -tol,
  or a d = 3 density fails the same certificate at s = -tol, which needs
  ||rho||_F >= tol; eigvalsh decides what the certificate cannot clear
  (``_verdicts``).  Each d = 3 group keeps one memo of the eigvalsh
  minima solved in a batch, so the verdicts and the screen solve each
  density at most once.

A density handed to eigvalsh is rebuilt as a matrix, exactly Hermitian
(the lower triangle the conjugate of the upper), by term-by-term
arithmetic whose bits do not depend on which densities are formed, so
every decision (divergence, positivity, the batch's minimum) is bit for
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
The normals are therefore the same bits whichever process draws them,
and every process draws its own batch's in place (``_noise_chunks``):
a second CPU is spent stepping other trajectories, which need no
communication, in a pool worker or a serial run's forked sibling
(``ensemble._paired_results``).

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

#: Records propagate_block processes together: it snapshots each
#: record's coordinates and runs the record-time monitors and on_record
#: over this many at a time (see the module notes).
RECORD_BATCH = 8

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

#: The d = 3 screen's margin on the batch's least closed-form estimate,
#: relative to 1 + |estimate|; it sets how many matrices reach eigvalsh,
#: not the value the batch reads.
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

    def densities(self, c: np.ndarray) -> np.ndarray:
        """(..., B, d, d) the matrices eigvalsh reads, from coordinates
        (..., d^2, B) (``coordinate_densities``)."""
        return _assemble(_rebuild(c, self.maps[0]), self.maps)

    def lowest(self, c: np.ndarray) -> np.ndarray:
        """(..., B) each density's smallest eigenvalue from coordinates
        (..., d^2, B): a spin-1/2's in closed form, eigvalsh's otherwise."""
        if self.dim > 2:
            return _min_eigvalsh(self.densities(c))
        # rho = (c_0 + c . sigma) / sqrt(2): eigenvalues
        # (c_0 +- |(c_1, c_2, c_3)|) / sqrt(2)
        norm = np.sqrt(c[..., 1, :] ** 2 + c[..., 2, :] ** 2
                       + c[..., 3, :] ** 2)
        return (c[..., 0, :] - norm) / np.sqrt(2.0)


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
    degenerate pair, so it only steers ``_screened_values``, whose result
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


def _verdicts(e: np.ndarray, norms: np.ndarray, tol, solve) -> np.ndarray:
    """Each 3 x 3 density's smallest eigvalsh eigenvalue, or +inf where a
    certificate proves it above -tol, from their planes e (12, ..., M) and
    Frobenius norms (..., M), with ``tol`` a number or an array that
    broadcasts to them: an LDL^H of rho + (tol - sigma) I that passes.
    Only the rest are solved: ``solve(index)`` gives eigvalsh's minima of
    the densities at flat indices into (..., M).  So a value is below -tol
    exactly where eigvalsh's is, and a cleared one is never the least
    (+inf, not NaN, which argmin picks)."""
    out = np.full(norms.shape, np.inf)
    index = np.flatnonzero(~_ldl_positive(e, _allowance(norms, tol) - tol))
    if len(index):
        out.reshape(-1)[index] = solve(index)
    return out


def _screened_values(e: np.ndarray, norms: np.ndarray, estimates: np.ndarray,
                     solve) -> np.ndarray:
    """Values for the 3 x 3 densities given by their planes e (12, ..., M),
    Frobenius norms and ``_trig_min_estimate`` values (..., M), one batch
    per leading index, M > 0.  A value is eigvalsh's own where the density
    is solved and +inf where it is ruled out, so a batch's least value is,
    bit for bit, its smallest eigvalsh eigenvalue and the argmin holds it.
    eigvalsh runs on few densities (``solve``, see ``_verdicts``).

    A batch's bound m is its least estimate plus a margin.  A density
    whose LDL^H of rho - (m + sigma) I passes has an eigvalsh value > m and
    is ruled out (``_verdicts`` at tol = -m); the rest are solved.  If
    their least value mu is at most m, every ruled-out value is above it
    and mu is the minimum; otherwise every density of the batch is solved.
    So the estimate's accuracy sets only how many are solved.
    """
    bound = _screen_bound(estimates.min(axis=-1, keepdims=True))
    out = _verdicts(e, norms, -bound, solve)
    rows = out.reshape(-1, out.shape[-1])
    unsettled = np.flatnonzero(rows.min(axis=1) > bound.reshape(-1))
    if len(unsettled):
        m = rows.shape[1]
        index = (unsettled[:, None] * m + np.arange(m)).reshape(-1)
        rows[unsettled] = solve(index).reshape(-1, m)
    return out


def _screen_bound(low):
    """The d = 3 screen's bound m on a batch whose least closed-form
    estimate is ``low``."""
    return low + ESTIMATE_MARGIN * (1.0 + np.abs(low))


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


def _noise_chunks(rngs, n_steps, p, r, dt):
    """The noise of n_steps steps, ``_draw_noise_chunk`` by chunks of at
    most ``NOISE_CHUNK_BYTES`` (one step when a single step is larger),
    each drawn when the next one is asked for."""
    size = max(1, NOISE_CHUNK_BYTES // max(1, 8 * len(rngs) * p * r))
    for at in range(0, n_steps, size):
        yield _draw_noise_chunk(rngs, min(size, n_steps - at), p, r, dt)


class _Minima:
    """What the positivity test reads of one group over a record batch,
    formed once over the trajectories ``on`` (``sel``: a slice when that
    is all) of its live columns ``c``, (R, K, d^2, count).  A d != 3 group
    holds its minima (R, K, M), for d > 3 only where ``need`` (R, M) holds
    and +inf elsewhere; a d = 3 group its planes e (12, R, K, M), norms
    and estimates, and a memo of eigvalsh minima, NaN until solved and
    +inf once a drop takes the density out."""

    def __init__(self, group, c, squares, on, sel, need):
        self.group, self.c, self.on = group, c, on
        self.values = group.lowest(c[..., sel]) if group.dim == 2 else None
        if group.dim > 3:
            self.values = np.full(c.shape[:2] + (len(on),), np.inf)
            q, m = np.nonzero(need)
            self.values[q, :, m] = group.lowest(
                np.moveaxis(c[q, :, :, on[m]], 0, -1)).T
        elif group.dim == 3:
            self.e = np.moveaxis(np.matmul(group.screen, c), 2, 0)[..., sel]
            self.norms = np.sqrt(squares[..., sel])
            self.estimates = _trig_min_estimate(self.e)
            self.memo = np.full(self.norms.shape, np.nan)

    def solve(self, want):
        """The eigvalsh minima at flat positions ``want`` of the memo, each
        density solved once per batch, whichever pass asks for it."""
        flat = self.memo.reshape(-1)
        new = want[np.isnan(flat[want])]
        if len(new):
            i, k, m = np.unravel_index(new, self.memo.shape)
            flat[new] = _min_eigvalsh(
                self.group.densities(self.c[i, k, :, self.on[m]].T))
        return flat[want]

    def suspects(self, tol):
        """(R, K, M) the densities whose minimum, or certificate for d = 3,
        does not clear -tol; the certificate only where ||rho||_F reaches
        tol, as |lambda_min| <= ||rho||_F (the sum is never inf - inf)."""
        if self.values is not None:
            return ~(self.values >= -tol)
        out = self.norms + _allowance(self.norms, 0.0) >= tol
        if out.any():
            norms = self.norms[out]
            out[out] = ~_ldl_positive(self.e[:, out],
                                      _allowance(norms, tol) - tol)
        return out

    def verdicts(self, q, cols, tol):
        """(K, len(cols)) record q's minima at positions ``cols`` of ``on``,
        for d = 3 their ``_verdicts``."""
        if self.values is not None:
            return self.values[q][:, cols]
        pos = np.arange(self.memo.size).reshape(self.memo.shape)[q][:, cols]
        return _verdicts(self.e[:, q][..., cols], self.norms[q][..., cols],
                         tol, lambda index: self.solve(pos.reshape(-1)[index]))

    def least(self, cut, mask):
        """(cut, K, M) the first ``cut`` records' values, +inf where
        ``mask`` (cut, M) drops, for d = 3 by ``_screened_values``: each
        batch's least is its minimum over what ``mask`` keeps."""
        if self.values is not None:
            return np.where(mask[:, None], self.values[:cut], np.inf)
        np.copyto(self.memo[:cut], np.inf, where=~mask[:, None])
        return _screened_values(self.e[:, :cut], self.norms[:cut], np.where(
            mask[:, None], self.estimates[:cut], np.inf), self.solve)


class _Records:
    """The record path of one ``propagate_block`` call (module notes): the
    snapshots, the checks, the active mask and the two skip lists."""

    def __init__(self, groups, coords, times, start, count, live, n,
                 on_record, tol, abort):
        self.groups, self.coords, self.times = groups, coords, times
        self.start, self.count, self.live, self.n = start, count, live, n
        self.on_record, self.tol, self.abort = on_record, tol, abort
        self.active = np.ones(count, dtype=bool)
        self.blowups, self.positivity_skips = [], []
        # the snapshots of the records not yet processed, (R, sum K d^2, W),
        # and each group's rows of them, (R, K, d^2, W)
        depth = min(RECORD_BATCH, len(times))
        self.snaps = np.empty((depth,) + coords.shape)
        cuts = np.cumsum([g.coords[:, :, 0].size for g in groups])[:-1]
        self.snap_groups = [v.reshape((depth,) + g.coords.shape) for g, v in
                            zip(groups, np.split(self.snaps, cuts, axis=1))]
        self.pending = []       # the record index of each snapshot, in order

    def record(self, r_index):
        np.copyto(self.snaps[len(self.pending)], self.coords)
        self.pending.append(r_index)
        if len(self.pending) == len(self.snaps):
            self.flush()

    def check(self, t):
        """The divergence check between records: a diverged column waits
        for the pending records, which come first and may drop it."""
        cs = [g.coords for g in self.groups]
        bad = self._diverged(cs, self._squares(cs), self.active)
        if bad.any():
            self.flush()
            bad &= self.active
            if bad.any():
                if self.abort:
                    raise TrajectoryBlowupError(
                        t=t, trajectory=self.start + int(np.argmax(bad)))
                self.blowups += (self.start + np.flatnonzero(bad)).tolist()
                self.active[bad] = False

    def _squares(self, cs):
        """Per group each density's squared coordinate norm ||rho_k||_F^2,
        (..., K, count), from its coordinates (..., K, d^2, W)."""
        return [(c[..., self.live] * c[..., self.live]).sum(axis=-2)
                for c in cs]

    def _diverged(self, cs, sq, on):
        """The columns of ``on`` that diverged at one time, from the groups'
        coordinates (K, d^2, W) and ``_squares``.

        A column whose coordinates have a 2-norm, which is ||rho_k||_F >=
        max |rho_ij|, within ``NORM_SCREEN`` is healthy; any other column,
        NaN included, is rebuilt and diverged when an entry is NaN/Inf or
        beyond NORM_CAP, which only an unstable path can reach (NaN <=
        NORM_CAP is false).
        """
        healthy = np.ones(self.count, dtype=bool)
        for g, c, s in zip(self.groups, cs, sq):
            doubt = on & ~(s <= NORM_SCREEN ** 2).all(axis=0)
            if doubt.any():
                cols = np.flatnonzero(doubt)
                rho = coordinate_densities(c[:, :, self.live][:, :, cols],
                                           g.dim)
                healthy[cols] &= (np.abs(rho).reshape(
                    len(g.members), len(cols), -1).max(axis=2)
                    <= NORM_CAP).all(axis=0)
        return on & ~healthy

    def flush(self):
        """Process the pending records in four passes, each forward once:
        1. each column's first divergence, where it leaves the norm screen;
        2. every drop: at each record with a divergence, or a minimum or
           certificate below -tol (``_Minima.suspects``), the divergences,
           then the survivors' verdicts; an abort stops at its first drop;
        3. each record's minima, once, over its final mask;
        4. in time order, each record's drops (an abort raises there), then
           on_record."""
        tol, n_rec = self.tol, len(self.pending)
        cs = [v[:n_rec] for v in self.snap_groups]
        sq = self._squares(cs)
        on = np.flatnonzero(self.active)
        sel = slice(None) if len(on) == self.count else on
        doubt = ~np.logical_and.reduce(
            [(s <= NORM_SCREEN ** 2).all(axis=1) for s in sq])
        first = np.full(self.count, n_rec)      # each column's divergence
        for q in np.flatnonzero((doubt & self.active).any(axis=1)):
            first[self._diverged([c[q] for c in cs], [s[q] for s in sq],
                                 self.active & (first == n_rec))] = q
        # d > 3 minima only before a column's divergence (abort: the first)
        ends = np.minimum(first, first.min()) if self.abort else first
        need = np.arange(n_rec)[:, None] < ends[on]
        parts = [_Minima(g, c[..., self.live], s, on, sel, need)
                 for g, c, s in zip(self.groups, cs, sq)]
        low = np.logical_or.reduce([x.suspects(tol).any(axis=1)
                                    for x in parts])

        alive, drops = self.active.copy(), {}
        none = np.zeros(0, dtype=int)           # no trajectory
        gone = np.full(self.count, n_rec)      # the record of each drop
        visit = low.any(axis=1)
        visit[first[first < n_rec]] = True
        for q in np.flatnonzero(visit):
            bad = np.flatnonzero(alive & (first == q))
            alive[bad] = False
            out, eig = none, None
            if not (len(bad) and self.abort):
                cols = np.flatnonzero(low[q] & alive[on])
                eig = np.full((self.n, len(cols)), np.inf)
                for x in parts:
                    eig[x.group.members] = x.verdicts(q, cols, tol)
                viol = ~(eig >= -tol).all(axis=0)
                out, eig = on[cols[viol]], eig[:, viol]
                alive[out] = False
            if len(bad) or len(out):
                drops[q] = (bad, out, eig)
                gone[bad] = gone[out] = q
                if self.abort:
                    break

        cut = min(drops) if self.abort and drops else n_rec
        mask = np.arange(cut)[:, None] < gone[on]
        least = np.full((cut, self.n), np.inf)
        if len(on):
            for x in parts:
                least[:, x.group.members] = x.least(cut, mask).min(axis=-1)

        for q, r_index in enumerate(self.pending):
            t = self.times[r_index]
            bad, out, eig = drops.get(q, (none, none, None))
            if self.abort and len(bad):
                raise TrajectoryBlowupError(
                    t=t, trajectory=self.start + int(bad[0]))
            if self.abort and len(out):
                pk = int(np.argmin(eig[:, 0]))
                raise PositivityViolationError(
                    t=t, particle=pk, min_eig=float(eig[pk, 0]), tol=tol,
                    trajectory=self.start + int(out[0]))
            self.blowups += (self.start + bad).tolist()
            self.positivity_skips += (self.start + out).tolist()
            self.active[bad] = self.active[out] = False
            if not (least[q] >= -tol).all():
                raise ContractViolationError(
                    f"t={t:.6g}: the screen reads a minimum below "
                    f"-{tol:.3e}, but no trajectory's verdict does")
            self.on_record(r_index, t, self.snaps[q], self.active.copy(),
                           least[q].copy())
        self.pending.clear()


def padded_width(start: int, count: int) -> int:
    """W, the columns of the coordinates C that ``propagate_block`` steps
    for trajectories [start, start + count): trajectory start + j sits in
    column start % COLUMN_ALIGN + j, and W is the next multiple of
    COLUMN_ALIGN."""
    return -(-(start % COLUMN_ALIGN + count) // COLUMN_ALIGN) * COLUMN_ALIGN


def propagate_block(spec: SystemSpec, master_seed: int, start: int, count: int,
                    t_final: float, dt: float, record_stride: int,
                    on_record, *, positivity_tol: float = None,
                    policy: str = "abort") -> BlockStats:
    """Propagate trajectories [start, start + count) in lockstep.

    ``on_record(record_index, t, coords, active, min_eigs)`` is called once
    for every time t of ``TimeGrid(t_final, dt, record_stride).times``, in
    order, with the coordinates C at t, (sum_k d_k^2, W): particle k's
    rows are ``coordinate_rows(spec.dims)[k]`` and trajectory start + j is
    column start % COLUMN_ALIGN + j (the other columns are padding).  C is
    a snapshot in a buffer of the propagator's, valid during the call
    only.  ``active`` is the mask of trajectories still active after this
    record's checks and ``min_eigs`` (N,) each particle's smallest
    eigenvalue over those trajectories, inf when there are none.  A
    minimum is exact, so the minima of any split of the trajectories,
    merged with ``np.minimum``, are the batch's.

    The records are processed ``RECORD_BATCH`` at a time by ``_Records``
    (see the module notes), which changes no step, no decision and no bit
    of what on_record is handed: the steps never read the mask, and every
    abort and skip happens in time order.  A minimum is eigvalsh's, bit
    for bit, or a spin-1/2's closed form, although a d = 3 particle solves
    only the few matrices a certified screen cannot rule out.

    Each trajectory consumes its own Philox stream, so results are
    independent of how trajectories are grouped into blocks or distributed
    over workers.  The noise is drawn here, in chunks of at most
    ``NOISE_CHUNK_BYTES`` (one step when a single step of the batch is
    larger), each drawn when the steps reach it; chunking changes no bit.

    ``policy`` is "abort" (raise on the first divergence, an entry NaN,
    inf or beyond ``NORM_CAP``, or positivity violation, at the check or
    recording time where it is detected) or "skip"
    (deactivate the offending trajectories and keep going; skipped
    indices are reported in the returned stats).

    The particles of each dimension form one group, side by side in every
    (N, ..., W) array of a step; the groups couple only through the noise
    and mean-field factors Z and L (see the module notes).
    """
    if policy not in BLOWUP_POLICIES:
        raise ConfigError(f"unknown blowup policy {policy!r}")
    grid = TimeGrid(t_final, dt, record_stride)
    n_steps, times = grid.n_steps, grid.times
    if positivity_tol is None:
        positivity_tol = positivity_tolerance(dt, spec, t_final)
    n = spec.n_particles
    p = len(spec.terms)

    # trajectory j in column j - COLUMN_ALIGN * (start // COLUMN_ALIGN)
    live = slice(start % COLUMN_ALIGN, start % COLUMN_ALIGN + count)
    width = padded_width(start, count)
    groups, coords, mean_field = _dim_groups(spec, width, dt)
    noise_factor = _noise_factor(sqrt_noise_factors(spec.terms),
                                 [k for g in groups for k in g.members])
    rank = noise_factor.shape[2]
    # one step's normals, rows (s; r) as Z reads them; the padding
    # columns stay zero, so their noise rows do too
    normals = np.zeros((p, rank, width))
    zw = np.empty((p, 2, n, width))         # Re, Im of z_s W_k^s
    fields = np.empty((2, n, p, width))     # Obar, -dt omega_s sum_{l != k} Obar_l
    # u = [Re coeff, Im coeff, 1, Re g0] per particle, trajectories last
    u = np.zeros((n, 2 * p + 2, width))
    u[:, 2 * p] = 1.0
    re, im, g0 = u[:, :p], u[:, p:2 * p], u[:, 2 * p + 1]

    chunks = _noise_chunks(
        [trajectory_rng(master_seed, start + b) for b in range(count)],
        n_steps, p, rank, dt)
    records = _Records(groups, coords, times, start, count, live, n,
                       on_record, positivity_tol, policy == "abort")
    records.record(0)
    step = 0
    r_index = 0
    # diverging trajectories are caught by the norm/NaN guards; their
    # intermediate overflow arithmetic is expected under the skip policy
    with np.errstate(over="ignore", invalid="ignore"):
        for dal in chunks:
            for i in range(dal.shape[1]):
                normals[..., live] = dal[:, i].transpose(1, 2, 0)
                np.matmul(noise_factor, normals,
                          out=zw.reshape(p, 2 * n, width))
                np.matmul(mean_field, coords, out=fields.reshape(-1, width))
                re[...] = zw[:, 0].swapaxes(0, 1)
                np.add(zw[:, 1].swapaxes(0, 1), fields[1], out=im)
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
                    records.record(r_index)
                elif step % CHECK_STRIDE == 0:
                    records.check(step * dt)
            del dal  # the next chunk is drawn without this one alive
        if records.pending:
            records.flush()

    return BlockStats(blowups=tuple(records.blowups),
                      positivity_skips=tuple(records.positivity_skips))
