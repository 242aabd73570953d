"""Monte Carlo ensemble engine.

Runs M independent trajectories and accumulates everything needed
downstream: per-trajectory products for observables, tensor products of
the one-body densities (optional, desk-scale validation only), and the
reference-vector contractions used for wavefunction recovery.

Trajectories are grouped into fixed blocks, the resampling unit of the
jackknife error bars; block boundaries depend only on (M, n_blocks).
Consecutive blocks of one width are propagated together, as one batch of
up to ``LOCKSTEP_WIDTH`` trajectories, and each block's sums are reduced
from its own slice of the batch, so results are bitwise independent of
that grouping and of the worker count.  Each run's minimum eigenvalues
are merged with ``np.minimum``, which no split of the runs can change.

Every record sum is read from the coordinates propagate_block steps,
c_k with rho_k = sum_a c_{k,a} B_a in an orthonormal Hermitian basis,
through a left factor built once per run.  An observable factor is
Tr{A_k rho_k} = a_k . c_k with a_k the (real) coordinates of A_k, and a
reference vector rho_k |i_k> is linear in c_k too, so all of a record's
observable factors and reference vectors are one real GEMM over the
batch's columns (``_record_factor``).  A block's
sum of tensor products, sum_b kron_k rho_k^b, is kept as the real
coordinate sum X^T @ Y: X holds particle 1's coordinates per trajectory
and Y the per-trajectory Kronecker product of the others', and a
trajectory no longer active enters both as zero.  ``coordinate_density``
turns such sums into (D, D) matrices, one particle mode at a time, where
``estimate_density`` and the jackknife read them.  No per-trajectory
(D, D) product is formed; the largest record-time array is Y,
prod_{k>=2} d_k^2 reals per trajectory of the batch and record summed
together, which the memory gate counts with the record sums.

on_record copies each record it is handed and sums ``RECORD_BATCH`` of
them at a time, the last ones when the final record arrives.  Every sum
keeps its per-record shape along a leading record axis: the products are
stacked matmuls, one GEMM per record, and every reduction runs along the
same axis in the same order, so the sums are bitwise those of one record
at a time.
"""

import os
from contextlib import closing, nullcontext
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import (
    ConfigError,
    DimensionLimitError,
    MissingDataError,
    ShapeError,
    WorkerLostError,
)
from .linalg import frozen_cmatrix, require_hermitian
from .propagator import (
    COLUMN_ALIGN,
    RECORD_BATCH,
    NoiseHelper,
    TimeGrid,
    coordinate_rows,
    padded_width,
    propagate_block,
)
from .system import (
    SystemSpec,
    build_hermitian_basis,
    embed,
    hermitian_coordinates,
)

#: Cap on the memory of a run's record sums.
DEFAULT_MEMORY_LIMIT = 512 * 1024 * 1024

#: Trajectories one propagate_block call steps together, at most: a run of
#: whole consecutive blocks (one block when a block alone is wider).
LOCKSTEP_WIDTH = 512


@dataclass(frozen=True)
class ObservableSpec:
    """A product observable: one Hermitian factor per particle (None = identity)."""

    name: str
    factors: tuple

    def __post_init__(self):
        if not self.name:
            raise ConfigError("observable needs a nonempty name")
        factors = tuple(
            None if f is None else frozen_cmatrix(
                require_hermitian(f, f"observable {self.name!r}, factor {k}"))
            for k, f in enumerate(self.factors)
        )
        object.__setattr__(self, "factors", factors)

    def materialize(self, dims) -> list:
        """Concrete per-particle factor matrices, identities filled in."""
        if len(self.factors) != len(dims):
            raise ShapeError(
                f"observable {self.name!r}: {len(self.factors)} factors for "
                f"{len(dims)} particles")
        out = []
        for k, (f, d) in enumerate(zip(self.factors, dims)):
            if f is None:
                out.append(np.eye(d, dtype=complex))
            else:
                if f.shape[0] != d:
                    raise ShapeError(
                        f"observable {self.name!r}, factor {k}: dim "
                        f"{f.shape[0]} != particle dim {d}")
                out.append(f)
        return out

    def full_matrix(self, dims) -> np.ndarray:
        return embed(dims, dict(enumerate(self.materialize(dims))))


@dataclass(frozen=True)
class EnsembleParams:
    """The ensemble of a run: its size, seed, block layout, what it keeps
    and how it treats a diverged or non-positive trajectory.

    Every field but ``worker_count`` can change the run's results.
    """

    m: int = 1
    master_seed: int = 0
    worker_count: int = 1
    n_blocks: int = 50              # jackknife units
    full_density: bool = False
    blowup_policy: str = "abort"    # one of propagator.BLOWUP_POLICIES
    positivity_tol: float = None    # None: propagator.positivity_tolerance(dt, spec, t_final)


def block_edges(m: int, n_blocks: int) -> np.ndarray:
    """Trajectory-index boundaries of the fixed blocks (n_blocks + 1 edges)."""
    if m < 1:
        raise ConfigError(f"M must be >= 1, got {m}")
    if n_blocks < 1:
        raise ConfigError(f"n_blocks must be >= 1, got {n_blocks}")
    n_blocks = min(n_blocks, m)
    base, extra = divmod(m, n_blocks)
    sizes = [base + (1 if b < extra else 0) for b in range(n_blocks)]
    return np.concatenate([[0], np.cumsum(sizes)])


def block_runs(edges, worker_count: int) -> list:
    """Runs of consecutive blocks propagated as one batch: (first, stop)
    block ranges, each of blocks of one width.

    A run holds as many blocks as fit in ``LOCKSTEP_WIDTH`` trajectories,
    at least one, and there are at least min(worker_count, n_blocks) runs
    so that every worker gets one.  The wider blocks come first
    (``block_edges``), and the runs are cut where the width changes, the
    last run of each width shorter.
    """
    widths = np.diff(edges)
    n_blocks, widest = len(widths), int(widths.max())
    per_run = max(1, min(LOCKSTEP_WIDTH // widest, n_blocks // worker_count))
    cut = int((widths == widest).sum())
    return [(b, min(b + per_run, stop))
            for lo, stop in ((0, cut), (cut, n_blocks))
            for b in range(lo, stop, per_run)]


@dataclass
class EnsembleAccumulator:
    """Block-resolved sums of an ensemble run.

    Summing blocks in ascending index order makes every estimate bitwise
    reproducible.
    """

    times: np.ndarray                # (T,)
    edges: np.ndarray                # (n_blocks + 1,)
    dims: tuple                      # the particles' dimensions
    obs_names: tuple
    recovery_refs: tuple             # per-particle reference vectors, or None
    blowups: tuple                   # skipped trajectory indices, ascending
    positivity_skips: tuple
    counts: np.ndarray               # (n_blocks, T) active trajectories
    obs_sum: np.ndarray              # (n_blocks, n_obs, T) sum of products
    obs_m2: np.ndarray               # (n_blocks, n_obs, T) their squared
                                     # deviations from the block's mean, summed
    rho_sum: np.ndarray              # (n_blocks, T, D^2) coordinates, or None
    vec_sum: np.ndarray              # (n_blocks, T, D) complex, or None
    min_eig: np.ndarray              # (T, N) over every active trajectory

    @property
    def n_blocks(self) -> int:
        return len(self.edges) - 1

    @property
    def count(self) -> int:
        """Trajectories run."""
        return int(self.edges[-1])

    @property
    def active_counts(self) -> np.ndarray:
        """(T,) trajectories contributing at each recorded time."""
        return self.counts.sum(axis=0)

    def estimate_counts(self) -> np.ndarray:
        """(T,) ``active_counts`` as floats, the divisor of every estimate,
        which needs an active trajectory at every recorded time."""
        m = self.active_counts.astype(float)
        if (m == 0).any():
            raise MissingDataError("no active trajectories at some recorded time")
        return m

    @property
    def sum_rhoN(self) -> np.ndarray:
        """(T, D, D) sum over every block of the trajectories' products."""
        if self.rho_sum is None:
            raise MissingDataError("full-density mode was not enabled")
        return coordinate_density(self.rho_sum.sum(axis=0), self.dims)

    @property
    def sum_vec(self) -> np.ndarray:
        if self.vec_sum is None:
            raise MissingDataError(
                "no reference vectors were registered before the run")
        return self.vec_sum.sum(axis=0)

    def _obs_index(self, name) -> int:
        try:
            return self.obs_names.index(name)
        except ValueError:
            raise MissingDataError(
                f"unknown observable {name!r}; registered: {list(self.obs_names)}"
            ) from None


def coordinate_density(sums: np.ndarray, dims) -> np.ndarray:
    """(..., D, D) N-body matrices from coordinate sums (..., D^2), indexed
    (a_1, ..., a_N) in the product basis kron_k build_hermitian_basis(d_k):
    sum_a S[a] kron_k B_{a_k}, formed one particle mode at a time."""
    lead = sums.shape[:-1]
    out = sums.reshape((-1,) + tuple(d * d for d in dims))
    for d in dims:
        # contracts the leading coordinate axis left and appends (i_k j_k)
        basis = np.array(build_hermitian_basis(d)).reshape(d * d, d * d)
        out = np.tensordot(out, basis, axes=([1], [0]))
    n, full = len(dims), int(np.prod(dims))
    out = out.reshape((-1,) + tuple(x for d in dims for x in (d, d)))
    out = out.transpose((0,) + tuple(range(1, 2 * n, 2))
                        + tuple(range(2, 2 * n + 1, 2)))
    return out.reshape(lead + (full, full))


def _first_and_rest(rows):
    """(X, Y) from per-particle rows (..., B, n_k): X is particle 1's rows
    and Y the per-trajectory Kronecker product of the others', (..., B,
    prod n_k), so that the sum over any set of trajectories b of
    kron_k rows_k[b] is (X_set^T @ Y_set) flattened.  Y is a column of ones for one particle.
    Each entry of Y is a product formed elementwise in a fixed order, so
    its bits do not depend on the batch."""
    first = rows[0]
    lead = first.shape[:-1]
    rest = rows[1] if len(rows) > 1 else np.ones(lead + (1,), first.dtype)
    for nxt in rows[2:]:
        rest = (rest[..., :, None] * nxt[..., None, :]).reshape(lead + (-1,))
    return first, rest


def _live_rows(columns, active):
    """(..., B, n) rows, trajectory-major, from (..., n, B) columns, an
    inactive trajectory's row as zeros (``active`` (..., B))."""
    rows = np.swapaxes(columns, -1, -2)
    out = np.zeros(rows.shape)
    np.copyto(out, rows, where=active[..., None])
    return out


def _batched_kron(coord_rows):
    """The (X, Y) factors of the records' density sums from each particle's
    coordinate rows (R, B, d_k^2): X is particle 1's and Y the
    per-trajectory Kronecker product of the others', (R, B, prod_{k>=2}
    d_k^2).  The sum over a set of trajectories of kron_k c_k, the
    coordinates of sum kron_k rho_k, is X_set^T @ Y_set flattened, per
    record."""
    return _first_and_rest(coord_rows)


def _batched_refvec(rows, dims, active):
    """The (X, Y) factors of the records' reference-vector sums, from the
    per-trajectory v_k = rho_k |i_k>: X is v_1, (R, B, d_1), and Y the
    per-trajectory Kronecker product of v_2 ... v_N; the sum over a set of
    trajectories of kron_k v_k is X_set^T @ Y_set flattened, per record.

    ``rows`` (R, sum_k 2 d_k, B) holds each particle's v_k with Re and Im
    interleaved, as its rows of the record factor (``_record_factor``)
    give them; an inactive trajectory (``active`` (R, B)) enters as
    zero."""
    v = _live_rows(rows, active).view(complex)
    edges = np.cumsum((0,) + tuple(dims))
    return _first_and_rest([v[..., a:b] for a, b in zip(edges, edges[1:])])


def _record_factor(spec, obs_stacks, refs):
    """The left factor of a run's record sums, (rows, sum_k d_k^2), whose
    product with the coordinates C gives, per trajectory, every
    observable factor and every reference vector.

    Row k n_obs + a holds the coordinates of A_k^a on particle k's
    columns, so that its product is Tr{A_k^a rho_k}; then, with
    references, each particle's 2 d_k rows hold Re and Im of B_a |i_k>
    on its columns, interleaved, so that their product is rho_k |i_k>.
    """
    cols = coordinate_rows(spec.dims)
    n_cols = sum(d * d for d in spec.dims)
    obs = np.zeros((spec.n_particles, len(obs_stacks[0]) if obs_stacks else 0,
                    n_cols))
    for k, stack in enumerate(obs_stacks):
        obs[k, :, cols[k]] = hermitian_coordinates(stack)
    blocks = [obs.reshape(-1, n_cols)]
    for k, r in enumerate(refs if refs is not None else ()):
        d = spec.dims[k]
        v = np.array(build_hermitian_basis(d)) @ r     # row a: B_a |i_k>
        block = np.zeros((2 * d, n_cols))
        block[:, cols[k]] = v.view(np.float64).T
        blocks.append(block)
    return np.concatenate(blocks)


def _block_task(spec, time, ensemble, edges, obs_stacks, refs, noise=None):
    """Propagate the trajectories of a run of consecutive blocks, whose
    boundaries are ``edges``, as one batch (worker-safe), reading the
    noise from ``noise`` when one is given (``propagate_block``).

    Returns the run's rows of the accumulator's per-block arrays by name,
    block axis first (None for a sum the run does not keep), the run's
    (T, N) minimum eigenvalues, and its two skip lists.
    """
    n = spec.n_particles
    n_obs = obs_stacks[0].shape[0] if obs_stacks else 0
    n_times = len(time.times)
    start, count = int(edges[0]), int(edges[-1] - edges[0])
    rows, width = len(edges) - 1, int(edges[1] - edges[0])
    live = slice(start % COLUMN_ALIGN, start % COLUMN_ALIGN + count)
    particle_rows = coordinate_rows(spec.dims)
    factor = _record_factor(spec, obs_stacks, refs)
    n_prod = n * n_obs        # the factor's observable rows

    def by_block(x):
        """x's trajectory rows, axis 1, as an (R, blocks, width, ...) view:
        a run's blocks are of one width (block_runs)."""
        return x.reshape((len(x), rows, width) + x.shape[2:])

    counts = np.zeros((rows, n_times), dtype=np.int64)
    obs_sum = np.zeros((rows, n_obs, n_times))
    obs_m2 = np.zeros((rows, n_obs, n_times))
    rho_sum = (np.zeros((rows, n_times, spec.full_dim ** 2))
               if ensemble.full_density else None)
    vec_sum = (np.zeros((rows, n_times, spec.full_dim), dtype=complex)
               if refs is not None else None)
    min_eig = np.empty((n_times, n))

    def xty(factors):
        """Each record's and block's X^T @ Y, (R, rows, a * b)."""
        x, y = map(by_block, factors)
        return (x.swapaxes(-1, -2) @ y).reshape(x.shape[:2] + (-1,))

    # the records on_record has copied and not yet summed
    depth = min(RECORD_BATCH, n_times)
    held_coords = np.empty((depth, factor.shape[1],
                            padded_width(start, count)))
    held_active = np.empty((depth, count), dtype=bool)
    held = []

    def on_record(r, t, coords, active, mins):
        min_eig[r] = mins
        held_coords[len(held)] = coords
        held_active[len(held)] = active
        held.append(r)
        if len(held) == depth or r == n_times - 1:
            add_records(slice(held[0], r + 1), len(held))
            held.clear()

    def add_records(times, k):
        """Sum the k held records, at ``times``, into each block's rows."""
        coords, active = held_coords[:k], held_active[:k]
        counts[:, times] = by_block(active).sum(axis=2, dtype=np.int64).T
        filled = counts[:, times].T > 0         # (R, blocks)
        if not filled.any():
            return

        def put(out, sums):
            """out (blocks, n, T) at ``times`` from sums (R, blocks, n)
            where the block has an active row; the rest keep their
            zeros."""
            out[..., times] = np.moveaxis(
                np.where(filled[..., None], sums, 0.0), 0, -1)

        # inactive (diverged) trajectories still sit in the batch; their
        # entries may overflow but never reach a sum.  Each block reduces
        # its own rows, as it would alone, with an inactive row entering as
        # an exact identity: -0.0 in the observable sums, zero coordinates
        # in the tensor products X^T @ Y (see _first_and_rest; no (B, D, D)
        # array is formed).  A block with no active row keeps its zeros.
        # The spread is summed about the block's own mean, an inactive row
        # entering as +0.0, so it does not cancel (estimate_product_observable).
        # Every product and sum keeps its per-record shape: a stacked
        # product over the leading record axis makes one per record.
        with np.errstate(over="ignore", invalid="ignore"):
            # one product over every column: a column's bits rest on the
            # column property (propagator notes)
            prods = np.matmul(factor, coords)[..., live]
            if n_obs:
                # Tr{A_k rho_k} per particle, then their product in order
                v = prods[:, :n_prod].reshape(k, n, n_obs, count)
                vals = v[:, 0]
                for j in range(1, n):
                    vals = vals * v[:, j]
                vals = vals.swapaxes(1, 2)
                on = active[..., None]
                sums = by_block(np.where(on, vals, -0.0)).sum(axis=2)
                put(obs_sum, sums)
                mean = sums / np.maximum(counts[:, times].T, 1)[..., None]
                # formed on the run's rows, then viewed by block: the sum's
                # order follows dev's memory order
                dev = by_block(np.where(
                    on, vals - np.repeat(mean, width, axis=1), 0.0))
                put(obs_m2, (dev * dev).sum(axis=2))
            if rho_sum is not None:
                c = _live_rows(coords[..., live], active)
                put(rho_sum.swapaxes(1, 2), xty(_batched_kron(
                    [c[..., rs] for rs in particle_rows])))
            if vec_sum is not None:
                put(vec_sum.swapaxes(1, 2), xty(_batched_refvec(
                    prods[:, n_prod:], spec.dims, active)))

    stats = propagate_block(
        spec, ensemble.master_seed, start, count, time.t_final, time.dt,
        time.record_stride, on_record,
        positivity_tol=ensemble.positivity_tol, policy=ensemble.blowup_policy,
        noise=noise)
    sums = dict(counts=counts, obs_sum=obs_sum,
                obs_m2=obs_m2, rho_sum=rho_sum, vec_sum=vec_sum)
    return sums, min_eig, stats.blowups, stats.positivity_skips


def _take(pending: dict, future) -> tuple:
    """(index, result) of a finished future, dropped from ``pending``."""
    return pending.pop(future), future.result()


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_results(tasks, worker_count, draw_ahead):
    """(index, _block_task result) for every task.  Serial runs draw
    their noise in a ``NoiseHelper`` process when ``draw_ahead``, ended
    when the generator ends or is closed.  On a pool, a task is
    submitted when a worker is free and a finished one's result has been
    taken, so at most ``worker_count`` results exist at a time, finished
    or not, the one the caller holds included (no reference to a taken
    future or result stays here); they arrive in the order they
    complete.  A worker that dies (killed, or out of memory) breaks the
    pool: that raises WorkerLostError."""
    if worker_count <= 1:
        plan = [(int(edges[0]), int(edges[-1] - edges[0]))
                for _, _, _, edges, _, _ in tasks]
        with (NoiseHelper(tasks[0][2].master_seed, plan) if draw_ahead
              else nullcontext()) as noise:
            for i, task in enumerate(tasks):
                yield i, _block_task(*task, noise=noise)
        return
    # imported here, so that a serial run and ``snbd validate`` skip it
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool
    todo = enumerate(tasks)
    try:
        with ProcessPoolExecutor(max_workers=min(worker_count,
                                                 len(tasks))) as pool:
            pending = {pool.submit(_block_task, *task): i
                       for i, task in islice(todo, worker_count)}
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                while done:
                    yield _take(pending, done.pop())
                    for i, task in islice(todo, 1):
                        pending[pool.submit(_block_task, *task)] = i
    except BrokenProcessPool as exc:
        raise WorkerLostError(
            f"a worker process ended before its run finished ({exc})") from exc


def run_ensemble(spec: SystemSpec, time: TimeGrid, ensemble: EnsembleParams,
                 observables=(), refs=None) -> EnsembleAccumulator:
    """Run the ensemble's M trajectories and return the filled accumulator.

    ``refs`` are the per-particle reference vectors of wavefunction
    recovery, or None.  Trajectory j always uses the Philox stream keyed
    by (master_seed, j); block boundaries depend only on (M, n_blocks).
    The result is therefore identical for any worker count.
    """
    times = time.times
    observables = tuple(observables)
    names = tuple(o.name for o in observables)
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate observable names in {names}")

    edges = block_edges(ensemble.m, ensemble.n_blocks)
    n_blocks = len(edges) - 1
    runs = block_runs(edges, ensemble.worker_count)
    # the accumulator's record sums and minima, plus, for each run in
    # flight (one per worker), the rows it fills, its own minima, the two
    # snapshot buffers of its records (the propagator's and on_record's,
    # RECORD_BATCH records of its padded width each) and, for the full
    # density, the Y factor it forms over the run's width for as many
    # records.  A block's row per record: its count, each observable's sum
    # and spread, and the density's coordinate sums and the complex
    # reference-vector sums when kept; the minima, (T, N), are per run
    d = spec.full_dim
    per_row = len(times) * (
        8 + 16 * len(observables)
        + (8 * d * d if ensemble.full_density else 0)
        + (16 * d if refs is not None else 0))
    minima = len(times) * 8 * spec.n_particles
    in_flight = min(ensemble.worker_count, len(runs))
    rows = max(stop - first for first, stop in runs)
    width = max(int(edges[stop] - edges[first]) for first, stop in runs)
    depth = min(RECORD_BATCH, len(times))
    snapshots = 2 * depth * 8 * sum(k * k for k in spec.dims) * max(
        padded_width(int(edges[first]), int(edges[stop] - edges[first]))
        for first, stop in runs)
    y = (depth * width * 8 * d * d // spec.dims[0] ** 2
         if ensemble.full_density else 0)
    total = (per_row * n_blocks + minima
             + in_flight * (per_row * rows + minima + snapshots + y))
    if total > DEFAULT_MEMORY_LIMIT:
        raise DimensionLimitError(
            f"the record sums need ~{total // (1 << 20)} MiB, "
            f"over the {DEFAULT_MEMORY_LIMIT // (1 << 20)} MiB limit")

    if refs is not None:
        refs = tuple(np.ascontiguousarray(r, dtype=complex) for r in refs)
        if len(refs) != spec.n_particles:
            raise ConfigError(
                f"{len(refs)} reference vectors for {spec.n_particles} particles")
        for k, (r, d) in enumerate(zip(refs, spec.dims)):
            if r.shape != (d,):
                raise ConfigError(
                    f"reference vector {k} has shape {r.shape}, expected ({d},)")

    obs_stacks = []
    if observables:
        per_particle = [o.materialize(spec.dims) for o in observables]
        obs_stacks = [
            np.stack([per_particle[a][k] for a in range(len(observables))])
            for k in range(spec.n_particles)
        ]

    tasks = [(spec, time, ensemble, edges[first:stop + 1], obs_stacks, refs)
             for first, stop in runs]
    # one run at a time leaves a CPU to draw the next chunk's noise on
    draw_ahead = (in_flight == 1 and hasattr(os, "fork")
                  and _usable_cpus() >= 2)
    sums, blowups, positivity_skips = None, (), ()
    min_eig = np.full((len(times), spec.n_particles), np.inf)
    # closed on every exit, so no helper or worker outlives the call
    with closing(_run_results(tasks, ensemble.worker_count,
                              draw_ahead)) as results:
        for i, (run_sums, run_min, blown, skipped) in results:
            # the runs tile the blocks, so every row is written by one run,
            # in whatever order the runs arrive
            first, stop = runs[i]
            if sums is None:
                sums = {name: None if value is None else np.empty(
                            (n_blocks,) + value.shape[1:], dtype=value.dtype)
                        for name, value in run_sums.items()}
            for name in sums:
                if run_sums[name] is not None:
                    sums[name][first:stop] = run_sums[name]
            np.minimum(min_eig, run_min, out=min_eig)
            blowups += blown
            positivity_skips += skipped
            # free before the next run: the gate counts one
            del run_sums, run_min

    return EnsembleAccumulator(
        times=times,
        edges=edges,
        dims=spec.dims,
        obs_names=names,
        recovery_refs=refs,
        blowups=tuple(sorted(blowups)),
        positivity_skips=tuple(sorted(positivity_skips)),
        min_eig=min_eig,
        **sums,
    )


def estimate_density(acc: EnsembleAccumulator) -> np.ndarray:
    """Monte Carlo estimate of the full density at every recorded time."""
    total = acc.sum_rhoN
    return total / acc.estimate_counts()[:, None, None]


@dataclass
class ObservableEstimate:
    """Ensemble mean of a product observable with its standard error."""

    times: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray


def estimate_product_observable(acc: EnsembleAccumulator,
                                name: str) -> ObservableEstimate:
    """Mean and standard error of one registered product observable.

    Per trajectory the observable is the product over particles of
    Tr{A_k rho_k}, which is real (both factors are Hermitian); the
    standard error comes from the sample variance of those products.  Its
    sum of squared deviations is each block's about its own mean plus
    n_b (block mean - mean)^2 per block, the combination of Chan, Golub &
    LeVeque over all blocks, so no sum of squares cancels against the
    squared sum; a block with no active trajectory adds exactly nothing.
    """
    a = acc._obs_index(name)
    sums, counts = acc.obs_sum[:, a], acc.counts
    m = acc.estimate_counts()
    mean = sums.sum(axis=0) / m
    own = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    ssd = (acc.obs_m2[:, a] + counts * (own - mean) ** 2).sum(axis=0)
    var = np.zeros_like(ssd)
    many = m > 1
    var[many] = ssd[many] / (m[many] - 1.0)
    return ObservableEstimate(times=acc.times, mean=mean,
                              stderr=np.sqrt(var / m))


def jackknife_blocks(acc: EnsembleAccumulator, sums, statistic, values=None):
    """Delete-one-block jackknife of a statistic of block sums.

    ``sums`` holds per-block data, block axis first.  ``statistic(total,
    m) -> (T,) array`` maps their sum over a set of blocks and the (T,)
    active-trajectory counts of those blocks to one value per recorded
    time; it is evaluated on every leave-one-block-out set, and on all
    blocks unless the caller passes that value as ``values``.  Returns
    (values, standard errors).
    """
    total = sums.sum(axis=0)
    m = acc.estimate_counts()
    if values is None:
        values = statistic(total, m)
    values = np.asarray(values, dtype=float)
    g = acc.n_blocks
    if g < 2:
        return values, np.zeros_like(values)
    reps = np.array([statistic(total - sums[b], m - acc.counts[b])
                     for b in range(g)], dtype=float)
    se = np.sqrt((g - 1) / g * ((reps - reps.mean(axis=0)) ** 2).sum(axis=0))
    return values, se


def jackknife_density_scalar(acc: EnsembleAccumulator, fn):
    """Delete-one-block jackknife of a scalar functional of the mean density.

    ``fn(rhos) -> (T,) array`` maps a (T, D, D) stack of mean densities,
    one per recorded time, to one value per time; it is applied to the
    full estimate and to every leave-one-block-out estimate.  Returns
    (values, standard errors) over recorded times.  Nonlinear statistics
    (trace distance, fidelity) need this rather than a plain variance.
    """
    if acc.rho_sum is None:
        raise MissingDataError("full-density mode was not enabled")
    return jackknife_blocks(
        acc, acc.rho_sum, lambda total, m: fn(
            coordinate_density(total, acc.dims) / m[:, None, None]))
