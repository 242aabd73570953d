import dataclasses
import multiprocessing
import weakref
from multiprocessing.connection import Connection

import numpy as np
import pytest

import snbd.ensemble
import snbd.propagator

from snbd.ensemble import (
    EnsembleParams,
    ObservableSpec,
    block_edges,
    block_runs,
    coordinate_density,
    estimate_density,
    estimate_product_observable,
    jackknife_density_scalar,
    run_ensemble,
)
from snbd.errors import (
    ConfigError,
    DimensionLimitError,
    MissingDataError,
    PositivityViolationError,
)
from snbd.linalg import trace_distance, trace_distances
from snbd.oracle import propagate_exact
from snbd.system import InteractionTerm, ParticleSpec, SystemSpec
from snbd.propagator import (
    TimeGrid,
    coordinate_densities,
    coordinate_rows,
)

from conftest import (
    DOWN,
    SX,
    SZ,
    UP,
    free_two_spin_system,
    interleaved_system,
    random_hermitian,
    sibling_starts,
    slow_sibling,
    two_spin_system,
    usable_cpus,
)
from single_trajectory import propagate_trajectory

def loose(**kw):
    return EnsembleParams(**{"positivity_tol": 1e9, **kw})


class TestBlockLayout:
    def test_edges_partition(self):
        edges = block_edges(10, 3)
        assert list(edges) == [0, 4, 7, 10]
        assert list(block_edges(4, 8)) == [0, 1, 2, 3, 4]

    def test_invalid_m(self):
        with pytest.raises(ConfigError):
            block_edges(0, 4)

    def test_invalid_n_blocks(self, benchmark_system):
        with pytest.raises(ConfigError):
            block_edges(10, 0)
        with pytest.raises(ConfigError):
            run_ensemble(benchmark_system, TimeGrid(0.01, 1e-3, 10),
                         loose(m=4, n_blocks=0))


class TestLockstep:
    """Runs of consecutive blocks propagated as one batch."""

    def test_run_layout(self):
        assert block_runs(block_edges(2000, 40), 1) == [
            (0, 10), (10, 20), (20, 30), (30, 40)]
        assert block_runs(block_edges(400, 4), 2) == [(0, 2), (2, 4)]
        assert block_runs(block_edges(400, 8), 1) == [(0, 8)]
        # at least min(worker_count, n_blocks) runs
        assert len(block_runs(block_edges(10, 5), 4)) == 5
        assert block_runs(block_edges(3, 3), 8) == [(0, 1), (1, 2), (2, 3)]
        # a block wider than LOCKSTEP_WIDTH runs alone
        assert block_runs(block_edges(5000, 2), 1) == [(0, 1), (1, 2)]
        # the wider blocks come first, and no run holds two widths
        assert block_runs(block_edges(23, 4), 1) == [(0, 3), (3, 4)]
        edges = block_edges(2003, 40)
        for workers in (1, 2):
            runs = block_runs(edges, workers)
            assert [b for run in runs for b in range(*run)] == list(range(40))
            assert all(len(set(np.diff(edges[first:stop + 1]))) == 1
                       for first, stop in runs)

    def _run(self, workers):
        return run_ensemble(
            two_spin_system(), TimeGrid(1.0, 1e-3, 100),
            EnsembleParams(m=46, master_seed=3, n_blocks=12,
                           worker_count=workers, full_density=True,
                           blowup_policy="skip", positivity_tol=1.0),
            (ObservableSpec("sz0", (SZ, None)),
             ObservableSpec("szsz", (SZ, SZ))),
            (np.array([1, 0], complex), np.array([0, 1], complex)))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_runs_match_one_block_per_run(self, workers, monkeypatch):
        # ten blocks of 4 and two of 3, one more run than workers for the
        # change of width
        lockstep = self._run(workers)
        assert list(np.diff(lockstep.edges)) == [4] * 10 + [3] * 2
        runs = block_runs(lockstep.edges, workers)
        assert len(runs) == workers + 1
        # the skips fall in blocks inside a run, neither first nor last
        interior = {b for first, stop in runs for b in range(first + 1, stop - 1)}
        owners = np.searchsorted(lockstep.edges, lockstep.positivity_skips,
                                 side="right") - 1
        assert len(owners) and set(owners) <= interior

        monkeypatch.setattr(snbd.ensemble, "LOCKSTEP_WIDTH", 1)
        assert block_runs(lockstep.edges, workers) == [
            (b, b + 1) for b in range(12)]
        single = self._run(workers)
        arrays = [f.name for f in dataclasses.fields(lockstep)
                  if isinstance(getattr(lockstep, f.name), np.ndarray)]
        assert {"counts", "obs_sum", "rho_sum", "vec_sum",
                "min_eig"} <= set(arrays)
        for name in arrays:
            assert np.array_equal(getattr(lockstep, name),
                                  getattr(single, name)), name
        assert lockstep.blowups == single.blowups
        assert lockstep.positivity_skips == single.positivity_skips


def recorded_records(monkeypatch):
    """Keep the (live coordinate columns, active mask, minima) of every
    record the ensemble's propagate_block calls hand on_record, in the
    list returned, one entry per record: the runs' live columns stitched
    in the order of their first trajectory, their minima merged with
    np.minimum.  The runs are observed in this process, so a serial run
    sees one usable CPU and forks no sibling."""
    usable_cpus(monkeypatch, 1)
    parts, seen = [], []
    propagate = snbd.ensemble.propagate_block

    def recording(*args, **options):
        on_record, start, count = args[7], args[2], args[3]
        offset = start % snbd.propagator.COLUMN_ALIGN
        live = slice(offset, offset + count)

        def record(r, t, coords, active, mins):
            if r == len(parts):
                parts.append({})
                seen.append(None)
            parts[r][start] = (coords[:, live].copy(), active.copy(),
                               mins.copy())
            runs = [parts[r][s] for s in sorted(parts[r])]
            seen[r] = (np.concatenate([c for c, _, _ in runs], axis=1),
                       np.concatenate([a for _, a, _ in runs]),
                       np.minimum.reduce([m for _, _, m in runs]))
            on_record(r, t, coords, active, mins)

        return propagate(*args[:7], record, **options)

    monkeypatch.setattr(snbd.ensemble, "propagate_block", recording)
    return seen


def densities(spec, coords):
    """Per particle its (B, d, d) densities from live coordinate columns."""
    return [coordinate_densities(coords[r], d)
            for r, d in zip(coordinate_rows(spec.dims), spec.dims)]


class TestRecordSums:
    """Each block's density and reference-vector sums at each record."""

    def test_sums_over_the_active_rows_of_each_block(self, monkeypatch):
        # dims (2, 3, 2) in blocks of 6, 6, 6 and 5 run as one batch; the
        # tolerance skips trajectories from the 9th record on, so blocks go
        # from fully to partly to not active.  The references are the
        # np.kron sums over the densities of the coordinates and the mask
        # on_record was handed, against the density sums converted from
        # coordinates and the reference-vector sums.
        spec = interleaved_system()
        rng = np.random.default_rng(5)
        refs = tuple(rng.standard_normal(d) + 1j * rng.standard_normal(d)
                     for d in spec.dims)
        seen = recorded_records(monkeypatch)
        acc = run_ensemble(spec, TimeGrid(0.3, 1e-3, 20),
                           EnsembleParams(m=23, master_seed=4, n_blocks=4,
                                          full_density=True,
                                          blowup_policy="skip",
                                          positivity_tol=0.03),
                           refs=refs)
        assert list(np.diff(acc.edges)) == [6, 6, 6, 5]
        assert len(seen) == len(acc.times)
        partial = 0
        for r, (coords, active, _) in enumerate(seen):
            rhos = densities(spec, coords)
            for j in range(acc.n_blocks):
                on = [b for b in range(acc.edges[j], acc.edges[j + 1])
                      if active[b]]
                partial += 0 < len(on) < acc.edges[j + 1] - acc.edges[j]
                rho = np.zeros((spec.full_dim,) * 2, dtype=complex)
                vec = np.zeros(spec.full_dim, dtype=complex)
                for b in on:
                    rho += np.kron(np.kron(rhos[0][b], rhos[1][b]), rhos[2][b])
                    vec += np.kron(np.kron(rhos[0][b] @ refs[0],
                                           rhos[1][b] @ refs[1]),
                                   rhos[2][b] @ refs[2])
                got = coordinate_density(acc.rho_sum[j, r], spec.dims)
                assert np.abs(got - rho).max() <= 1e-13
                assert np.abs(acc.vec_sum[j, r] - vec).max() <= 1e-13
        assert partial >= 10
        assert 0 < acc.active_counts[-1] < 23
        assert np.array_equal(acc.sum_rhoN, coordinate_density(
            acc.rho_sum.sum(axis=0), spec.dims))

    def test_stacked_sums_are_each_block_alone(self, monkeypatch):
        # the same run with two observables: every sum of every block at
        # every record is bitwise the per-block reduction over the block's
        # active rows written out below, for blocks of both widths while
        # fully, partly and not active; a block with no active row keeps
        # its zeros.  The minima at every record are the least over every
        # active trajectory of each one's own: the qutrit's eigvalsh of the
        # density rebuilt from the coordinates, a spin-1/2's closed form in
        # them (inf once none is active).  A record drops exactly the
        # trajectories active before it whose own value of some particle
        # is below -tol, and no trajectory diverges
        spec = interleaved_system()
        rng = np.random.default_rng(5)
        refs = tuple(rng.standard_normal(d) + 1j * rng.standard_normal(d)
                     for d in spec.dims)
        obs = (ObservableSpec("sz0", (SZ, None, None)),
               ObservableSpec("mixed", (SX, random_hermitian(rng, 3), SZ)))
        seen = recorded_records(monkeypatch)
        acc = run_ensemble(spec, TimeGrid(0.6, 1e-3, 20),
                           EnsembleParams(m=23, master_seed=4, n_blocks=4,
                                          full_density=True,
                                          blowup_policy="skip",
                                          positivity_tol=0.03),
                           observables=obs, refs=refs)
        assert list(np.diff(acc.edges)) == [6, 6, 6, 5]
        factors = [o.materialize(spec.dims) for o in obs]
        factor = snbd.ensemble._record_factor(
            spec, [np.stack([f[k] for f in factors]) for k in range(3)],
            refs)
        rows = coordinate_rows(spec.dims)

        def xty(rows, sl):
            # X^T @ Y over one block, X particle 0's rows, Y the
            # Kronecker product of the others' formed elementwise
            y = (rows[1][:, :, None] * rows[2][:, None, :]).reshape(
                len(rows[0]), -1)
            return rows[0][sl].T @ y[sl]

        states = {"full": 0, "partial": 0, "empty": 0}
        before = np.ones(23, dtype=bool)
        for r, (coords, active, mins) in enumerate(seen):
            # the rows as on_record forms them, from its products over the
            # 24 aligned columns; what is checked is each block's reduction
            full = np.zeros((len(coords), 24))
            full[:, :23] = coords
            prods = (factor @ full)[:, :23]
            v = prods[:6].reshape(3, 2, 23)
            vals = (v[0] * v[1] * v[2]).T
            c = np.where(active[:, None], coords.T, 0.0)
            vec = np.where(active[:, None], prods[6:].T, 0.0).copy().view(
                complex)
            vecs = [vec[:, :2], vec[:, 2:5], vec[:, 5:]]
            own = np.stack([
                np.linalg.eigvalsh(rho).min(axis=1) if d == 3
                else (x[0] - np.sqrt(x[1] ** 2 + x[2] ** 2 + x[3] ** 2))
                / np.sqrt(2.0)
                for rho, x, d in zip(densities(spec, coords),
                                     [coords[k] for k in rows], spec.dims)],
                axis=1)
            assert np.array_equal(acc.min_eig[r], mins)
            assert np.array_equal(mins, np.where(
                active[:, None], own, np.inf).min(axis=0))
            assert np.array_equal(before & ~active,
                                  before & (own < -0.03).any(axis=1))
            before = active
            for j in range(acc.n_blocks):
                sl = slice(acc.edges[j], acc.edges[j + 1])
                keep = active[sl]
                assert acc.counts[j, r] == keep.sum()
                if not keep.any():
                    states["empty"] += 1
                    sums = acc.obs_sum[j, :, r]
                    assert not np.signbit(sums).any()
                    assert not sums.any()
                    assert not acc.obs_m2[j, :, r].any()
                    assert not acc.rho_sum[j, r].any()
                    assert not acc.vec_sum[j, r].any()
                    continue
                states["full" if keep.all() else "partial"] += 1
                kept = vals[sl][keep]
                assert np.array_equal(acc.obs_sum[j, :, r], kept.sum(axis=0))
                dev = kept - kept.sum(axis=0) / len(kept)
                assert np.array_equal(acc.obs_m2[j, :, r],
                                      (dev * dev).sum(axis=0))
                rho = xty([c[:, k] for k in rows], sl)
                assert np.array_equal(acc.rho_sum[j, r], rho.reshape(-1))
                vec = xty(vecs, sl)
                assert np.array_equal(acc.vec_sum[j, r], vec.reshape(-1))
        assert all(n >= 5 for n in states.values()), states
        assert acc.blowups == ()
        assert acc.positivity_skips == tuple(np.flatnonzero(~before))

    def test_wide_blocks_sum_as_trajectory_major_products(self, monkeypatch):
        # blocks of 40 and 39, some partly active: from 32 columns on,
        # OpenBLAS may take a small-matrix kernel for a product whose two
        # factors are both contiguous along the trajectories, and that
        # kernel sums in another order.  Every block's density sum is
        # bitwise X^T @ Y of trajectory-major rows, as in the test above
        spec = interleaved_system()
        seen = recorded_records(monkeypatch)
        acc = run_ensemble(spec, TimeGrid(0.2, 1e-3, 20),
                           EnsembleParams(m=79, master_seed=4, n_blocks=2,
                                          full_density=True,
                                          blowup_policy="skip",
                                          positivity_tol=0.03))
        assert list(np.diff(acc.edges)) == [40, 39]
        assert 0 < acc.active_counts[-1] < 79
        x, y, z = coordinate_rows(spec.dims)
        for r, (coords, active, _) in enumerate(seen):
            # each trajectory's coordinates contiguous
            c = np.ascontiguousarray(np.where(active[:, None], coords.T, 0.0))
            kron = (c[:, y, None] * c[:, None, z]).reshape(len(c), -1)
            for j in range(acc.n_blocks):
                sl = slice(acc.edges[j], acc.edges[j + 1])
                assert acc.rho_sum[j, r].tobytes() == \
                    (c[sl, x].T @ kron[sl]).reshape(-1).tobytes()


    def test_records_summed_in_bulk_are_summed_one_at_a_time(
            self, monkeypatch):
        # the run above, whose skips fall mid-batch, at the default
        # RECORD_BATCH and at one record at a time in the propagator and in
        # on_record: every sum of the accumulator is the same, bit for bit
        spec = interleaved_system()
        rng = np.random.default_rng(5)
        refs = tuple(rng.standard_normal(d) + 1j * rng.standard_normal(d)
                     for d in spec.dims)
        obs = (ObservableSpec("sz0", (SZ, None, None)),
               ObservableSpec("mixed", (SX, random_hermitian(rng, 3), SZ)))

        def run():
            return run_ensemble(spec, TimeGrid(0.6, 1e-3, 20),
                                EnsembleParams(m=23, master_seed=4,
                                               n_blocks=4, full_density=True,
                                               blowup_policy="skip",
                                               positivity_tol=0.03),
                                observables=obs, refs=refs)

        bulk = run()
        monkeypatch.setattr(snbd.propagator, "RECORD_BATCH", 1)
        monkeypatch.setattr(snbd.ensemble, "RECORD_BATCH", 1)
        single = run()
        assert len(set(bulk.active_counts.tolist())) > 2    # drops in steps
        for name in ("counts", "obs_sum", "obs_m2", "rho_sum", "vec_sum",
                     "min_eig"):
            assert getattr(bulk, name).tobytes() == \
                getattr(single, name).tobytes(), name
        assert bulk.positivity_skips == single.positivity_skips


class TestStandardError:
    def test_standard_error_is_the_two_pass_spread(self, monkeypatch):
        # dims (3, 2, 2) from pure product states, with trajectories
        # skipped from the 5th record on, down to 20 of 400 and two empty
        # blocks at the last: at t = 0 every trajectory
        # holds the same products to an ulp and the standard error reads
        # no cancellation noise; at every later record it is the two-pass
        # sample deviation of the products of the densities on_record was
        # handed, over the active trajectories, divided by sqrt(m)
        rng = np.random.default_rng(8)
        dims = (3, 2, 2)
        spec = SystemSpec(
            particles=tuple(ParticleSpec(dim=d, h=random_hermitian(rng, d))
                            for d in dims),
            terms=tuple(InteractionTerm(omega=omega, ops=tuple(
                random_hermitian(rng, d, 0.5) for d in dims))
                for omega in (0.3, -0.2)),
            initial=(np.diag([1.0, 0.0, 0.0]).astype(complex), DOWN, UP))
        obs = (ObservableSpec("sz_1", (None, SZ, None)),
               ObservableSpec("szsz_12", (None, SZ, SZ)))
        seen = recorded_records(monkeypatch)
        acc = run_ensemble(spec, TimeGrid(0.4, 1e-3, 20),
                           EnsembleParams(m=400, master_seed=1, n_blocks=8,
                                          blowup_policy="skip",
                                          positivity_tol=0.1),
                           observables=obs)
        assert acc.active_counts[-1] == 20 and not acc.counts[:, -1].all()
        for o in obs:
            est = estimate_product_observable(acc, o.name)
            assert est.stderr[0] <= 1e-15
            for r, (coords, active, _) in enumerate(seen[1:], 1):
                vals = np.prod([
                    np.trace(a @ rho, axis1=1, axis2=2).real
                    for a, rho in zip(o.materialize(dims),
                                      densities(spec, coords))], axis=0)
                se = np.std(vals[active], ddof=1) / np.sqrt(active.sum())
                assert abs(est.stderr[r] - se) <= 1e-12 * se


class TestRunEnsemble:
    def test_single_deterministic_trajectory(self):
        spec = free_two_spin_system()
        acc = run_ensemble(spec, TimeGrid(0.5, 1e-3, 100),
                           loose(m=1, full_density=True))
        snaps = propagate_trajectory(spec, 0.5, 1e-3, 100, rng_seed=(0, 0))
        est = estimate_density(acc)
        for i, snap in enumerate(snaps):
            expected = np.kron(snap.rhos[0], snap.rhos[1])
            assert np.abs(est[i] - expected).max() <= 1e-14

    def test_initial_time_exact_product(self, benchmark_system):
        acc = run_ensemble(benchmark_system, TimeGrid(0.01, 1e-3, 10),
                           loose(m=32, full_density=True, n_blocks=4))
        est = estimate_density(acc)
        assert np.abs(est[0] - np.kron(UP, DOWN)).max() <= 1e-15

    def test_noise_free_limit_matches_oracle(self):
        spec = free_two_spin_system()
        acc = run_ensemble(spec, TimeGrid(1.0, 1e-4, 2000),
                           loose(m=3, full_density=True))
        oracle = propagate_exact(spec, acc.times).rhoN
        for i in range(len(acc.times)):
            assert trace_distance(estimate_density(acc)[i],
                                  oracle[i]) <= 5e-4  # O(dt) integrator

    def test_estimate_is_hermitian_unit_trace(self, benchmark_system):
        acc = run_ensemble(benchmark_system, TimeGrid(0.2, 1e-3, 50),
                           loose(m=64, full_density=True, n_blocks=8))
        est = estimate_density(acc)
        for rho in est:
            assert np.linalg.norm(rho - rho.conj().T) <= 1e-12
            assert abs(np.trace(rho) - 1.0) <= 1e-10

    def test_monitors(self, benchmark_system, monkeypatch):
        # every density rebuilt from a record's coordinates has unit trace
        # to roundoff and is exactly Hermitian
        seen = recorded_records(monkeypatch)
        acc = run_ensemble(benchmark_system, TimeGrid(0.2, 1e-3, 50),
                           loose(m=16, n_blocks=4))
        assert len(seen) == len(acc.times)
        rhos = [rho for coords, _, _ in seen
                for rho in densities(benchmark_system, coords)]
        assert max(np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0).max()
                   for rho in rhos) <= 1e-12
        assert all(np.array_equal(rho, rho.conj().swapaxes(1, 2))
                   for rho in rhos)
        assert acc.count == 16
        assert acc.active_counts[-1] == 16

    def test_positivity_abort_default(self, benchmark_system):
        with pytest.raises(PositivityViolationError):
            run_ensemble(benchmark_system, TimeGrid(2.0, 1e-3, 100),
                         EnsembleParams(m=8, master_seed=5, n_blocks=2))

    def test_full_density_memory_gate(self, benchmark_system, monkeypatch):
        monkeypatch.setattr(snbd.ensemble, "DEFAULT_MEMORY_LIMIT", 1000)
        with pytest.raises(DimensionLimitError):
            run_ensemble(benchmark_system, TimeGrid(0.1, 1e-3, 1),
                         loose(m=8, full_density=True))

    def test_memory_gate_counts_every_run_in_flight(self, benchmark_system,
                                                    monkeypatch):
        # D = 4, N = 2, 2 records, 4 blocks of 2 in 4 runs of one block: a
        # block's record sums take 2 * (128 + 8) B = 272 B (density
        # coordinates, count) and the minimum eigenvalues 2 * 2 * 8 B =
        # 32 B, so the accumulator takes 4 * 272 + 32 = 1120 B, and each
        # run in flight its 272 B row, its 32 B of minima, its two
        # snapshot buffers of both records (RECORD_BATCH is 8), 2 * 2 *
        # 8 rows * 8 columns * 8 B = 2048 B, and its real Y factor for both
        # records, 2 * 2 * 4 * 8 B = 128 B: 2480 B per run, 3600 B at one
        # worker on one usable CPU, 6080 B at two workers or at one worker
        # and its sibling
        assert snbd.ensemble.RECORD_BATCH == 8
        monkeypatch.setattr(snbd.ensemble, "LOCKSTEP_WIDTH", 2)
        monkeypatch.setattr(snbd.ensemble, "DEFAULT_MEMORY_LIMIT", 4800)
        usable_cpus(monkeypatch, 1)
        grid = TimeGrid(0.1, 1e-3, 100)
        acc = run_ensemble(benchmark_system, grid,
                           loose(m=8, n_blocks=4, full_density=True))
        assert acc.count == 8
        started = []
        monkeypatch.setattr(snbd.ensemble, "_run_results",
                            lambda *args: started.append(args))
        with pytest.raises(DimensionLimitError):
            run_ensemble(benchmark_system, grid,
                         loose(m=8, n_blocks=4, worker_count=2,
                               full_density=True))
        usable_cpus(monkeypatch, 2)
        with pytest.raises(DimensionLimitError):
            run_ensemble(benchmark_system, grid,
                         loose(m=8, n_blocks=4, full_density=True))
        assert started == []

    def test_memory_gate_counts_the_reference_vector_sums(
            self, benchmark_system, monkeypatch):
        # 4 blocks of 2 in one run, 11 records: without reference vectors
        # the accumulator and the run each take 4 * 11 * 8 B = 352 B of
        # counts and 11 * 2 * 8 B = 176 B of minimum eigenvalues, and the
        # run its two snapshot buffers of 8 records (RECORD_BATCH), 2 * 8 *
        # 8 rows * 8 columns * 8 B = 8192 B, 9248 B in all; vec_sum takes
        # 4 * 11 * 4 * 16 B = 2816 B in each, 14880 B in all (one usable
        # CPU: no sibling's run in flight)
        assert snbd.ensemble.RECORD_BATCH == 8
        monkeypatch.setattr(snbd.ensemble, "DEFAULT_MEMORY_LIMIT", 12000)
        usable_cpus(monkeypatch, 1)
        grid = TimeGrid(0.01, 1e-3, 1)
        assert run_ensemble(benchmark_system, grid,
                            loose(m=8, n_blocks=4)).count == 8
        started = []
        monkeypatch.setattr(snbd.ensemble, "_run_results",
                            lambda *args: started.append(args))
        with pytest.raises(DimensionLimitError):
            run_ensemble(benchmark_system, grid, loose(m=8, n_blocks=4),
                         refs=(np.array([1, 0], complex),
                               np.array([0, 1], complex)))
        assert started == []

    def test_no_more_processes_than_blocks(self, benchmark_system,
                                           monkeypatch):
        # 64 workers on 4 blocks: four processes, one run each, so exactly
        # three siblings start, and the bits are one process's
        started = sibling_starts(monkeypatch)
        grid = TimeGrid(0.01, 1e-3, 5)
        wide = run_ensemble(benchmark_system, grid,
                            loose(m=8, n_blocks=4, worker_count=64))
        assert len(started) == 3
        assert multiprocessing.active_children() == []
        usable_cpus(monkeypatch, 1)
        serial = run_ensemble(benchmark_system, grid, loose(m=8, n_blocks=4))
        assert len(started) == 3
        assert np.array_equal(wide.counts, serial.counts)
        assert np.array_equal(wide.min_eig, serial.min_eig)

    def test_the_caller_holds_one_result_at_a_time(self, benchmark_system,
                                                   monkeypatch):
        # six runs in three processes, the siblings slowed so that the
        # caller's own results come first.  Through a weak reference to
        # each result's counts: when a result is handed on it is the only
        # one alive here, and none is alive when the next is received (a
        # result run_ensemble has copied is freed); the accumulator is one
        # process's, bit for bit
        refs, at_yield, at_recv = [], [], []

        def alive():
            return sum(ref() is not None for ref in refs)

        run_results = snbd.ensemble._run_results

        def watched(tasks, k):
            for i, out in run_results(tasks, k):
                refs.append(weakref.ref(out[0]["counts"]))
                at_yield.append(alive())
                yield i, out
                del out

        recv = Connection.recv

        def counted_recv(conn):
            at_recv.append(alive())
            return recv(conn)

        monkeypatch.setattr(snbd.ensemble, "_run_results", watched)
        monkeypatch.setattr(Connection, "recv", counted_recv)
        monkeypatch.setattr(snbd.ensemble, "LOCKSTEP_WIDTH", 2)
        slow_sibling(monkeypatch)
        started = sibling_starts(monkeypatch)
        grid = TimeGrid(0.01, 1e-3, 5)
        params = loose(m=12, n_blocks=6, worker_count=3, full_density=True,
                       blowup_policy="skip", positivity_tol=0.01)
        assert len(block_runs(block_edges(12, 6), 3)) == 6
        wide = run_ensemble(benchmark_system, grid, params)
        assert len(started) == 2
        assert at_yield == [1] * 6 and at_recv == [0] * 4
        usable_cpus(monkeypatch, 1)
        serial = run_ensemble(benchmark_system, grid,
                              dataclasses.replace(params, worker_count=1))
        for f in dataclasses.fields(serial):
            a, b = getattr(wide, f.name), getattr(serial, f.name)
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b), f.name
            else:
                assert a == b, f.name

    @pytest.mark.parametrize("refs, message", [
        ((np.array([1, 0]),), "1 reference vectors for 2 particles"),
        ((np.array([1, 0]), np.array([0, 1, 0])),
         r"reference vector 1 has shape \(3,\), expected \(2,\)"),
    ], ids=["count", "shape"])
    def test_reference_vectors_are_checked(self, benchmark_system, refs,
                                           message):
        # a library caller's references, refused before any run starts
        with pytest.raises(ConfigError, match=message):
            run_ensemble(benchmark_system, TimeGrid(0.01, 1e-3, 10),
                         loose(m=4), refs=refs)

    def test_duplicate_observables_rejected(self, benchmark_system):
        obs = (ObservableSpec("a", (SZ, None)), ObservableSpec("a", (None, SZ)))
        with pytest.raises(ConfigError):
            run_ensemble(benchmark_system, TimeGrid(0.01, 1e-3, 10),
                         loose(m=4), obs)


class TestObservables:
    def test_identity_observable(self, benchmark_system):
        obs = (ObservableSpec("one", (None, None)),)
        acc = run_ensemble(benchmark_system, TimeGrid(0.2, 1e-3, 100),
                           loose(m=100, n_blocks=10), obs)
        est = estimate_product_observable(acc, "one")
        assert np.abs(est.mean - 1.0).max() <= 1e-12
        # stderr picks up roundoff-level trace scatter through the variance
        # formula's cancellation; zero at any physical scale
        assert np.abs(est.stderr).max() <= 1e-8

    def test_product_of_traces_identity(self):
        # per-trajectory identity: prod_k Tr(A_k rho_k) = Tr(kron(A) kron(rho))
        rng = np.random.default_rng(3)
        from conftest import random_density, random_hermitian
        a1, a2 = random_hermitian(rng, 2), random_hermitian(rng, 3)
        r1, r2 = random_density(rng, 2), random_density(rng, 3)
        lhs = np.trace(a1 @ r1) * np.trace(a2 @ r2)
        rhs = np.trace(np.kron(a1, a2) @ np.kron(r1, r2))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_estimator_identity_against_full_density(self, benchmark_system):
        obs = (ObservableSpec("sz0", (SZ, None)),
               ObservableSpec("szsz", (SZ, SZ)))
        acc = run_ensemble(benchmark_system, TimeGrid(0.3, 1e-3, 100),
                           loose(m=200, master_seed=9, full_density=True,
                                 n_blocks=20), obs)
        est = estimate_density(acc)
        for o in obs:
            full = o.full_matrix(benchmark_system.dims)
            contracted = np.array([np.trace(full @ est[i]).real
                                   for i in range(len(acc.times))])
            product = estimate_product_observable(acc, o.name).mean
            assert np.abs(contracted - product).max() <= 1e-10

    def test_unknown_observable(self, benchmark_system):
        acc = run_ensemble(benchmark_system, TimeGrid(0.01, 1e-3, 10),
                           loose(m=4))
        with pytest.raises(MissingDataError):
            estimate_product_observable(acc, "nope")

    def test_factor_validation(self):
        with pytest.raises(Exception):
            ObservableSpec("bad", (np.array([[0, 1], [0, 0]], complex),))


class TestMergeAndDeterminism:
    def _run(self, m, workers=1, seed=3):
        spec = two_spin_system()
        obs = (ObservableSpec("sz0", (SZ, None)),)
        return run_ensemble(
            spec, TimeGrid(0.2, 1e-3, 50),
            loose(m=m, master_seed=seed, full_density=True, n_blocks=8,
                  worker_count=workers),
            obs, (np.array([1, 0], complex), np.array([0, 1], complex)))

    def test_worker_count_invariance(self):
        serial = self._run(32, workers=1)
        parallel = self._run(32, workers=4)
        assert np.array_equal(serial.rho_sum, parallel.rho_sum)
        assert np.array_equal(serial.obs_sum, parallel.obs_sum)
        assert np.array_equal(serial.vec_sum, parallel.vec_sum)
        assert np.array_equal(serial.counts, parallel.counts)


class TestJackknife:
    def test_constant_statistic_has_zero_error(self, benchmark_system):
        acc = run_ensemble(benchmark_system, TimeGrid(0.1, 1e-3, 25),
                           loose(m=40, full_density=True, n_blocks=8))
        values, se = jackknife_density_scalar(
            acc, lambda rhos: np.ones(len(rhos)))
        assert np.all(values == 1.0)
        assert np.abs(se).max() == 0.0

    def test_oracle_distance_within_bands(self, benchmark_system):
        acc = run_ensemble(benchmark_system, TimeGrid(0.4, 1e-3, 100),
                           loose(m=400, master_seed=17, full_density=True,
                                 n_blocks=20))
        oracle = propagate_exact(benchmark_system, acc.times).rhoN
        td, se = jackknife_density_scalar(
            acc, lambda rhos: trace_distances(rhos, oracle))
        assert td[0] <= 1e-12
        # short horizon: statistics are benign, agreement within 5 sigma
        assert np.all(td[1:] <= 5 * se[1:] + 1e-13)

    def test_requires_full_density(self, benchmark_system):
        acc = run_ensemble(benchmark_system, TimeGrid(0.01, 1e-3, 10),
                           loose(m=8))
        with pytest.raises(MissingDataError):
            jackknife_density_scalar(acc, lambda rhos: np.zeros(len(rhos)))
        with pytest.raises(MissingDataError):
            estimate_density(acc)
