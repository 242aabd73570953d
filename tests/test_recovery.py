import numpy as np
import pytest

from snbd.ensemble import EnsembleParams, run_ensemble
from snbd.errors import (
    DegenerateReferenceError,
    GridError,
    MissingDataError,
    PhaseSingularityError,
)
from snbd.linalg import herm_eig
from snbd.oracle import initial_pure_vector, propagate_exact
from snbd.propagator import TimeGrid
from snbd.recovery import (
    autocorrelation_spectrum,
    compute_phase,
    default_reference_vectors,
    jackknife_recovery,
    phase_integrand,
    recover,
    recover_raw_vector,
    recover_wavefunction,
    spectrum_peaks,
)
from snbd.system import ParticleSpec, SystemSpec, assemble_full_hamiltonian

from conftest import DOWN, UP, free_two_spin_system


def run_with_recovery(spec, m, t_final, dt, stride, seed=0, n_blocks=10):
    return run_ensemble(
        spec, TimeGrid(t_final, dt, stride),
        EnsembleParams(m=m, master_seed=seed, n_blocks=n_blocks,
                       positivity_tol=1e9),
        refs=default_reference_vectors(spec))


class TestRawRecovery:
    def test_initial_time_is_exact_projection(self, benchmark_system):
        acc = run_with_recovery(benchmark_system, 25, 0.01, 1e-3, 10)
        psi0 = initial_pure_vector(benchmark_system)
        refs = default_reference_vectors(benchmark_system)
        ref_full = np.kron(refs[0], refs[1])
        expected = psi0 * np.vdot(psi0, ref_full)
        phi_tilde = recover_raw_vector(acc)
        assert np.abs(phi_tilde[0] - expected).max() <= 1e-12

    def test_frozen_dynamics_constant(self):
        zero = np.zeros((2, 2), dtype=complex)
        spec = SystemSpec(
            particles=(ParticleSpec(dim=2, h=zero), ParticleSpec(dim=2, h=zero)),
            terms=(), initial=(UP, DOWN))
        acc = run_with_recovery(spec, 5, 0.5, 1e-3, 100)
        phi_tilde = recover_raw_vector(acc)
        for row in phi_tilde:
            assert np.abs(row - phi_tilde[0]).max() <= 1e-13

    def test_missing_registration(self, benchmark_system):
        acc = run_ensemble(benchmark_system, TimeGrid(0.01, 1e-3, 10),
                           EnsembleParams(m=4, positivity_tol=1e9))
        with pytest.raises(MissingDataError):
            recover_raw_vector(acc)

    def test_degenerate_reference(self, benchmark_system):
        # reference orthogonal to the initial state: t=0 recovery annihilates
        refs = (np.array([0, 1], complex), np.array([0, 1], complex))
        acc = run_ensemble(
            benchmark_system, TimeGrid(0.01, 1e-3, 10),
            EnsembleParams(m=4, positivity_tol=1e9), refs=refs)
        with pytest.raises(DegenerateReferenceError):
            recover_raw_vector(acc)

    def test_default_references_are_dominant_orbitals(self, benchmark_system):
        refs = default_reference_vectors(benchmark_system)
        assert np.abs(np.abs(refs[0]) - [1, 0]).max() <= 1e-12
        assert np.abs(np.abs(refs[1]) - [0, 1]).max() <= 1e-12


class TestPhase:
    def test_zero_hamiltonian_zero_phase(self):
        t = np.linspace(0, 1, 11)
        phi = np.tile(np.array([1, 0, 0, 0], complex), (11, 1))
        theta = compute_phase(t, phi, np.zeros(4, complex), phi[0])
        assert np.abs(theta).max() == 0.0

    def test_eigenstate_linear_phase(self, benchmark_system):
        h = assemble_full_hamiltonian(benchmark_system)
        w, v = herm_eig(h)
        psi0 = v[:, -1]
        energy = w[-1]
        t = np.linspace(0, 2, 41)
        phi = np.tile(psi0, (41, 1))  # exact recovery of an eigenstate
        theta = compute_phase(t, phi, h @ psi0, psi0)
        assert np.abs(theta - energy * t).max() <= 1e-10

    def test_integrand_is_real_for_exact_input(self, benchmark_system):
        h = assemble_full_hamiltonian(benchmark_system)
        times = np.linspace(0, 1, 21)
        psi = propagate_exact(benchmark_system, times, pure=True).psiN
        psi0 = psi[0]
        integrand = phase_integrand(times, psi, h @ psi0, psi0)
        # derivative truncation error only: O(dt^2 * ||H||^3)
        assert np.abs(integrand.imag).max() <= 1e-2
        assert np.abs(integrand.imag[5:-5]).max() <= 1e-3

    def test_phase_singularity_detection(self):
        t = np.linspace(0, 1, 5)
        phi = np.tile(np.array([1, 0], complex) / 1.0, (5, 1))
        phi[3] = [1e-5, 1.0 - 1e-10]  # overlap with psi0 collapses
        phi = phi / np.linalg.norm(phi, axis=1)[:, None]
        with pytest.raises(PhaseSingularityError):
            compute_phase(t, phi, np.zeros(2, complex),
                          np.array([1, 0], complex))

    def test_nonuniform_grid_rejected(self):
        t = np.array([0.0, 0.1, 0.3])
        phi = np.tile(np.array([1, 0], complex), (3, 1))
        with pytest.raises(GridError):
            compute_phase(t, phi, np.zeros(2, complex),
                          np.array([1, 0], complex))


class TestWavefunction:
    def test_phase_factor_is_unimodular(self):
        rng = np.random.default_rng(3)
        phi = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
        phi /= np.linalg.norm(phi, axis=1)[:, None]
        theta = rng.standard_normal(7)
        psi = recover_wavefunction(phi, theta)
        assert np.abs(np.linalg.norm(psi, axis=1) - 1.0).max() <= 1e-12

    def test_initial_alignment(self):
        phi = np.tile(np.array([1j, 0], complex), (3, 1))
        psi0 = np.array([1, 0], complex)
        psi = recover_wavefunction(phi, np.zeros(3), psi0)
        overlap = np.vdot(psi0, psi[0])
        assert overlap.imag == pytest.approx(0.0, abs=1e-14)
        assert overlap.real > 0

    def test_full_pipeline_on_benchmark(self, benchmark_system):
        acc = run_with_recovery(benchmark_system, 600, 0.4, 1e-3, 50, seed=2,
                                n_blocks=20)
        record = recover(acc, benchmark_system)
        assert np.abs(np.linalg.norm(record.psi, axis=1) - 1.0).max() <= 1e-12
        assert record.theta[0] == 0.0
        assert abs(record.autocorr[0] - 1.0) <= 1e-12
        oracle_psi = propagate_exact(benchmark_system, acc.times,
                                     pure=True).psiN
        overlap = np.sum(oracle_psi.conj() * record.psi, axis=1)
        # short horizon, M=600: recovered state tracks the oracle incl. phase
        assert np.abs(overlap - 1.0).max() <= 0.05

    def test_jackknife_bands(self, benchmark_system):
        acc = run_with_recovery(benchmark_system, 200, 0.2, 1e-3, 50, seed=4,
                                n_blocks=10)
        oracle_psi = propagate_exact(benchmark_system, acc.times,
                                     pure=True).psiN

        def fidelity(record):
            return np.abs(np.sum(oracle_psi.conj() * record.psi, axis=1))

        fid, se = jackknife_recovery(acc, benchmark_system, fidelity)
        assert fid[0] == pytest.approx(1.0, abs=1e-12)
        assert se[0] <= 1e-12
        assert np.all(fid >= 1.0 - 5 * se - 1e-12)

    def test_vector_mode_never_builds_full_density(self, benchmark_system):
        # recovery works with full-density accumulation disabled
        acc = run_with_recovery(benchmark_system, 50, 0.1, 1e-3, 25)
        assert acc.rho_sum is None
        record = recover(acc, benchmark_system)
        assert record.psi.shape == (5, 4)

    def test_symmetrized_recovery_for_identical_fermions(self):
        """Two identical fermions: propagate the distinguishable product
        state, antisymmetrize the recovered wavefunction afterwards, and
        compare against the antisymmetrized exact state (the exchange
        interaction commutes with the antisymmetrizer, so the latter is
        the true fermionic evolution of the singlet).  The engine itself
        treats every particle as distinguishable; this is the projection
        a caller applies."""
        from snbd.system import (
            decompose_pair_interaction,
            shared_interaction_terms,
            swap_operator,
        )
        from conftest import SZ, heisenberg_pair_matrix

        particles = (ParticleSpec(dim=2, h=0.5 * SZ),
                     ParticleSpec(dim=2, h=0.5 * SZ))
        pairs = decompose_pair_interaction(heisenberg_pair_matrix(0.2), 2)
        spec = SystemSpec(particles=particles,
                          terms=shared_interaction_terms(pairs, particles),
                          initial=(UP, DOWN))
        swap = swap_operator(2)

        def antisymmetrize(v):
            out = v - swap @ v
            return out / np.linalg.norm(out)

        acc = run_with_recovery(spec, 400, 0.3, 1e-3, 100, seed=6,
                                n_blocks=20)
        oracle_anti = [antisymmetrize(v) for v in
                       propagate_exact(spec, acc.times, pure=True).psiN]

        def anti_fidelity(record):
            return np.array([
                abs(np.vdot(oracle_anti[i], antisymmetrize(record.psi[i])))
                for i in range(len(record.t_grid))])

        fid, se = jackknife_recovery(acc, spec, anti_fidelity)
        assert np.all(fid >= 1.0 - 5 * se - 1e-12)
        assert fid.min() >= 0.99


class TestSpectrum:
    def test_eigenstate_single_peak(self, benchmark_system):
        h = assemble_full_hamiltonian(benchmark_system)
        w, v = herm_eig(h)
        psi0 = v[:, 0]
        energy = w[0]
        t = np.arange(0, 200.0001, 0.05)
        psi = np.exp(-1j * energy * t)[:, None] * psi0
        e_grid, intensity = autocorrelation_spectrum(psi, t, window=True,
                                                     e_max=3.0)
        peaks = spectrum_peaks(e_grid, intensity)
        assert len(peaks) == 1
        assert abs(peaks[0] - energy) <= 2 * np.pi / 200.0

    def test_uncoupled_spins_zeeman_lines(self):
        # |++> under the Zeeman pair: lines at -1, 0, +1
        plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
        spec = free_two_spin_system(initial=(plus, plus))
        t = np.arange(0, 200.0001, 0.05)
        psi = propagate_exact(spec, t, pure=True).psiN
        e_grid, intensity = autocorrelation_spectrum(psi, t, window=True,
                                                     e_max=3.0)
        peaks = spectrum_peaks(e_grid, intensity)
        h = assemble_full_hamiltonian(spec)
        eigs = np.unique(np.round(np.linalg.eigvalsh(h), 9))
        assert len(peaks) == len(eigs) == 3
        for p in peaks:
            assert np.min(np.abs(eigs - p)) <= 2 * np.pi / 200.0

    def test_window_preserves_peak_positions(self, benchmark_system):
        t = np.arange(0, 100.0001, 0.05)
        psi = propagate_exact(benchmark_system, t, pure=True).psiN
        e_grid, bare = autocorrelation_spectrum(psi, t, window=False, e_max=2.0)
        _, windowed = autocorrelation_spectrum(psi, t, window=True, e_max=2.0)
        # compare the two dominant maxima of each spectrum
        def top_two(intensity):
            peaks = spectrum_peaks(e_grid, intensity, min_height_frac=0.3)
            order = np.argsort(intensity[np.searchsorted(e_grid, peaks)])[::-1]
            return np.sort(peaks[order[:2]])

        step = e_grid[1] - e_grid[0]
        assert np.abs(top_two(bare) - top_two(windowed)).max() <= step + 1e-12

    def test_resolution_improves_with_horizon(self, benchmark_system):
        # doubling T roughly halves the worst peak-position error
        h = assemble_full_hamiltonian(benchmark_system)
        eigs = np.linalg.eigvalsh(h)

        def worst_error(t_max):
            t = np.arange(0, t_max + 1e-9, 0.05)
            psi = propagate_exact(benchmark_system, t, pure=True).psiN
            e_grid, intensity = autocorrelation_spectrum(
                psi, t, window=True, e_max=2.0, oversample=32)
            peaks = spectrum_peaks(e_grid, intensity)
            return max(np.min(np.abs(eigs - p)) for p in peaks)

        assert worst_error(100.0) <= 2 * np.pi / 100.0
        assert worst_error(200.0) <= 2 * np.pi / 200.0

    def test_nonuniform_grid_rejected(self):
        with pytest.raises(GridError):
            autocorrelation_spectrum(np.ones((3, 2), complex),
                                     [0.0, 0.1, 0.3])
