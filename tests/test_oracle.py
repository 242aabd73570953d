import numpy as np
import pytest
import scipy.integrate

from snbd.ensemble import ObservableSpec
from snbd.errors import ContractViolationError
from snbd.linalg import hs_norm
from snbd.oracle import (
    exact_observable,
    initial_pure_vector,
    propagate_exact,
)
from snbd.system import ParticleSpec, SystemSpec, assemble_full_hamiltonian

from conftest import DOWN, SZ, UP, free_two_spin_system, two_spin_system


class TestPropagateExact:
    def test_frozen_dynamics(self):
        zero = np.zeros((2, 2), dtype=complex)
        spec = SystemSpec(
            particles=(ParticleSpec(dim=2, h=zero), ParticleSpec(dim=2, h=zero)),
            terms=(), initial=(UP, DOWN))
        states = propagate_exact(spec, [0.0, 1.0, 5.0])
        for st in states:
            assert np.abs(st.rhoN - np.kron(UP, DOWN)).max() <= 1e-14

    def test_stationary_diagonal_state(self):
        spec = free_two_spin_system(initial=(UP, DOWN))
        states = propagate_exact(spec, np.linspace(0, 3, 7))
        for st in states:
            assert np.abs(st.rhoN - np.kron(UP, DOWN)).max() <= 1e-12

    def test_population_oscillation_period(self, benchmark_system):
        # |up,down> exchanges with |down,up> at gap 4J = 0.8:
        # P_updown(t) = cos^2(0.4 t), hand-derived from the 2x2 block
        times = np.linspace(0, 10, 21)
        states = propagate_exact(benchmark_system, times)
        for t, st in zip(times, states):
            assert st.rhoN[1, 1].real == pytest.approx(np.cos(0.4 * t) ** 2,
                                                       abs=1e-10)

    def test_isospectral_and_energy_conserving(self, benchmark_system):
        h = assemble_full_hamiltonian(benchmark_system)
        times = np.linspace(0, 7, 5)
        states = propagate_exact(benchmark_system, times)
        eig0 = np.linalg.eigvalsh(states[0].rhoN)
        e0 = np.trace(h @ states[0].rhoN).real
        for st in states:
            assert abs(np.trace(st.rhoN) - 1.0) <= 1e-12
            assert np.abs(np.linalg.eigvalsh(st.rhoN) - eig0).max() <= 1e-9
            e = np.trace(h @ st.rhoN).real
            assert abs(e - e0) <= 1e-9 * max(1.0, abs(e0))

    def test_pure_mode_matches_density(self, benchmark_system):
        states = propagate_exact(benchmark_system, [0.0, 2.5], pure=True)
        for st in states:
            proj = np.outer(st.psiN, st.psiN.conj())
            assert hs_norm(proj - st.rhoN) <= 1e-10

    def test_pure_mode_needs_pure_initial(self):
        mixed = 0.5 * np.eye(2, dtype=complex)
        spec = SystemSpec(particles=(ParticleSpec(dim=2, h=SZ),), terms=(),
                          initial=(mixed,))
        with pytest.raises(ContractViolationError):
            propagate_exact(spec, [0.0], pure=True)

    def test_initial_pure_vector(self, benchmark_system):
        psi0 = initial_pure_vector(benchmark_system)
        expected = np.zeros(4, dtype=complex)
        expected[1] = 1.0  # |up, down>
        assert np.abs(np.abs(psi0) - np.abs(expected)).max() <= 1e-12


class TestExactObservable:
    def test_identity_normalization(self, benchmark_system):
        states = propagate_exact(benchmark_system, np.linspace(0, 5, 6))
        series = exact_observable(states, ObservableSpec("one", (None, None)),
                                  benchmark_system.dims)
        assert np.abs(series - 1.0).max() <= 1e-12

    def test_conserved_sz_without_interaction(self):
        spec = free_two_spin_system(initial=(UP, DOWN))
        states = propagate_exact(spec, np.linspace(0, 4, 9))
        series = exact_observable(states, ObservableSpec("sz0", (SZ, None)),
                                  spec.dims)
        assert np.abs(series - 1.0).max() <= 1e-12

    def test_against_independent_ode_integration(self, benchmark_system):
        """Second implementation at desk scale: integrate the commutator
        equation with an adaptive ODE solver and compare the observable."""
        h = assemble_full_hamiltonian(benchmark_system)
        rho0 = np.kron(UP, DOWN)

        def rhs(t, y):
            rho = y.reshape(4, 4)
            return (-1j * (h @ rho - rho @ h)).reshape(-1)

        times = np.linspace(0, 6, 13)
        sol = scipy.integrate.solve_ivp(
            rhs, (0, 6), rho0.reshape(-1), t_eval=times, rtol=1e-10,
            atol=1e-12)
        obs = ObservableSpec("sz0", (SZ, None))
        a = obs.full_matrix(benchmark_system.dims)
        ode_series = np.array([
            np.trace(a @ sol.y[:, i].reshape(4, 4)).real
            for i in range(len(times))])
        states = propagate_exact(benchmark_system, times)
        series = exact_observable(states, obs, benchmark_system.dims)
        assert np.abs(series - ode_series).max() <= 1e-7
