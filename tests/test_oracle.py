from functools import reduce

import numpy as np
import pytest
import scipy.integrate

from snbd.ensemble import ObservableSpec
from snbd.errors import ContractViolationError
from snbd.linalg import herm_eig, hs_norm
from snbd.oracle import (
    exact_observable,
    initial_pure_factors,
    initial_pure_vector,
    propagate_exact,
)
from snbd.system import (
    ParticleSpec,
    SystemSpec,
    assemble_full_hamiltonian,
    product_density,
)

from conftest import (
    DOWN,
    SZ,
    UP,
    free_two_spin_system,
    random_hermitian,
    two_spin_system,
)
from test_propagator import spin1_pair_system


def per_time_states(spec, times):
    """The exact densities and pure vectors as a list per time, each
    formed by its own products: U(t) = V exp(-i w t) V^dag on the
    eigenbasis of H."""
    w, v = herm_eig(assemble_full_hamiltonian(spec))
    rho0_eig = v.conj().T @ product_density(spec) @ v
    psi0_eig = v.conj().T @ reduce(np.kron, initial_pure_factors(spec))
    rhos, psis = [], []
    for t in times:
        phase = np.exp(-1j * w * t)
        rho = v @ (phase[:, None] * rho0_eig * phase.conj()[None, :]) @ v.conj().T
        rhos.append(0.5 * (rho + rho.conj().T))
        psis.append(v @ (phase * psi0_eig))
    return rhos, psis


class TestPropagateExact:
    def test_frozen_dynamics(self):
        zero = np.zeros((2, 2), dtype=complex)
        spec = SystemSpec(
            particles=(ParticleSpec(dim=2, h=zero), ParticleSpec(dim=2, h=zero)),
            terms=(), initial=(UP, DOWN))
        exact = propagate_exact(spec, [0.0, 1.0, 5.0])
        assert exact.rhoN.shape == (3, 4, 4) and exact.psiN is None
        assert np.abs(exact.rhoN - np.kron(UP, DOWN)).max() <= 1e-14

    def test_stationary_diagonal_state(self):
        spec = free_two_spin_system(initial=(UP, DOWN))
        exact = propagate_exact(spec, np.linspace(0, 3, 7))
        assert np.abs(exact.rhoN - np.kron(UP, DOWN)).max() <= 1e-12

    def test_population_oscillation_period(self, benchmark_system):
        # |up,down> exchanges with |down,up> at gap 4J = 0.8:
        # P_updown(t) = cos^2(0.4 t), hand-derived from the 2x2 block
        times = np.linspace(0, 10, 21)
        exact = propagate_exact(benchmark_system, times)
        assert np.array_equal(exact.times, times)
        for t, rho in zip(times, exact.rhoN):
            assert rho[1, 1].real == pytest.approx(np.cos(0.4 * t) ** 2,
                                                   abs=1e-10)

    def test_isospectral_and_energy_conserving(self, benchmark_system):
        h = assemble_full_hamiltonian(benchmark_system)
        times = np.linspace(0, 7, 5)
        rhos = propagate_exact(benchmark_system, times).rhoN
        eig0 = np.linalg.eigvalsh(rhos[0])
        e0 = np.trace(h @ rhos[0]).real
        for rho in rhos:
            assert abs(np.trace(rho) - 1.0) <= 1e-12
            assert np.abs(np.linalg.eigvalsh(rho) - eig0).max() <= 1e-9
            e = np.trace(h @ rho).real
            assert abs(e - e0) <= 1e-9 * max(1.0, abs(e0))

    def test_pure_mode_matches_density(self, benchmark_system):
        exact = propagate_exact(benchmark_system, [0.0, 2.5], pure=True)
        for psi, rho in zip(exact.psiN, exact.rhoN):
            assert hs_norm(np.outer(psi, psi.conj()) - rho) <= 1e-10

    def test_pure_mode_needs_pure_initial(self):
        mixed = 0.5 * np.eye(2, dtype=complex)
        spec = SystemSpec(particles=(ParticleSpec(dim=2, h=SZ),), terms=(),
                          initial=(mixed,))
        with pytest.raises(ContractViolationError):
            propagate_exact(spec, [0.0], pure=True)

    @pytest.mark.parametrize("system", [two_spin_system, spin1_pair_system],
                             ids=["two_spin", "spin1_pair"])
    def test_series_is_the_per_time_products_bit_for_bit(self, system):
        # no golden case runs the oracle's own outputs, so its bits are
        # pinned here: the stacked series and the observables read from it
        # are those of one density and one vector per time
        spec = system()
        times = np.linspace(0.0, 5.0, 11)
        rhos, psis = per_time_states(spec, times)
        for pure in (True, False):
            exact = propagate_exact(spec, times, pure=pure)
            assert exact.times.tobytes() == times.tobytes()
            assert exact.rhoN.tobytes() == np.stack(rhos).tobytes()
            if pure:
                assert exact.psiN.tobytes() == np.stack(psis).tobytes()
            else:
                assert exact.psiN is None
        rng = np.random.default_rng(5)
        for obs in (
                ObservableSpec("all", tuple(random_hermitian(rng, d)
                                            for d in spec.dims)),
                ObservableSpec("first", (random_hermitian(rng, spec.dims[0]),)
                               + (None,) * (spec.n_particles - 1))):
            a = obs.full_matrix(spec.dims)
            expected = np.array([complex(np.trace(a @ rho)).real
                                 for rho in rhos])
            assert exact_observable(exact, obs, spec.dims).tobytes() == \
                expected.tobytes()

    def test_initial_pure_vector(self, benchmark_system):
        psi0 = initial_pure_vector(benchmark_system)
        expected = np.zeros(4, dtype=complex)
        expected[1] = 1.0  # |up, down>
        assert np.abs(np.abs(psi0) - np.abs(expected)).max() <= 1e-12


class TestExactObservable:
    def test_identity_normalization(self, benchmark_system):
        exact = propagate_exact(benchmark_system, np.linspace(0, 5, 6))
        series = exact_observable(exact, ObservableSpec("one", (None, None)),
                                  benchmark_system.dims)
        assert np.abs(series - 1.0).max() <= 1e-12

    def test_conserved_sz_without_interaction(self):
        spec = free_two_spin_system(initial=(UP, DOWN))
        exact = propagate_exact(spec, np.linspace(0, 4, 9))
        series = exact_observable(exact, ObservableSpec("sz0", (SZ, None)),
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
        exact = propagate_exact(benchmark_system, times)
        series = exact_observable(exact, obs, benchmark_system.dims)
        assert np.abs(series - ode_series).max() <= 1e-7
