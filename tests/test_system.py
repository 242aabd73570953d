from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snbd.errors import (
    ContractViolationError,
    DimensionLimitError,
    ShapeError,
    UnsupportedInteractionError,
)
from snbd.linalg import herm_eig, hs_inner, hs_norm
from snbd.system import (
    InteractionTerm,
    ParticleSpec,
    SystemSpec,
    _hamiltonian_terms,
    apply_full_hamiltonian,
    assemble_full_hamiltonian,
    build_hermitian_basis,
    decompose_pair_interaction,
    hermitian_coordinates,
    hermitian_structure_constants,
    product_density,
    reconstruct_pair_interaction,
    shared_interaction_terms,
    swap_operator,
)

from conftest import (
    DOWN,
    SX,
    SY,
    SZ,
    UP,
    heisenberg_pair_matrix,
    interleaved_system,
    random_hermitian,
    two_spin_system,
)


def spins8_system():
    """The spins8 benchmark's system: 8 spin-1/2, one Heisenberg V on
    every pair."""
    particles = (ParticleSpec(dim=2, h=0.5 * SZ),) * 8
    pairs = decompose_pair_interaction(heisenberg_pair_matrix(0.0125), 2)
    return SystemSpec(particles=particles,
                      terms=shared_interaction_terms(pairs, particles),
                      initial=(UP, DOWN) * 4)


def random_swap_symmetric(rng, m):
    a = rng.standard_normal((m * m, m * m)) + 1j * rng.standard_normal((m * m, m * m))
    h = 0.5 * (a + a.conj().T)
    s = swap_operator(m)
    return 0.5 * (h + s @ h @ s)


class TestHermitianBasis:
    def test_pauli_basis_for_qubits(self):
        basis = build_hermitian_basis(2)
        expected = [np.eye(2) / np.sqrt(2), SX / np.sqrt(2), SY / np.sqrt(2),
                    SZ / np.sqrt(2)]
        assert len(basis) == 4
        for got, want in zip(basis, expected):
            assert np.allclose(got, want, atol=1e-15)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_orthonormal(self, m):
        basis = build_hermitian_basis(m)
        assert len(basis) == m * m
        gram = np.array([[hs_inner(a, b) for b in basis] for a in basis])
        assert np.abs(gram - np.eye(m * m)).max() <= 1e-12
        for b in basis:
            assert hs_norm(b - b.conj().T) <= 1e-14

    def test_spans_operator_space(self):
        # rank of the vectorized stack must be m^2
        basis = build_hermitian_basis(3)
        stack = np.stack([b.reshape(-1) for b in basis])
        assert np.linalg.matrix_rank(stack) == 9

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_coordinates_and_structure_constants(self, m):
        # x = sum_a c_a B_a, and (o @ anti) c, (o @ comm) c are the
        # coordinates of {O, R} and i[O, R]
        rng = np.random.default_rng(m)
        basis = np.array(build_hermitian_basis(m))
        o_mat, r_mat = (random_hermitian(rng, m) for _ in range(2))
        o, c = hermitian_coordinates(o_mat), hermitian_coordinates(r_mat)
        anti, comm = hermitian_structure_constants(m)
        assert anti.dtype == comm.dtype == np.float64
        assert np.abs(np.einsum("a,aij->ij", c, basis) - r_mat).max() <= 1e-14
        for table, want in ((anti, o_mat @ r_mat + r_mat @ o_mat),
                            (comm, 1j * (o_mat @ r_mat - r_mat @ o_mat))):
            got = np.einsum("a,aij->ij", np.einsum("e,eab,b->a", o, table, c),
                            basis)
            assert np.abs(got - want).max() <= 1e-13


class TestDecomposition:
    def test_already_product_form(self):
        v = 0.3 * np.kron(SZ, SZ)
        terms = decompose_pair_interaction(v, 2)
        assert len(terms) == 1
        assert np.allclose(reconstruct_pair_interaction(terms), v, atol=1e-12)

    def test_heisenberg_weights(self):
        j = 0.2
        terms = decompose_pair_interaction(heisenberg_pair_matrix(j), 2)
        assert len(terms) == 3
        assert np.allclose(sorted(w for w, _ in terms), [2 * j] * 3, atol=1e-12)
        recon = reconstruct_pair_interaction(terms)
        assert hs_norm(recon - heisenberg_pair_matrix(j)) <= 1e-12

    @pytest.mark.parametrize("m", [2, 3])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_round_trip_random(self, m, seed):
        rng = np.random.default_rng(seed)
        v = random_swap_symmetric(rng, m)
        terms = decompose_pair_interaction(v, m)
        assert len(terms) <= m * m
        for omega, op in terms:
            assert np.isfinite(omega) and omega != 0.0
            assert hs_norm(op - op.conj().T) <= 1e-12 * max(1.0, hs_norm(op))
        recon = reconstruct_pair_interaction(terms, dim=m)
        assert hs_norm(recon - v) <= 1e-10 * hs_norm(v)

    def test_rejects_non_hermitian(self):
        v = np.zeros((4, 4), dtype=complex)
        v[0, 1] = 1.0
        with pytest.raises(ContractViolationError):
            decompose_pair_interaction(v, 2)

    def test_rejects_non_swap_symmetric(self):
        v = np.kron(SZ, SX)  # Hermitian but not exchange symmetric
        with pytest.raises(UnsupportedInteractionError):
            decompose_pair_interaction(v, 2)

    def test_empty_reconstruction(self):
        out = reconstruct_pair_interaction([], dim=3)
        assert out.shape == (9, 9) and np.all(out == 0)
        with pytest.raises(ShapeError):
            reconstruct_pair_interaction([])

    def test_single_term_reconstruction(self):
        out = reconstruct_pair_interaction([(0.4, SZ / np.sqrt(2))])
        assert np.allclose(out, 0.2 * np.kron(SZ, SZ), atol=1e-15)


class TestAssembly:
    def test_single_particle(self):
        h = 0.3 * SX
        spec = SystemSpec(particles=(ParticleSpec(dim=2, h=h),),
                          terms=(), initial=(UP,))
        assert np.allclose(assemble_full_hamiltonian(spec), h, atol=0)

    def test_two_spin_zeeman_diagonal(self):
        particles = (ParticleSpec(dim=2, h=0.5 * SZ),) * 2
        spec = SystemSpec(particles=particles, terms=(), initial=(UP, DOWN))
        h = assemble_full_hamiltonian(spec)
        assert np.allclose(h, np.diag([1.0, 0.0, 0.0, -1.0]), atol=1e-15)

    def test_heisenberg_zeeman_spectrum(self, benchmark_system):
        # hand-assembled 4x4: diag(1.2, -0.2, -0.2, -0.8) + 0.4 swap block
        hand = np.diag([1.2, -0.2, -0.2, -0.8]).astype(complex)
        hand[1, 2] = hand[2, 1] = 0.4
        h = assemble_full_hamiltonian(benchmark_system)
        assert hs_norm(h - hand) <= 1e-12
        w, _ = herm_eig(h)
        assert np.allclose(w, [-0.8, -0.6, 0.2, 1.2], atol=1e-12)

    def test_hamiltonian_is_hermitian(self):
        rng = np.random.default_rng(7)
        spec = two_spin_system(j=0.37)
        h = assemble_full_hamiltonian(spec)
        assert hs_norm(h - h.conj().T) == 0.0
        assert np.abs(np.linalg.eigvals(h).imag).max() <= 1e-10

    def test_dimension_limit(self, monkeypatch):
        monkeypatch.setenv("SNBD_MAX_DIM", "2")
        with pytest.raises(DimensionLimitError):
            assemble_full_hamiltonian(two_spin_system())

    @pytest.mark.parametrize("make", [two_spin_system, interleaved_system],
                             ids=["(2,2)", "(2,3,2)"])
    def test_applied_term_by_term_to_a_product(self, make):
        # H|psi> on a product psi = kron_k v_k, without the (D, D) matrix
        spec = make()
        rng = np.random.default_rng(11)
        vecs = [rng.standard_normal(d) + 1j * rng.standard_normal(d)
                for d in spec.dims]
        psi = vecs[0]
        for v in vecs[1:]:
            psi = np.kron(psi, v)
        expected = assemble_full_hamiltonian(spec) @ psi
        got = apply_full_hamiltonian(spec, vecs)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("make", [spins8_system, interleaved_system],
                             ids=["8 spins", "(2,3,2)"])
    def test_applied_terms_are_the_kron_products_bit_for_bit(self, make):
        # each term's product vector, summed in the same order, against
        # the np.kron form of the same products
        spec = make()
        rng = np.random.default_rng(12)
        vecs = [rng.standard_normal(d) + 1j * rng.standard_normal(d)
                for d in spec.dims]
        expected = np.zeros(spec.full_dim, dtype=complex)
        for weight, ops in _hamiltonian_terms(spec):
            for side in (ops, {k: op.conj().T for k, op in ops.items()}):
                expected += (0.5 * weight) * reduce(np.kron, [
                    side[k] @ v if k in side else v
                    for k, v in enumerate(vecs)])
        got = apply_full_hamiltonian(spec, vecs)
        assert got.tobytes() == expected.tobytes()

    def test_applied_dimension_limit(self, monkeypatch):
        monkeypatch.setenv("SNBD_MAX_DIM", "2")
        spec = two_spin_system()
        with pytest.raises(DimensionLimitError):
            apply_full_hamiltonian(spec, [np.array([1, 0], complex)] * 2)

    def test_product_density(self, benchmark_system):
        rho = product_density(benchmark_system)
        assert np.allclose(rho, np.diag([0, 1, 0, 0]), atol=0)


class TestSpecValidation:
    def test_initial_trace_violation(self):
        bad = 0.9 * UP
        with pytest.raises(ContractViolationError, match="trace"):
            SystemSpec(particles=(ParticleSpec(dim=2, h=SZ),), terms=(),
                       initial=(bad,))

    def test_initial_negative_eigenvalue(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ContractViolationError, match="negative"):
            SystemSpec(particles=(ParticleSpec(dim=2, h=SZ),), terms=(),
                       initial=(bad,))

    def test_non_hermitian_hamiltonian(self):
        with pytest.raises(ContractViolationError):
            ParticleSpec(dim=2, h=np.array([[0, 1], [0, 0]], dtype=complex))

    def test_zero_omega_rejected(self):
        with pytest.raises(ContractViolationError):
            InteractionTerm(omega=0.0, ops=(SZ, SZ))

    @pytest.mark.parametrize("statistics", ["maxwellian", "fermion:a",
                                            "boson:g"])
    def test_statistics_format(self, statistics):
        # every particle is distinguishable; no other label is accepted
        with pytest.raises(ContractViolationError, match="distinguishable"):
            ParticleSpec(dim=2, h=SZ, statistics=statistics)

    def test_shared_terms_need_uniform_dims(self):
        a = ParticleSpec(dim=2, h=SZ)
        b = ParticleSpec(dim=3, h=np.eye(3, dtype=complex))
        with pytest.raises(UnsupportedInteractionError):
            shared_interaction_terms([(1.0, SZ)], (a, b))

    def test_term_dim_mismatch(self):
        with pytest.raises(ShapeError):
            SystemSpec(
                particles=(ParticleSpec(dim=2, h=SZ),),
                terms=(InteractionTerm(omega=1.0, ops=(np.eye(3, dtype=complex),)),),
                initial=(UP,))

    def test_pairwise_restriction_is_swap_symmetric(self, benchmark_system):
        # every accepted system reconstructs a Hermitian, swap-symmetric pair matrix
        pairs = [(t.omega, t.ops[0]) for t in benchmark_system.terms]
        v = reconstruct_pair_interaction(pairs)
        s = swap_operator(2)
        assert hs_norm(v - v.conj().T) <= 1e-10 * hs_norm(v)
        assert hs_norm(s @ v @ s - v) <= 1e-10 * hs_norm(v)
