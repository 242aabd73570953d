import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snbd.errors import (
    ContractViolationError,
    DimensionLimitError,
    ShapeError,
)
from snbd.linalg import (
    herm_deviation,
    herm_eig,
    hs_inner,
    hs_norm,
    kron,
    trace_distance,
    trace_distances,
)

from conftest import SX, SY, SZ, random_hermitian


def kron_by_index_formula(a, b):
    """Brute-force oracle: entry ((i*db+k),(j*db+l)) = a[i,j] * b[k,l]."""
    da, db = a.shape[0], b.shape[0]
    out = np.zeros((da * db, da * db), dtype=complex)
    for i in range(da):
        for j in range(da):
            for k in range(db):
                for l in range(db):
                    out[i * db + k, j * db + l] = a[i, j] * b[k, l]
    return out


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_product(self):
        assert np.allclose(kron(SZ, SZ), np.diag([1, -1, -1, 1]), atol=0)

    def test_matches_index_formula(self):
        assert np.array_equal(kron(SX, SY), kron_by_index_formula(SX, SY))

    def test_index_formula_random(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.allclose(kron(a, b), kron_by_index_formula(a, b), atol=1e-14)

    def test_dimension_limit(self, monkeypatch):
        monkeypatch.setenv("SNBD_MAX_DIM", "3")
        with pytest.raises(DimensionLimitError):
            kron(np.eye(2), np.eye(2))

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            kron(np.ones((2, 3)), np.eye(2))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_associativity(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        left = kron(kron(a, b), c)
        right = kron(a, kron(b, c))
        assert np.abs(left - right).max() <= 1e-14 * max(1.0, np.abs(left).max())

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_trace_multiplicative(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) <= 1e-12 * (
            1 + abs(np.trace(a) * np.trace(b)))


class TestHermEig:
    def test_pauli_z(self):
        w, v = herm_eig(SZ)
        assert np.allclose(w, [-1, 1], atol=0)
        assert np.allclose(np.abs(v), np.array([[0, 1], [1, 0]]), atol=1e-15)

    def test_identity(self):
        w, _ = herm_eig(np.eye(5))
        assert np.allclose(w, 1.0, atol=0)

    def test_pauli_x(self):
        w, v = herm_eig(SX)
        assert np.allclose(w, [-1, 1])
        # textbook eigenvectors (|0> -+ |1>)/sqrt(2), phase-fixed
        assert np.allclose(np.abs(v), np.full((2, 2), 1 / np.sqrt(2)), atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(3)
        m = random_hermitian(rng, 6)
        w, v = herm_eig(m)
        assert hs_norm(m - (v * w) @ v.conj().T) <= 1e-10 * hs_norm(m)
        assert hs_norm(v.conj().T @ v - np.eye(6)) <= 1e-10
        assert np.all(np.diff(w) >= 0)

    def test_phase_convention(self):
        rng = np.random.default_rng(4)
        _, v = herm_eig(random_hermitian(rng, 5))
        for j in range(5):
            pivot = v[np.argmax(np.abs(v[:, j])), j]
            assert abs(pivot.imag) <= 1e-12 and pivot.real > 0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractViolationError):
            herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_deviation_of_huge_entries_and_nan(self):
        # entries whose norms overflow are read scaled, so a matrix that is
        # plainly not Hermitian fails and a Hermitian one passes; a NaN
        # entry, in the real or the imaginary part, gives a NaN deviation,
        # which fails too
        big = np.array([[0.5, 0], [-1e308, -0.5]], dtype=complex)
        assert herm_deviation(big) == pytest.approx(np.sqrt(2.0))
        with pytest.raises(ContractViolationError):
            herm_eig(big)
        hermitian = np.array([[1e308, 1e308j], [-1e308j, 1e308]])
        assert herm_deviation(hermitian) == 0.0
        im_nan = complex(0.0, np.nan)
        for nan in (np.array([[0, np.nan], [np.nan, 0]], dtype=complex),
                    np.array([[0, im_nan], [im_nan, 0]])):
            assert np.isnan(herm_deviation(nan))
            with pytest.raises(ContractViolationError):
                herm_eig(nan)


class TestHsInner:
    def test_identity(self):
        assert hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)

    def test_pauli_orthogonality(self):
        assert abs(hs_inner(SX, SY)) <= 1e-15

    def test_matches_entrywise_sum(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        direct = sum(abs(a[i, j]) ** 2 for i in range(4) for j in range(4))
        got = hs_inner(a, a)
        assert got.imag == pytest.approx(0.0, abs=1e-14)
        assert got.real == pytest.approx(direct, rel=1e-13)
        assert got.real >= 0

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            hs_inner(np.eye(2), np.eye(3))


class TestTraceDistance:
    def test_identical(self):
        assert trace_distance(SZ, SZ) == 0.0

    def test_orthogonal_pure_states(self):
        up = np.diag([1.0, 0.0]).astype(complex)
        down = np.diag([0.0, 1.0]).astype(complex)
        assert trace_distance(up, down) == pytest.approx(1.0)

    @pytest.mark.parametrize("d", [2, 12])
    def test_stack_is_bitwise_each_pair(self, d):
        # one eigvalsh over the stack, solved matrix by matrix
        rng = np.random.default_rng(5)
        a = np.stack([random_hermitian(rng, d) for _ in range(30)])
        b = random_hermitian(rng, d)
        got = trace_distances(a, b)
        assert got.shape == (30,)
        assert all(got[t] == trace_distance(a[t], b) for t in range(30))
