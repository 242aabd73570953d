"""Dense complex linear-algebra primitives.

Everything in this package represents operators and densities as square
``complex128`` numpy arrays.  This module collects the handful of
primitives the rest of the code is built on: Kronecker products,
Hermitian eigendecompositions, Hilbert-Schmidt inner products and the
trace distance.  All functions are pure and never mutate their inputs.
"""

import os

import numpy as np

from .errors import (
    ContractViolationError,
    DimensionLimitError,
    ShapeError,
)

#: Relative Hilbert-Schmidt tolerance below which a matrix counts as Hermitian.
HERM_RTOL = 1e-12

#: Default cap on the full N-body dimension (overridable via SNBD_MAX_DIM).
DEFAULT_MAX_DIM = 4096


def max_full_dim() -> int:
    """Configured cap on full-space dimensions (env var SNBD_MAX_DIM wins)."""
    raw = os.environ.get("SNBD_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        value = int(raw)
    except ValueError as exc:
        raise ShapeError(f"SNBD_MAX_DIM={raw!r} is not an integer") from exc
    if value < 1:
        raise ShapeError(f"SNBD_MAX_DIM={value} must be >= 1")
    return value


def as_cmatrix(m, name="matrix") -> np.ndarray:
    """Coerce to a square C-contiguous complex128 array, validating shape."""
    a = np.ascontiguousarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{name}: expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ShapeError(f"{name}: dimension must be >= 1")
    return a


def frozen_cmatrix(m, name="matrix") -> np.ndarray:
    """Validated read-only copy, safe to share across workers."""
    a = as_cmatrix(m, name).copy()
    a.flags.writeable = False
    return a


def hs_norm(a) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(a))


def herm_deviation(m) -> float:
    """Relative Hilbert-Schmidt distance of ``m`` from its own adjoint.

    It is computed on ``m`` divided by its largest real or imaginary
    part, so that no norm overflows for finite entries; a NaN or inf
    entry gives NaN.
    """
    m = np.asarray(m)
    # np.maximum, unlike max, carries a NaN in either part through
    scale = np.maximum(np.abs(m.real).max(initial=0.0),
                       np.abs(m.imag).max(initial=0.0))
    if scale == 0.0:
        return 0.0
    with np.errstate(invalid="ignore"):
        m = m / scale
        return hs_norm(m - m.conj().T) / hs_norm(m)


def require_hermitian(m, name="matrix") -> np.ndarray:
    a = as_cmatrix(m, name)
    dev = herm_deviation(a)
    if not dev <= HERM_RTOL:
        raise ContractViolationError(
            f"{name}: not Hermitian (relative deviation {dev:.3e} > {HERM_RTOL:.1e})"
        )
    return a


def kron(a, b) -> np.ndarray:
    """Kronecker product with a guard on the resulting dimension.

    The entry at ``(i*db + k, j*db + l)`` equals ``a[i, j] * b[k, l]``.
    """
    a = as_cmatrix(a, "a")
    b = as_cmatrix(b, "b")
    dim = a.shape[0] * b.shape[0]
    limit = max_full_dim()
    if dim > limit:
        raise DimensionLimitError(
            f"kron result dimension {dim} exceeds the configured maximum {limit}"
        )
    return np.kron(a, b)


def herm_eig(m):
    """Eigendecomposition of a Hermitian matrix with a fixed phase convention.

    The input is checked against ``HERM_RTOL`` and symmetrized before the
    decomposition so floating-point drift is absorbed without masking
    genuinely non-Hermitian inputs.  Eigenvalues come out ascending; each
    eigenvector is rotated so its largest-magnitude component is real and
    positive, which makes the output reproducible.

    Returns
    -------
    (eigenvalues, eigenvectors) : (real ndarray, complex ndarray)
        ``m == eigenvectors @ diag(eigenvalues) @ eigenvectors.conj().T``.
    """
    a = require_hermitian(m, "herm_eig input")
    a = 0.5 * (a + a.conj().T)
    w, v = np.linalg.eigh(a)
    v = v.copy()
    for j in range(v.shape[1]):
        col = v[:, j]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        mag = abs(pivot)
        if mag > 0.0:
            col *= pivot.conj() / mag
    return w, v


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product Tr{a^dag b}."""
    a = as_cmatrix(a, "a")
    b = as_cmatrix(b, "b")
    if a.shape != b.shape:
        raise ShapeError(f"hs_inner: shape mismatch {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def trace_distance(a, b) -> float:
    """(1/2) sum of absolute eigenvalues of the (Hermitian) difference."""
    a = as_cmatrix(a, "a")
    b = as_cmatrix(b, "b")
    if a.shape != b.shape:
        raise ShapeError(f"trace_distance: shape mismatch {a.shape} vs {b.shape}")
    return float(trace_distances(a, b))


def trace_distances(a, b) -> np.ndarray:
    """``trace_distance`` over stacks (..., D, D), one eigvalsh call for
    the whole stack; LAPACK solves it matrix by matrix, so each value is
    bitwise the one ``trace_distance`` gives for its pair."""
    diff = np.asarray(a, dtype=np.complex128) - b
    diff = 0.5 * (diff + diff.conj().swapaxes(-1, -2))
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1)
