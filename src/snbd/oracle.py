"""Exact desk-scale reference dynamics.

Propagates the full N-body density (or pure state) under
d rho / dt = -i [H, rho] by eigendecomposition of the assembled
Hamiltonian, which at the supported dimensions is exact to roundoff and
keeps time-stepping error out of every comparison against the stochastic
engine.  Also provides exact observable series.
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ContractViolationError, ShapeError
from .linalg import herm_eig
from .system import SystemSpec, assemble_full_hamiltonian, product_density


@dataclass
class FullState:
    """Exact N-body state at one time (density and/or pure vector)."""

    t: float
    rhoN: np.ndarray = None
    psiN: np.ndarray = None


def initial_pure_factors(spec: SystemSpec) -> list:
    """The pure one-body vectors underlying the initial densities.

    Each one-body initial density must be (numerically) a rank-1
    projector; the dominant natural orbital is taken as the vector.
    """
    vecs = []
    for k, rho in enumerate(spec.initial):
        w, v = herm_eig(rho)
        if not (abs(w[-1] - 1.0) <= 1e-10 and (len(w) < 2 or abs(w[-2]) <= 1e-10)):
            raise ContractViolationError(
                f"initial density {k} is not pure (occupations {w})")
        vecs.append(v[:, -1])
    return vecs


def initial_pure_vector(spec: SystemSpec) -> np.ndarray:
    """Tensor product of the ``initial_pure_factors``."""
    return reduce(np.kron, initial_pure_factors(spec))


def propagate_exact(spec: SystemSpec, t_grid, pure: bool = False) -> list:
    """Exact states on ``t_grid`` via U(t) = V exp(-i w t) V^dag.

    With ``pure=True`` the initial state must be a product of pure
    one-body densities and the pure vector is propagated alongside the
    density.
    """
    h = assemble_full_hamiltonian(spec)
    w, v = herm_eig(h)
    rho0 = product_density(spec)
    rho0_eig = v.conj().T @ rho0 @ v
    psi0_eig = None
    if pure:
        psi0_eig = v.conj().T @ initial_pure_vector(spec)
    states = []
    for t in np.asarray(t_grid, dtype=float):
        phase = np.exp(-1j * w * t)
        rho = v @ (phase[:, None] * rho0_eig * phase.conj()[None, :]) @ v.conj().T
        rho = 0.5 * (rho + rho.conj().T)
        psi = v @ (phase * psi0_eig) if pure else None
        states.append(FullState(t=float(t), rhoN=rho, psiN=psi))
    return states


def exact_observable(states, obs, dims) -> np.ndarray:
    """Tr{(x)_k A_k rho(t)} on every state; the result is real."""
    a = obs.full_matrix(dims)
    out = np.empty(len(states))
    for i, st in enumerate(states):
        if st.rhoN is None:
            raise ShapeError("exact_observable needs density-mode states")
        if st.rhoN.shape != a.shape:
            raise ShapeError(
                f"observable dim {a.shape[0]} != state dim {st.rhoN.shape[0]}")
        val = complex(np.trace(a @ st.rhoN))
        if not abs(val.imag) <= 1e-10:
            raise ContractViolationError(
                f"observable develops imaginary part {val.imag:.3e}")
        out[i] = val.real
    return out
