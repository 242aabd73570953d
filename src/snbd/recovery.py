"""Wavefunction recovery and spectrum extraction.

For a pure product initial state, the ensemble's reference-vector sums
give the unnormalized vector

    phi_tilde(t) = M[ rho_1(t)|i_1> (x) ... (x) rho_N(t)|i_N> ] ,

whose normalization phi(t) equals the true wavefunction up to a global
phase.  The phase is the time integral of

    [ <psi0| H |phi(t)> - i d/dt <psi0|phi(t)> ] / <psi0|phi(t)> ,

(analytically real; the real part is integrated) and the corrected
psi(t) = phi(t) exp(-i Theta(t)) feeds the autocorrelation spectrum

    I(E) = (1/pi) Re  integral_0^T <psi(0)|psi(t)> exp(i E t) dt .

Everything here is post-processing over completed accumulator data and
never materializes the full N-body density: recovery works entirely with
per-trajectory tensor-product vectors accumulated during the run.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateReferenceError,
    GridError,
    PhaseSingularityError,
    ShapeError,
)
from .ensemble import EnsembleAccumulator, jackknife_blocks
from .linalg import herm_eig
from .oracle import initial_pure_factors, initial_pure_vector
from .system import SystemSpec, apply_full_hamiltonian

#: Below this overlap the phase quotient is statistically meaningless.
EPS_OVERLAP = 1e-3

#: Below this norm the reference is effectively orthogonal to the state.
EPS_REF = 1e-8


@dataclass
class RecoveryRecord:
    """Recovered-state time series and derived quantities."""

    t_grid: np.ndarray      # (T,)
    phi_tilde: np.ndarray   # (T, D) unnormalized recovered vectors
    phi: np.ndarray         # (T, D) normalized
    theta: np.ndarray       # (T,) phase integral, theta[0] = 0
    psi: np.ndarray         # (T, D) phase-corrected wavefunction
    autocorr: np.ndarray    # (T,) <psi(0)|psi(t)>
    psi0: np.ndarray        # (D,) phase reference, the initial product state
    h_psi0: np.ndarray      # (D,) H|psi0>


def default_reference_vectors(spec: SystemSpec) -> tuple:
    """Dominant natural orbital of each initial one-body density.

    Maximizes the initial overlap with the reference product vector,
    which postpones phase-singularity failures.
    """
    refs = []
    for rho in spec.initial:
        _, v = herm_eig(rho)
        refs.append(np.ascontiguousarray(v[:, -1]))
    return tuple(refs)


def recover_raw_vector(acc: EnsembleAccumulator) -> np.ndarray:
    """Ensemble mean of the reference-vector contractions: (T, D).

    Requires reference vectors to have been registered before the run.
    """
    return _mean_vector(acc.times, acc.sum_vec, acc.estimate_counts())


def _mean_vector(times, vec_total, m) -> np.ndarray:
    """phi_tilde = vec_total / m over the trajectories of some blocks.

    A mean vector with norm below ``EPS_REF`` means the reference is
    nearly orthogonal to the evolved state and recovery is hopeless.
    """
    phi_tilde = vec_total / m[:, None]
    norms = np.linalg.norm(phi_tilde, axis=1)
    if (norms < EPS_REF).any():
        t_bad = float(times[int(np.argmax(norms < EPS_REF))])
        raise DegenerateReferenceError(
            f"recovered vector norm below {EPS_REF:g} at t={t_bad:.6g}")
    return phi_tilde


def _series_derivative_fd(values: np.ndarray, dt: float) -> np.ndarray:
    """Second-order finite differences: central inside, one-sided at the ends."""
    out = np.empty_like(values)
    if len(values) < 3:
        raise GridError("phase derivative needs at least 3 grid points")
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * dt)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * dt)
    return out


def _check_uniform(t_grid: np.ndarray) -> float:
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) < 2:
        raise GridError("need at least two grid times")
    steps = np.diff(t_grid)
    dt = steps[0]
    if dt <= 0 or not np.allclose(steps, dt, rtol=1e-9, atol=0.0):
        raise GridError("time grid must be uniform")
    return float(dt)


def phase_integrand(t_grid, phi, h_psi0, psi0) -> np.ndarray:
    """Complex integrand of the phase formula (its exact value is real).

    ``h_psi0`` is H|psi0> for a Hermitian H (in practice the full-space
    Hamiltonian applied to the product state, ``apply_full_hamiltonian``).
    """
    dt = _check_uniform(t_grid)
    overlap = phi @ np.conj(psi0)                    # <psi0|phi(t)>
    h_overlap = phi @ np.conj(h_psi0)                # <psi0|H|phi(t)>
    d_overlap = _series_derivative_fd(overlap, dt)
    return (h_overlap - 1j * d_overlap) / overlap


def compute_phase(t_grid, phi, h_psi0, psi0) -> np.ndarray:
    """Phase series Theta(t) by cumulative trapezoid of the (real) integrand.

    Raises PhaseSingularityError at the first grid time where the overlap
    with psi0 drops below ``EPS_OVERLAP``.
    """
    overlap = np.abs(phi @ np.conj(psi0))
    small = overlap < EPS_OVERLAP
    if small.any():
        i = int(np.argmax(small))
        raise PhaseSingularityError(t=float(np.asarray(t_grid)[i]),
                                    overlap=float(overlap[i]))
    integrand = phase_integrand(t_grid, phi, h_psi0, psi0).real
    dt = _check_uniform(t_grid)
    theta = np.zeros(len(integrand))
    theta[1:] = np.cumsum(0.5 * (integrand[1:] + integrand[:-1])) * dt
    return theta


def recover_wavefunction(phi: np.ndarray, theta: np.ndarray,
                         psi0: np.ndarray = None) -> np.ndarray:
    """psi(t) = phi(t) exp(-i Theta(t)), optionally phase-aligned at t = 0.

    One constant global phase is left free by the construction; when
    ``psi0`` is given, the whole series is rotated so <psi0|psi(0)> is
    real and positive.
    """
    psi = phi * np.exp(-1j * theta)[:, None]
    if psi0 is not None:
        o = np.vdot(psi0, psi[0])
        if abs(o) > 0:
            psi = psi * (np.conj(o) / abs(o))
    return psi


def _recover(times, phi_tilde, h_psi0, psi0) -> RecoveryRecord:
    """Normalize, phase-correct and autocorrelate a recovered-vector series."""
    phi = phi_tilde / np.linalg.norm(phi_tilde, axis=1)[:, None]
    theta = compute_phase(times, phi, h_psi0, psi0)
    psi = recover_wavefunction(phi, theta, psi0)
    return RecoveryRecord(t_grid=times.copy(), phi_tilde=phi_tilde, phi=phi,
                          theta=theta, psi=psi, autocorr=psi @ np.conj(psi[0]),
                          psi0=psi0, h_psi0=h_psi0)


def recover(acc: EnsembleAccumulator, spec: SystemSpec) -> RecoveryRecord:
    """Full recovery pipeline from a finished accumulator.

    The phase reference psi0 is the (pure product) initial state of the spec.
    """
    factors = initial_pure_factors(spec)
    phi_tilde = recover_raw_vector(acc)
    return _recover(acc.times, phi_tilde, apply_full_hamiltonian(spec, factors),
                    initial_pure_vector(spec))


def jackknife_recovery(acc: EnsembleAccumulator, spec: SystemSpec, fn,
                       full: RecoveryRecord = None):
    """Delete-one-block jackknife of a per-time functional of the recovery.

    ``fn(record) -> (T,) array`` is evaluated on the full recovery and on
    every leave-one-block-out recovery (the whole pipeline, phase
    included, is recomputed per replicate, with the full recovery's psi0
    and H|psi0>).  ``full`` is the full recovery, ``recover(acc, spec)``,
    when the caller has it already.  Returns (values, standard errors).
    """
    if full is None:
        full = recover(acc, spec)
    return jackknife_blocks(acc, acc.vec_sum, lambda total, m: fn(
        _recover(acc.times, _mean_vector(acc.times, total, m), full.h_psi0,
                 full.psi0)), fn(full))


def autocorrelation_spectrum(psi_series, t_grid, *, window: bool = False,
                             oversample: int = 8, e_max: float = None):
    """Spectral intensity I(E) from the recovered-state autocorrelation.

    Trapezoidal quadrature of (1/pi) Re integral_0^T c(t) exp(iEt) dt with
    c(t) = <psi(0)|psi(t)> over the uniform grid.  The default energy grid
    spans the Nyquist range of the grid spacing with spacing
    2 pi / (T * oversample); pass ``e_max`` to narrow it.
    The optional Hann window suppresses truncation ringing; it preserves
    peak positions and broadens widths.
    """
    psi_series = np.asarray(psi_series)
    dt = _check_uniform(t_grid)
    t_grid = np.asarray(t_grid, dtype=float)
    t_span = t_grid[-1] - t_grid[0]
    if t_span <= 0:
        raise GridError("time grid must span a positive interval")
    autocorr = psi_series @ np.conj(psi_series[0])
    if window:
        autocorr = autocorr * 0.5 * (1.0 + np.cos(np.pi * (t_grid - t_grid[0])
                                                  / t_span))
    if e_max is None:
        e_max = np.pi / dt
    step = 2.0 * np.pi / (t_span * oversample)
    e_grid = np.arange(-e_max, e_max + 0.5 * step, step)

    weights = np.full(len(t_grid), dt)
    weights[0] = weights[-1] = 0.5 * dt
    intensity = np.empty(len(e_grid))
    chunk = 1024
    rel_t = t_grid - t_grid[0]
    for i in range(0, len(e_grid), chunk):
        phases = np.exp(1j * np.outer(e_grid[i:i + chunk], rel_t))
        intensity[i:i + chunk] = (phases @ (weights * autocorr)).real / np.pi
    return e_grid, intensity


def spectrum_peaks(e_grid, intensity, min_height_frac: float = 0.1) -> np.ndarray:
    """Energies of local maxima above ``min_height_frac`` of the global max."""
    e_grid = np.asarray(e_grid)
    intensity = np.asarray(intensity)
    if len(e_grid) != len(intensity):
        raise ShapeError("energy grid and intensity lengths differ")
    if len(intensity) < 3:
        return np.array([])
    inner = intensity[1:-1]
    is_peak = (inner > intensity[:-2]) & (inner >= intensity[2:])
    threshold = min_height_frac * intensity.max()
    idx = np.nonzero(is_peak & (inner >= threshold))[0] + 1
    return e_grid[idx]
