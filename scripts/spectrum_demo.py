#!/usr/bin/env python3
"""Eigenspectrum extraction demo on the two-spin system.

Propagates the exact wavefunction to T = 200, Fourier-transforms the
autocorrelation, and compares every detected peak against direct
diagonalization.

    python scripts/spectrum_demo.py [--t-max 200] [--no-window]
"""

import argparse
import sys

import numpy as np

from snbd.linalg import herm_eig
from snbd.oracle import propagate_exact
from snbd.recovery import autocorrelation_spectrum, spectrum_peaks
from snbd.system import (
    ParticleSpec,
    SystemSpec,
    assemble_full_hamiltonian,
    decompose_pair_interaction,
    shared_interaction_terms,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)


def two_spin_system(j=0.2, omega0=1.0):
    particles = (ParticleSpec(dim=2, h=0.5 * omega0 * SZ),) * 2
    v = j * (np.kron(SX, SX) + np.kron(SY, SY) + np.kron(SZ, SZ))
    up = np.diag([1.0, 0.0]).astype(complex)
    down = np.diag([0.0, 1.0]).astype(complex)
    return SystemSpec(
        particles=particles,
        terms=shared_interaction_terms(decompose_pair_interaction(v, 2),
                                       particles),
        initial=(up, down))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t-max", type=float, default=200.0)
    parser.add_argument("--dt", type=float, default=0.05)
    parser.add_argument("--no-window", action="store_true")
    args = parser.parse_args(argv)

    spec = two_spin_system()
    t = np.arange(0, args.t_max + 1e-9, args.dt)
    psi = propagate_exact(spec, t, pure=True).psiN
    e_grid, intensity = autocorrelation_spectrum(
        psi, t, window=not args.no_window, e_max=2.0)
    peaks = spectrum_peaks(e_grid, intensity)

    w, _ = herm_eig(assemble_full_hamiltonian(spec))
    resolution = 2 * np.pi / args.t_max
    print(f"exact eigenvalues : {np.round(w, 6)}")
    print(f"resolution 2pi/T  : {resolution:.5f}")
    print(f"{'peak E':>10} {'nearest eig':>12} {'offset':>9}")
    for p in peaks:
        nearest = w[np.argmin(np.abs(w - p))]
        print(f"{p:10.5f} {nearest:12.5f} {abs(p - nearest):9.5f}")
    worst = max(abs(p - w[np.argmin(np.abs(w - p))]) for p in peaks)
    print(f"worst offset {worst:.5f} ({'OK' if worst <= resolution else 'OVER'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
