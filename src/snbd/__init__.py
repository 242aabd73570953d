"""Stochastic one-body unraveling of pairwise-interacting quantum dynamics.

The N-body density of any non-relativistic system with pairwise
interactions is represented as a Monte Carlo average of tensor products
of N stochastic one-body densities.  This package propagates those
one-body densities with an Ito Euler-Maruyama integrator, estimates the
full density and product observables from trajectory ensembles, checks
everything against an exact desk-scale reference propagation, recovers
the N-body wavefunction (including its global phase) from the averaged
densities, and extracts eigenspectra from the recovered autocorrelation.
"""

__version__ = "0.1.0"

from .ensemble import (
    EnsembleAccumulator,
    EnsembleOptions,
    ObservableSpec,
    estimate_density,
    estimate_product_observable,
    jackknife_density_scalar,
    merge_accumulators,
    run_ensemble,
)
from .linalg import (
    herm_eig,
    hs_inner,
    kron,
    matrix_exp,
    partial_trace,
    trace_distance,
)
from .oracle import (
    FullState,
    exact_observable,
    initial_pure_vector,
    propagate_exact,
    symmetrize_vector,
)
from .propagator import (
    TrajectoryState,
    propagate_trajectory,
    sample_increments,
    trajectory_rng,
)
from .recovery import (
    RecoveryRecord,
    autocorrelation_spectrum,
    compute_phase,
    default_reference_vectors,
    jackknife_recovery,
    recover,
    recover_raw_vector,
    recover_wavefunction,
    spectrum_peaks,
)
from .system import (
    InteractionTerm,
    ParticleSpec,
    SystemSpec,
    assemble_full_hamiltonian,
    build_hermitian_basis,
    decompose_pair_interaction,
    reconstruct_pair_interaction,
    shared_interaction_terms,
)

__all__ = [
    "__version__",
    "EnsembleAccumulator",
    "EnsembleOptions",
    "FullState",
    "InteractionTerm",
    "ObservableSpec",
    "ParticleSpec",
    "RecoveryRecord",
    "SystemSpec",
    "TrajectoryState",
    "assemble_full_hamiltonian",
    "autocorrelation_spectrum",
    "build_hermitian_basis",
    "compute_phase",
    "decompose_pair_interaction",
    "default_reference_vectors",
    "estimate_density",
    "estimate_product_observable",
    "exact_observable",
    "herm_eig",
    "hs_inner",
    "initial_pure_vector",
    "jackknife_density_scalar",
    "jackknife_recovery",
    "kron",
    "matrix_exp",
    "merge_accumulators",
    "partial_trace",
    "propagate_exact",
    "propagate_trajectory",
    "recover",
    "recover_raw_vector",
    "recover_wavefunction",
    "reconstruct_pair_interaction",
    "run_ensemble",
    "sample_increments",
    "shared_interaction_terms",
    "spectrum_peaks",
    "symmetrize_vector",
    "trace_distance",
    "trajectory_rng",
]
