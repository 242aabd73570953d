"""Stochastic one-body unraveling of pairwise-interacting quantum dynamics.

The N-body density of any non-relativistic system with pairwise
interactions is represented as a Monte Carlo average of tensor products
of N stochastic one-body densities.  This package propagates those
one-body densities with an Ito Euler-Maruyama integrator, estimates the
full density and product observables from trajectory ensembles, checks
everything against an exact desk-scale reference propagation, recovers
the N-body wavefunction (including its global phase) from the averaged
densities, and extracts eigenspectra from the recovered autocorrelation.

The API is the submodules (``snbd.system``, ``snbd.propagator``,
``snbd.ensemble``, ``snbd.oracle``, ``snbd.recovery``, ...); the package
root exports only ``__version__``.
"""

__version__ = "0.1.0"
