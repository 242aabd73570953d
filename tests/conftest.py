import os
import time
from multiprocessing.context import ForkProcess

import numpy as np
import pytest

import snbd.ensemble
from snbd.system import (
    InteractionTerm,
    ParticleSpec,
    SystemSpec,
    decompose_pair_interaction,
    shared_interaction_terms,
)

#: one line per acceptance criterion, echoed after the run (see
#: tests/test_acceptance.py and pytest_terminal_summary below)
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

def usable_cpus(monkeypatch, n):
    """Let run_ensemble see ``n`` usable CPUs: at one, a serial run steps
    every trajectory in this process; at two, half of them in a forked
    sibling."""
    monkeypatch.setattr(snbd.ensemble, "_usable_cpus", lambda: n)


def sibling_starts(monkeypatch, limit=3):
    """The sibling processes run_ensemble starts, one entry each, in the
    list returned.  A start past ``limit`` fails instead of forking, so
    that a wrong count cannot start many processes."""
    started = []
    start = ForkProcess.start

    def counted(process):
        assert len(started) < limit, f"more than {limit} siblings started"
        started.append(process.name)
        start(process)

    monkeypatch.setattr(ForkProcess, "start", counted)
    return started


def slow_sibling(monkeypatch):
    """propagate_block, as a sibling inherits it, starts its runs 0.2 s
    late, so that each of a sibling's results arrives after this process's
    own result or error."""
    caller = os.getpid()
    propagate = snbd.ensemble.propagate_block

    def sleep_in_sibling(*args, **options):
        if os.getpid() != caller:
            time.sleep(0.2)
        return propagate(*args, **options)

    monkeypatch.setattr(snbd.ensemble, "propagate_block", sleep_in_sibling)


SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
UP = np.array([[1, 0], [0, 0]], dtype=complex)      # |0><0|
DOWN = np.array([[0, 0], [0, 1]], dtype=complex)    # |1><1|


@pytest.fixture
def paulis():
    return SX, SY, SZ


def random_hermitian(rng, dim, scale=1.0):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (a + a.conj().T)


def random_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def heisenberg_pair_matrix(j=0.2):
    return j * (np.kron(SX, SX) + np.kron(SY, SY) + np.kron(SZ, SZ))


def two_spin_system(j=0.2, omega0=1.0, initial=(UP, DOWN)) -> SystemSpec:
    """The two-spin exchange benchmark: Zeeman fields plus isotropic coupling."""
    particles = (ParticleSpec(dim=2, h=0.5 * omega0 * SZ),) * 2
    pairs = decompose_pair_interaction(heisenberg_pair_matrix(j), 2)
    return SystemSpec(
        particles=particles,
        terms=shared_interaction_terms(pairs, particles),
        initial=tuple(initial),
    )


def free_two_spin_system(omega0=1.0, initial=(UP, DOWN)) -> SystemSpec:
    particles = (ParticleSpec(dim=2, h=0.5 * omega0 * SZ),) * 2
    return SystemSpec(particles=particles, terms=(), initial=tuple(initial))


def interleaved_system():
    """Dims (2, 3, 2): the d=2 group holds particles 0 and 2, not adjacent.

    Two terms with random Hermitian factors, one weight negative."""
    rng = np.random.default_rng(31)
    dims = (2, 3, 2)
    terms = tuple(
        InteractionTerm(omega=omega,
                        ops=tuple(random_hermitian(rng, d, 0.5) for d in dims))
        for omega in (0.3, -0.2))
    return SystemSpec(
        particles=tuple(ParticleSpec(dim=d, h=random_hermitian(rng, d))
                        for d in dims),
        terms=terms,
        initial=(random_density(rng, 2), random_density(rng, 3), UP))


@pytest.fixture
def benchmark_system():
    return two_spin_system()
