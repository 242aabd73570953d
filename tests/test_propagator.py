import cmath
import contextlib
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import snbd.propagator as propagator
from snbd.ensemble import LOCKSTEP_WIDTH
from snbd.errors import (
    ConfigError,
    PositivityViolationError,
    ShapeError,
    TrajectoryBlowupError,
)
from snbd.propagator import (
    COLUMN_ALIGN,
    BlockStats,
    _noise_factor,
    _raw_to_increments,
    coordinate_densities,
    coordinate_rows,
    pair_count,
    pair_list,
    positivity_tolerance,
    propagate_block,
    propagate_trajectory,
    sample_increments,
    sqrt_noise_factors,
    trajectory_rng,
)
from snbd.system import (
    InteractionTerm,
    ParticleSpec,
    SystemSpec,
    assemble_full_hamiltonian,
    decompose_pair_interaction,
    hermitian_coordinates,
    shared_interaction_terms,
    swap_operator,
)

from conftest import (
    DOWN,
    SX,
    SZ,
    UP,
    free_two_spin_system,
    heisenberg_pair_matrix,
    interleaved_system,
    pair_index,
    random_density,
    random_hermitian,
    two_spin_system,
)


# ---------------------------------------------------------------------------
# independent reference: the module-docstring equation, written out literally
# ---------------------------------------------------------------------------

def reference_step(spec, rhos, dal, dt):
    """One Ito step of every particle, term by term and pair by pair.

    ``dal[s, q]`` is the stored increment of term s on pair q = {k, l},
    k < l; particle l reads it complex conjugated.
    """
    n = spec.n_particles
    obar = [[np.trace(term.ops[k] @ rhos[k]).real for term in spec.terms]
            for k in range(n)]
    out = []
    for k in range(n):
        rho = rhos[k]
        h = spec.particles[k].h
        drho = -1j * dt * (h @ rho - rho @ h)
        for s, term in enumerate(spec.terms):
            o = term.ops[k]
            field = sum(obar[l][s] for l in range(n) if l != k)
            drho = drho - 1j * term.omega * field * (o @ rho - rho @ o) * dt
            w = 0j
            for l in range(n):
                if l > k:
                    w += dal[s, pair_index(k, l, n)]
                elif l < k:
                    w += np.conj(dal[s, pair_index(l, k, n)])
            root = cmath.sqrt(-1j * term.omega)
            shifted = o - obar[k][s] * np.eye(len(rho))
            drho = (drho + root * (shifted @ rho) * w
                    + np.conj(root) * (rho @ shifted) * np.conj(w))
        out.append(rho + drho)
    return out


def reference_trajectory(spec, master_seed, index, n_steps, dt, stride):
    """Densities of trajectory (master_seed, index) every ``stride`` steps,
    driven by the same Philox draws as the batched driver, one step at a time."""
    rng = trajectory_rng(master_seed, index)
    p, npairs = len(spec.terms), pair_count(spec.n_particles)
    rhos = [0.5 * (r + r.conj().T) for r in spec.initial]
    frames = [rhos]
    for i in range(1, n_steps + 1):
        dal = _raw_to_increments(rng.standard_normal((p, npairs, 2)), dt)
        rhos = reference_step(spec, rhos, dal, dt)
        if i % stride == 0:
            frames.append(rhos)
    return frames


def spin_qutrit_system():
    """A spin-1/2 and a qutrit whose top level the interaction never reaches.

    The spin starts along x and the qutrit in an equal superposition of
    levels 0 and 1, so neither density commutes with its H_k or O_k and
    every commutator of the step is nonzero."""
    h3 = np.diag([0.3, -0.1, 0.8]).astype(complex)
    o3 = np.zeros((3, 3), complex)
    o3[:2, :2] = SZ / np.sqrt(2)
    term = InteractionTerm(omega=0.4, ops=(SZ / np.sqrt(2), o3))
    return SystemSpec(
        particles=(ParticleSpec(dim=2, h=0.5 * SZ),
                   ParticleSpec(dim=3, h=h3)),
        terms=(term,),
        initial=((np.eye(2) + SX) / 2, np.outer([1, 1, 0], [1, 1, 0]) / 2))


def ising_system():
    """Two spin-1/2 in transverse fields with one coupling term, Z Z: the
    smallest noise and mean-field factors, 4 x 2 and 4 x 8."""
    rng = np.random.default_rng(3)
    particles = (ParticleSpec(dim=2, h=0.5 * SX + 0.2 * SZ),) * 2
    return SystemSpec(
        particles=particles,
        terms=(InteractionTerm(omega=0.4, ops=(SZ, SZ)),),
        initial=(random_density(rng, 2), random_density(rng, 2)))


def eight_spin_system():
    """8 spin-1/2 in random fields, one Heisenberg pair matrix on all 28
    pairs (three terms): the shapes of the spins8 benchmark, a noise factor
    of three 16 x 56 blocks over 168 increments and a 48 x 32 mean-field
    factor."""
    rng = np.random.default_rng(8)
    particles = tuple(ParticleSpec(dim=2, h=random_hermitian(rng, 2))
                      for _ in range(8))
    return SystemSpec(
        particles=particles,
        terms=shared_interaction_terms(
            decompose_pair_interaction(heisenberg_pair_matrix(0.05), 2),
            particles),
        initial=tuple(random_density(rng, 2) for _ in range(8)))


def with_initial(spec, rhos):
    return dataclasses.replace(spec, initial=tuple(rhos))


def collect(spec, seed, start, count, t_final, dt, stride, coords=False,
            **kw):
    """Every record of a block: (t, per particle its (count, d, d)
    densities rebuilt from the coordinates on_record is handed, or with
    ``coords`` those (d^2, count) coordinates, active, mins)."""
    frames = []
    rows = coordinate_rows(spec.dims)
    live = slice(start % COLUMN_ALIGN, start % COLUMN_ALIGN + count)

    def on_record(r, t, c, active, mins):
        per = [c[k, live] for k in rows]
        frames.append((t, [x.copy() if coords else coordinate_densities(x, d)
                           for x, d in zip(per, spec.dims)],
                       active.copy(), mins.copy()))

    stats = propagate_block(spec, seed, start, count, t_final, dt, stride,
                            on_record, **kw)
    return frames, stats


def zero_draw(rngs, n_steps, p, npairs, dt):
    """Stand-in for the noise draw: exact zeros, the noise-free generator."""
    return np.zeros((len(rngs), n_steps, p, npairs), dtype=complex)


@pytest.fixture
def zero_noise(monkeypatch):
    monkeypatch.setattr(propagator, "_draw_noise_chunk", zero_draw)


def record_noise_chunks(monkeypatch):
    """Keep every noise chunk the driver draws, in order, in the list returned."""
    chunks = []
    draw = propagator._draw_noise_chunk

    def recording(*args):
        chunks.append(draw(*args))
        return chunks[-1]

    monkeypatch.setattr(propagator, "_draw_noise_chunk", recording)
    return chunks


def apply_noise_factor(factor, dal):
    """z_s W_k^s, (N, p), from one step's stored increments ``dal[s, q]``,
    read through the float view and the per-term blocks as the step reads
    them."""
    p, rows, cols = factor.shape
    w = (factor @ dal.view(np.float64).reshape(p, cols, 1)).reshape(
        p, 2, rows // 2)
    return (w[:, 0] + 1j * w[:, 1]).T


class TestNoise:
    def test_pair_indexing(self):
        assert pair_count(4) == 6
        pairs = [(k, l) for k in range(3) for l in range(k + 1, 4)]
        for q, (k, l) in enumerate(pairs):
            assert pair_index(k, l, 4) == q
        with pytest.raises(ShapeError):
            pair_index(2, 1, 4)

    def test_conjugate_pairing_exact(self):
        # through the noise factor of the step, each stored increment
        # reaches its first particle as is and its second particle exactly
        # conjugated, times z_s, and no other particle: the real and the
        # imaginary part of one increment, probed alone, land in rows k and
        # l only, with the +- pattern of the conjugation
        n, p = 3, 2
        values = sample_increments(trajectory_rng(3, 0), p, n, dt=0.01)
        terms = random_terms(np.random.default_rng(0), (2,) * n, p)
        assert terms[0].omega > 0 > terms[1].omega
        z = sqrt_noise_factors(terms)
        factor = _noise_factor(z, range(n))
        for s in range(p):
            for q, (k, l) in enumerate(pair_list(n)):
                for part in (values[s, q].real, 1j * values[s, q].imag):
                    single = np.zeros_like(values)
                    single[s, q] = part
                    expected = np.zeros((n, p), dtype=complex)
                    expected[k, s] = z[s] * part
                    expected[l, s] = z[s] * np.conj(part)
                    w = apply_noise_factor(factor, single)
                    assert np.array_equal(w, expected)

    def test_particle_sums_match_direct(self):
        # with z = 1 the noise factor returns W_k^s itself, here with the
        # particles in another row order
        n = 4
        values = sample_increments(trajectory_rng(4, 1), p=2, n_particles=n,
                                   dt=0.02)
        order = [2, 0, 3, 1]
        w = apply_noise_factor(_noise_factor(np.ones(2, complex), order),
                               values)

        def read(s, k, l):
            if k < l:
                return values[s, pair_index(k, l, n)]
            return np.conj(values[s, pair_index(l, k, n)])

        for r, k in enumerate(order):
            for s in range(2):
                direct = sum(read(s, k, l) for l in range(n) if l != k)
                assert w[r, s] == pytest.approx(direct, abs=1e-15)

    def test_second_moments(self):
        # E[da* da'] = delta dt and E[da da'] = 0 within sampling error
        rng = trajectory_rng(5, 0)
        n = 100_000
        dt = 0.5
        raw = rng.standard_normal(size=(n, 2, 3, 2))
        vals = _raw_to_increments(raw, dt).reshape(n, 6)
        conj_mom = vals.conj().T @ vals / n
        plain_mom = vals.T @ vals / n
        se = dt / np.sqrt(n)
        assert np.abs(np.diag(conj_mom) - dt).max() <= 5 * se
        off = conj_mom - np.diag(np.diag(conj_mom))
        assert np.abs(off).max() <= 5 * se
        assert np.abs(plain_mom).max() <= 5 * se
        assert np.abs(vals.mean(axis=0)).max() <= 5 * np.sqrt(dt / 2 / n) * 2

    def test_chunked_draw_matches_per_step(self, monkeypatch):
        # the noise the driver draws, in budget-limited chunks with a
        # partial last one, is bitwise each trajectory's one-step draws
        spec = interleaved_system()
        p, npairs, count, n_steps, dt = 2, 3, 3, 10, 1e-3
        step_bytes = 16 * count * p * npairs
        monkeypatch.setattr(propagator, "NOISE_CHUNK_BYTES", 4 * step_bytes + 8)
        chunks = record_noise_chunks(monkeypatch)
        propagate_block(spec, 9, 2, count, n_steps * dt, dt, n_steps,
                        lambda *_: None, positivity_tol=np.inf)
        assert [c.shape[1] for c in chunks] == [4, 4, 2]
        drawn = np.concatenate(chunks, axis=1)
        for j in range(count):
            rng = trajectory_rng(9, 2 + j)
            per_step = np.stack([sample_increments(rng, p, 3, dt)
                                 for _ in range(n_steps)])
            assert np.array_equal(drawn[j], per_step)

    def test_wide_block_chunks_stay_within_budget(self, benchmark_system,
                                                  monkeypatch):
        chunks = record_noise_chunks(monkeypatch)
        propagate_block(benchmark_system, 1, 0, 600, 0.4, 1e-3, 400,
                        lambda *_: None, positivity_tol=np.inf, policy="skip")
        assert len(chunks) > 1
        assert sum(c.shape[1] for c in chunks) == 400
        assert max(c.nbytes for c in chunks) <= propagator.NOISE_CHUNK_BYTES

    def test_determinism(self):
        x = sample_increments(trajectory_rng(1, 2), 2, 2, 0.1)
        y = sample_increments(trajectory_rng(1, 2), 2, 2, 0.1)
        assert np.array_equal(x, y)
        z = sample_increments(trajectory_rng(1, 3), 2, 2, 0.1)
        assert not np.array_equal(x, z)

    def test_rejects_bad_dt(self):
        with pytest.raises(ConfigError):
            sample_increments(trajectory_rng(0, 0), 1, 2, 0.0)


class TestStepCoefficients:
    def test_sqrt_branch(self, benchmark_system):
        z = sqrt_noise_factors(benchmark_system.terms)
        omegas = [t.omega for t in benchmark_system.terms]
        for zs, om in zip(z, omegas):
            assert abs(zs * zs - (-1j * om)) <= 1e-14
        # negative weight: same principal branch on both factors
        z_neg = sqrt_noise_factors([InteractionTerm(omega=-0.5, ops=(SZ, SZ))])
        assert abs(z_neg[0] ** 2 - 0.5j) <= 1e-14

    def test_mean_fields_match_traces(self, benchmark_system, zero_noise):
        # with the noise off, one step of length 1 is rho - i [H_eff, rho]
        # with H_eff = H + sum_s omega_s Tr{O_l^s rho_l} O_k^s (l != k)
        rng = np.random.default_rng(11)
        rhos = [random_density(rng, 2), random_density(rng, 2)]
        spec = with_initial(benchmark_system, rhos)
        snaps = propagate_trajectory(spec, 1.0, 1.0, 1, rng_seed=0,
                                     positivity_tol=np.inf)
        for k in range(2):
            rho = 0.5 * (rhos[k] + rhos[k].conj().T)
            h_eff = spec.particles[k].h.astype(complex)
            for term in spec.terms:
                field = np.trace(term.ops[1 - k] @ rhos[1 - k]).real
                h_eff = h_eff + term.omega * field * term.ops[k]
            expected = rho - 1j * (h_eff @ rho - rho @ h_eff)
            assert np.abs(snaps[1].rhos[k] - expected).max() <= 1e-12


class TestEmStep:
    """Properties of one Euler-Maruyama step, taken by propagate_block."""

    def test_noise_free_limit_is_pure_drift(self):
        spec = free_two_spin_system()
        dt = 1e-3
        out = propagate_trajectory(spec, dt, dt, 1, rng_seed=0)[1]
        for k, rho in enumerate((UP, DOWN)):
            h = spec.particles[k].h
            expected = rho - 1j * dt * (h @ rho - rho @ h)
            assert np.allclose(out.rhos[k], expected, atol=0)

    def test_trace_preserved_per_step(self, benchmark_system):
        rng = np.random.default_rng(12)
        spec = with_initial(benchmark_system,
                            [random_density(rng, 2), random_density(rng, 2)])
        snaps = propagate_trajectory(spec, 0.05, 1e-3, 1, rng_seed=(12, 0),
                                     positivity_tol=np.inf)
        assert len(snaps) == 51
        for snap in snaps[1:]:
            for rho in snap.rhos:
                assert abs(np.trace(rho) - 1.0) <= 1e-14

    def test_hermiticity_exact(self, benchmark_system):
        snaps = propagate_trajectory(benchmark_system, 0.2, 1e-3, 200,
                                     rng_seed=(13, 0), positivity_tol=np.inf)
        for rho in snaps[-1].rhos:
            assert np.array_equal(rho, rho.conj().T)

    def test_single_step_mean_is_drift(self, benchmark_system, monkeypatch):
        # Monte Carlo mean of the stochastic step vs the deterministic part
        rng = np.random.default_rng(14)
        spec = with_initial(benchmark_system,
                            [random_density(rng, 2), random_density(rng, 2)])
        dt = 1e-3
        n = 20_000
        frames, _ = collect(spec, 14, 0, n, dt, dt, 1, positivity_tol=np.inf)
        mean = [rhos.mean(axis=0) for rhos in frames[1][1]]
        monkeypatch.setattr(propagator, "_draw_noise_chunk", zero_draw)
        drift = propagate_trajectory(spec, dt, dt, 1, rng_seed=0,
                                     positivity_tol=np.inf)[1]
        # per-entry noise scale ~ sqrt(|omega| dt); 3 standard errors
        se = 3 * np.sqrt(3 * 0.4 * dt / n)
        for k in range(2):
            assert np.abs(mean[k] - drift.rhos[k]).max() <= 3 * se

    def test_blowup_detection(self, benchmark_system, monkeypatch):
        # a non-finite increment poisons the densities within one step
        monkeypatch.setattr(
            propagator, "_draw_noise_chunk",
            lambda *args: np.full_like(zero_draw(*args), np.nan))
        with pytest.raises(TrajectoryBlowupError):
            propagate_trajectory(benchmark_system, 1e-3, 1e-3, 1,
                                 rng_seed=(0, 0), positivity_tol=np.inf)


# ---------------------------------------------------------------------------
# the mean step, averaged exactly over the noise
# ---------------------------------------------------------------------------

class NodeStream:
    """Stand-in for trajectory ``index``'s Philox stream: its standard
    normals are the +-1 signs of the bits of ``index``, one bit per real
    noise coordinate of the (single) step."""

    def __init__(self, index):
        self.index = index

    def standard_normal(self, out):
        bits = (self.index >> np.arange(out.size)) & 1
        out[...] = (1.0 - 2.0 * bits).reshape(out.shape)


def mean_product(rhos):
    """(1/B) sum_b rho_1[b] (x) ... (x) rho_N[b] from per-particle stacks."""
    out = rhos[0]
    for nxt in rhos[1:]:
        b, m, n = len(out), out.shape[1], nxt.shape[1]
        out = np.einsum("bij,bkl->bikjl", out, nxt).reshape(b, m * n, m * n)
    return out.mean(axis=0)


def random_terms(rng, dims, n_terms):
    return tuple(
        InteractionTerm(omega=omega,
                        ops=tuple(random_hermitian(rng, d, 0.5) for d in dims))
        for omega in rng.uniform(-0.5, 0.5, n_terms))


def random_system(seed, dims, n_terms):
    rng = np.random.default_rng(seed)
    return SystemSpec(
        particles=tuple(ParticleSpec(dim=d, h=random_hermitian(rng, d))
                        for d in dims),
        terms=random_terms(rng, dims, n_terms),
        initial=tuple(random_density(rng, d) for d in dims))


def exchange_system(seed):
    """Two spin-1/2 with random fields and a random exchange-symmetric
    pair matrix, decomposed into its four product terms."""
    rng = np.random.default_rng(seed)
    s = swap_operator(2)
    v = random_hermitian(rng, 4)
    particles = tuple(ParticleSpec(dim=2, h=random_hermitian(rng, 2))
                      for _ in range(2))
    terms = shared_interaction_terms(
        decompose_pair_interaction(0.5 * (v + s @ v @ s), 2), particles)
    return SystemSpec(particles=particles, terms=terms,
                      initial=tuple(random_density(rng, 2) for _ in range(2)))


class TestGenerator:
    """One step's mean of the N-fold product is the exact N-body generator.

    Each real noise coordinate enters each rho_k' affinely and reaches
    two particles, so it enters the product rho_1' (x) ... (x) rho_N' at
    most quadratically: the full +-1 factorial design over the
    2 p N(N-1)/2 coordinates reproduces the Gaussian average exactly.
    The design's nodes run through propagate_block as trajectories, one
    per node, and propagate_block's own draw scales them by sqrt(dt/2).
    The mean minus rho_N is then a polynomial of degree N in dt without
    constant term, fitted exactly from N step sizes; its linear
    coefficient must be -i [H, rho_N] with H the full Hamiltonian.

    The bound is roundoff: entries of order 1, mean products summed
    pairwise over at most 2^12 nodes (about 64 eps each), divided by
    step sizes of order 0.1 through fit weights whose absolute sum is at
    most 50 (N = 3): about 7e-13 on a generator of order 1.
    """

    BOUND = 1e-12
    STEPS = (0.1, 0.2, 0.3)

    def linear_coefficient(self, spec, monkeypatch):
        monkeypatch.setattr(propagator, "trajectory_rng",
                            lambda seed, index: NodeStream(index))
        n = spec.n_particles
        nodes = 2 ** (2 * len(spec.terms) * pair_count(n))
        hs = self.STEPS[:n]
        lifts = []
        for h in hs:
            frames, _ = collect(spec, 0, 0, nodes, h, h, 1,
                                positivity_tol=np.inf)
            rho_n = mean_product([r[:1] for r in frames[0][1]])
            lifts.append(mean_product(frames[1][1]) - rho_n)
        fit = np.array([[h ** j for j in range(1, n + 1)] for h in hs])
        coeffs = np.linalg.solve(fit, np.reshape(lifts, (n, -1)))
        return coeffs[0].reshape(rho_n.shape), rho_n

    @pytest.mark.parametrize("spec", [
        exchange_system(41),
        random_system(42, (2, 3), 4),
        interleaved_system(),
        random_system(43, (2, 2, 2), 1),
    ], ids=["(2,2)", "(2,3)", "(2,3,2)", "N=3 one term"])
    def test_linear_term_is_exact_generator(self, spec, monkeypatch):
        slope, rho_n = self.linear_coefficient(spec, monkeypatch)
        h = assemble_full_hamiltonian(spec)
        exact = -1j * (h @ rho_n - rho_n @ h)
        scale = max(1.0, np.abs(exact).max())
        assert np.abs(slope - exact).max() <= self.BOUND * scale


class TestPropagateTrajectory:
    def test_free_precession_analytic(self):
        # rho(0) = |+><+|: off-diagonal rotates as exp(-i w0 t)
        plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
        spec = free_two_spin_system(omega0=1.0, initial=(plus, plus))
        dt = 1e-4
        snaps = propagate_trajectory(spec, t_final=1.0, dt=dt,
                                     record_stride=2500, rng_seed=0)
        for snap in snaps:
            expected = 0.5 * np.exp(-1j * snap.t)
            got = snap.rhos[0][0, 1]
            assert abs(got - expected) <= 5 * dt  # first-order integrator

    def test_bitwise_determinism(self, benchmark_system):
        a = propagate_trajectory(benchmark_system, 0.1, 1e-3, 20,
                                 rng_seed=(42, 7), positivity_tol=100.0)
        b = propagate_trajectory(benchmark_system, 0.1, 1e-3, 20,
                                 rng_seed=(42, 7), positivity_tol=100.0)
        for x, y in zip(a, b):
            assert x.t == y.t
            for rx, ry in zip(x.rhos, y.rhos):
                assert np.array_equal(rx, ry)

    def test_long_run_invariants(self, benchmark_system):
        # 1e4 steps: trace to 1e-10, Hermiticity to 1e-12 at recorded times
        snaps = propagate_trajectory(benchmark_system, 10.0, 1e-3, 1000,
                                     rng_seed=(7, 0), positivity_tol=np.inf)
        assert len(snaps) == 11
        for snap in snaps:
            for rho in snap.rhos:
                assert abs(np.trace(rho) - 1.0) <= 1e-10
                assert np.linalg.norm(rho - rho.conj().T) <= 1e-12

    def test_grid_validation(self, benchmark_system):
        with pytest.raises(ConfigError):
            propagate_trajectory(benchmark_system, 1.0, 3e-4, 1, rng_seed=0)
        with pytest.raises(ConfigError):
            propagate_trajectory(benchmark_system, 1.0, 1e-3, 3, rng_seed=0)
        with pytest.raises(ConfigError):
            propagate_trajectory(benchmark_system, -1.0, 1e-3, 1, rng_seed=0)

    def test_positivity_abort(self, benchmark_system):
        with pytest.raises(PositivityViolationError):
            propagate_trajectory(benchmark_system, 2.0, 1e-3, 100,
                                 rng_seed=(1, 0),
                                 positivity_tol=positivity_tolerance(
                                     1e-3, benchmark_system))

    def test_is_a_column_of_any_block(self, benchmark_system):
        # a single trajectory is bitwise trajectory j of a block holding it
        frames, _ = collect(benchmark_system, 5, 3, 4, 0.2, 1e-3, 50,
                            positivity_tol=np.inf)
        snaps = propagate_trajectory(benchmark_system, 0.2, 1e-3, 50,
                                     rng_seed=(5, 5), positivity_tol=np.inf)
        for (t, rhos, _, _), snap in zip(frames, snaps):
            assert t == snap.t
            for k in range(2):
                assert np.array_equal(rhos[k][2], snap.rhos[k])

    @pytest.mark.parametrize("make", [
        two_spin_system, interleaved_system, ising_system,
        lambda: random_system(7, (4, 2), 2), eight_spin_system],
        ids=["(2,2)", "(2,3,2)", "ising", "(4,2)", "8 spins"])
    def test_same_bits_at_any_width(self, make):
        # blocks at every start from 0 to 17 (every column position modulo
        # 8, with and without leading padding) and of widths 1 to
        # LOCKSTEP_WIDTH: each of their trajectories is bitwise that
        # trajectory of one wide block, in every record's coordinates,
        # minimum eigenvalue and both deviations, and so is
        # propagate_trajectory; the wide block's minima over blocks of 8
        # are those of its trajectories.  The systems reach noise and
        # mean-field factors of 4 x 2 and 4 x 8 (one term), k = 16
        # (d = 4), two dimension groups, and three noise blocks of 16 x 56
        # and a mean-field factor of 48 x 32 (8 spins, 28 pairs).
        spec = make()
        grid = (0.02, 1e-3, 10)
        wide = 17 + LOCKSTEP_WIDTH
        ref, ref_stats = collect(spec, 6, 0, wide, *grid, coords=True,
                                 positivity_tol=np.inf)
        starts = np.arange(0, wide, 8)
        blocked, _ = collect(spec, 6, 0, wide, *grid, coords=True,
                             positivity_tol=np.inf, block_starts=starts)
        for (_, _, _, mins), (_, _, _, ref_mins) in zip(blocked, ref,
                                                         strict=True):
            assert np.array_equal(
                mins, np.minimum.reduceat(ref_mins, starts, axis=0))
        for width in (1, 2, 7, 8, 9, 17, 64, LOCKSTEP_WIDTH):
            for start in range(18):
                frames, stats = collect(spec, 6, start, width, *grid,
                                        coords=True, positivity_tol=np.inf)
                cols = slice(start, start + width)
                for (_, cs, _, mins), (_, ref_cs, _, ref_mins) in zip(
                        frames, ref, strict=True):
                    assert all(np.array_equal(x, y[:, cols])
                               for x, y in zip(cs, ref_cs, strict=True))
                    assert np.array_equal(mins, ref_mins[cols])
                assert np.array_equal(stats.trace_dev, ref_stats.trace_dev[cols])
                assert np.array_equal(stats.herm_dev, ref_stats.herm_dev[cols])
        for j in (0, 7, 13, wide - 1):
            snaps = propagate_trajectory(spec, *grid, rng_seed=(6, j),
                                         positivity_tol=np.inf)
            for snap, (t, ref_cs, _, _) in zip(snaps, ref, strict=True):
                assert snap.t == t
                assert all(np.array_equal(x, coordinate_densities(
                    y[:, j:j + 1], d)[0]) for x, y, d in zip(
                        snap.rhos, ref_cs, spec.dims, strict=True))

    def test_t0_record_is_the_symmetrized_initial_state(self):
        # the first record hands on the coordinates of (rho + rho^dag)/2 of
        # each initial density in every column, here of densities Hermitian
        # only to 1e-15, and a qutrit's minimum is that matrix's to 1e-15
        spec = interleaved_system()
        rhos = [r.copy() for r in spec.initial]
        for r in rhos:
            r[0, 1] += 1e-15
        spec = with_initial(spec, rhos)
        frames, _ = collect(spec, 2, 0, 5, 1e-3, 1e-3, 1, coords=True,
                            positivity_tol=np.inf)
        t, first, _, mins = frames[0]
        assert t == 0.0
        for k, rho in enumerate(spec.initial):
            expected = 0.5 * (rho + rho.conj().T)
            assert not np.array_equal(expected, rho)
            assert (first[k] == first[k][:, :1]).all()
            assert np.abs(first[k][:, 0]
                          - hermitian_coordinates(expected)).max() <= 1e-15
            if rho.shape[0] == 3:
                assert np.abs(mins[:, k] - np.linalg.eigvalsh(
                    expected).min()).max() <= 1e-15


class TestPositivityReport:
    """The per-record minimum eigenvalues propagate_block hands on_record."""

    def test_free_evolution_is_isospectral(self):
        spec = free_two_spin_system(initial=(UP, DOWN))
        frames, _ = collect(spec, 0, 0, 1, 1.0, 1e-3, 100)
        min_eigs = np.stack([mins[0] for _, _, _, mins in frames])
        assert min_eigs.shape == (11, 2)
        assert np.abs(min_eigs).max() <= 1e-12
        assert max(0.0, -min_eigs.min()) <= 1e-12

    def test_pure_initial_spectrum(self, benchmark_system):
        snaps = propagate_trajectory(benchmark_system, 1e-3, 1e-3, 1,
                                     rng_seed=(0, 0), positivity_tol=np.inf)
        first = snaps[0]
        for rho in first.rhos:
            w = np.linalg.eigvalsh(rho)
            assert np.allclose(sorted(w), [0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("make", [
        lambda: two_spin_system(initial=[
            random_density(np.random.default_rng(17), 2) for _ in range(2)]),
        interleaved_system], ids=["(2,2)", "(2,3,2)"])
    def test_min_eigs_are_those_of_the_densities(self, make):
        # a spin-1/2 reads its closed form to within 1e-15 of eigvalsh of
        # the density rebuilt from the coordinates handed on; a qutrit reads
        # eigvalsh of that density itself, bit for bit
        frames, _ = collect(make(), 3, 0, 16, 0.2, 1e-3, 20,
                            positivity_tol=np.inf)
        for _, rhos, active, mins in frames:
            assert active.all()
            for k, rho in enumerate(rhos):
                exact = np.linalg.eigvalsh(rho).min(axis=1)
                if rho.shape[-1] == 2:
                    assert np.abs(mins[:, k] - exact).max() <= 1e-15
                else:
                    assert np.array_equal(mins[:, k], exact)

    def test_pure_spins_read_nonnegative(self):
        # random pure spin-1/2 states read >= -1e-15 at t = 0, and their
        # free evolution does not trip the default tolerance
        rng = np.random.default_rng(8)
        for _ in range(20):
            psi = rng.standard_normal((2, 2, 2)) @ [1, 1j]
            psi /= np.linalg.norm(psi, axis=1, keepdims=True)
            spec = free_two_spin_system(
                initial=[np.outer(v, v.conj()) for v in psi])
            frames, stats = collect(spec, 0, 0, 2, 0.2, 1e-3, 50)
            assert frames[0][3].min() >= -1e-15
            assert frames[-1][2].all() and not stats.positivity_skips

    def test_min_eig_decay_law(self, benchmark_system):
        """The smallest eigenvalue leaves zero at the second-order rate
        sum_s |omega_s| (N-1) |<2|(O_s - Obar_s)|1>|^2 = 0.4 for this system;
        a fine-step run over a short window must track it."""
        dt = 5e-6
        frames, _ = collect(benchmark_system, 123, 0, 1, 0.02, dt, 4000,
                            positivity_tol=np.inf)
        worst = frames[-1][3][0].min()
        assert -0.4 * 0.02 * 1.6 <= worst <= -0.4 * 0.02 * 0.6


class TestBatchedDriver:
    def _match_reference(self, spec, seed, start, count, t_final, dt, stride):
        frames, stats = collect(spec, seed, start, count, t_final, dt, stride,
                                positivity_tol=1e9)
        n_steps = int(round(t_final / dt))
        for j in range(count):
            ref = reference_trajectory(spec, seed, start + j, n_steps, dt,
                                       stride)
            assert len(ref) == len(frames)
            for (t, rhos, _, _), ref_rhos in zip(frames, ref):
                for k in range(spec.n_particles):
                    assert np.abs(rhos[k][j] - ref_rhos[k]).max() <= 1e-12
        return stats

    def test_matches_reference_path(self, benchmark_system):
        stats = self._match_reference(benchmark_system, 5, 3, 4, 0.2, 1e-3, 50)
        assert isinstance(stats, BlockStats)

    def test_general_path_matches_uniform(self):
        # mixed dims: one group per dimension, coupled through the mean fields
        spec = spin_qutrit_system()
        assert spec.dims == (2, 3)
        self._match_reference(spec, 8, 0, 3, 0.1, 1e-3, 20)

    def test_interleaved_groups_match_reference(self):
        spec = interleaved_system()
        assert spec.dims == (2, 3, 2)
        self._match_reference(spec, 9, 2, 3, 0.1, 1e-3, 25)

    def test_skip_policy_counts(self, benchmark_system):
        tol = positivity_tolerance(1e-3, benchmark_system)
        frames, stats = collect(benchmark_system, 5, 0, 8, 1.0, 1e-3, 100,
                                positivity_tol=tol, policy="skip")
        # this system crosses the default tolerance quickly: all skipped
        assert len(stats.positivity_skips) == 8
        assert frames[-1][2].sum() == 0

    def test_abort_policy_raises(self, benchmark_system):
        tol = positivity_tolerance(1e-3, benchmark_system)
        with pytest.raises(PositivityViolationError):
            collect(benchmark_system, 5, 0, 4, 1.0, 1e-3, 100,
                    positivity_tol=tol, policy="abort")

    def test_hermiticity_check_sees_an_imaginary_diagonal(
            self, benchmark_system, monkeypatch):
        # rebuild densities with a traceless imaginary part on the diagonal
        # (the sigma_z coordinate of |up> and |down> is nonzero), which the
        # coordinates cannot carry; the record-time check must report it
        basis = propagator.build_hermitian_basis

        def skewed(d):
            out = basis(d)
            out[-1] = out[-1] * (1.0 + 1e-3j)
            return out

        monkeypatch.setattr(propagator, "build_hermitian_basis", skewed)
        _, stats = collect(benchmark_system, 5, 0, 4, 2e-3, 1e-3, 1,
                           positivity_tol=1e9)
        assert stats.max_herm_dev > 1e-4

    def test_noise_free_block(self):
        spec = free_two_spin_system()
        frames, stats = collect(spec, 0, 0, 2, 0.5, 1e-3, 500)
        assert stats.max_trace_dev <= 1e-13
        assert stats.max_herm_dev == 0.0
        # both trajectories identical (no noise channels)
        t, rhos, active, _ = frames[-1]
        assert np.array_equal(rhos[0][0], rhos[0][1])
        assert active.all()


# ---------------------------------------------------------------------------
# the d = 3 minimum-eigenvalue screen against eigvalsh over every matrix
# ---------------------------------------------------------------------------

def screen_stack(seed, kind, gap, scale, n):
    """n exactly Hermitian 3 x 3 matrices of one kind: copies of one
    matrix; one conjugation whose smallest eigenvalue is shifted by
    ``gap`` in every other matrix; one spectrum whose lower pair is
    ``gap`` apart, under random unitary conjugations; or independent
    random spectra.  Entries reach ``scale``."""
    rng = np.random.default_rng(seed)

    def unitary():
        q, _ = np.linalg.qr(rng.standard_normal((3, 3))
                            + 1j * rng.standard_normal((3, 3)))
        return q

    low = rng.uniform(-1.0, 0.5)
    spectrum = np.array([low, low + gap, rng.uniform(0.5, 1.5)])
    if kind == "identical":
        u = unitary()
        rho = np.broadcast_to(u @ np.diag(spectrum) @ u.conj().T, (n, 3, 3))
    elif kind == "shifted":
        u = unitary()
        shifts = np.where(np.arange(n) % 2, gap, 0.0)
        rho = np.stack([u @ np.diag(spectrum + [s, 0, 0]) @ u.conj().T
                        for s in shifts])
    elif kind == "conjugated":
        rho = np.stack([u @ np.diag(spectrum) @ u.conj().T
                        for u in (unitary() for _ in range(n))])
    else:
        rho = np.stack([u @ np.diag(rng.uniform(-1.0, 1.5, 3)) @ u.conj().T
                        for u in (unitary() for _ in range(n))])
    rho = scale * rho / max(1.0, np.abs(spectrum).max())
    # the matrices eigvalsh reads: upper triangle, real diagonal
    maps = propagator._upper_map(3)
    up = np.ascontiguousarray(rho.reshape(n, 9)[:, maps[1]])
    e = up.view(np.float64).T.copy()
    e[7::2] = 0.0
    return propagator._assemble(e, maps), e


class TestMinimumScreen:
    """The d = 3 screen reads, bit for bit, what eigvalsh over every
    matrix reads: each block's smallest eigenvalue and each matrix's
    positivity verdict, whatever its estimate of the minima."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["identical", "shifted", "conjugated",
                                 "random"]),
           gap=st.sampled_from([0.0, 1e-13, 1e-9, 1e-3]),
           scale=st.sampled_from([1.0, 30.0, propagator.NORM_CAP]),
           widths=st.lists(st.integers(1, 64), min_size=1, max_size=4),
           estimate=st.sampled_from([None, 0.0, -1e-15, -1e-9, 1e-9]),
           pick=st.integers(0, 10 ** 6),
           nudge=st.sampled_from([0, 1, -1, 1e-13, -1e-13]))
    def test_screen_reads_what_eigvalsh_reads(self, seed, kind, gap, scale,
                                              widths, estimate, pick, nudge):
        # ``estimate`` None runs the closed form and its margin; a number
        # replaces them by eigvalsh's own minima that far off (times the
        # scale), with no margin, so that a block's bound sits at or next
        # to its minimum
        n = sum(widths)
        rho, e = screen_stack(seed, kind, gap, scale, n)
        norms = np.sqrt((np.abs(rho) ** 2).sum(axis=(1, 2)))
        exact = np.linalg.eigvalsh(rho).min(axis=1)
        seg = np.cumsum([0] + widths[:-1])

        def off(planes):
            return (np.linalg.eigvalsh(propagator._assemble(
                planes, propagator._upper_map(3))).min(axis=1)
                + estimate * scale)

        with contextlib.ExitStack() as patches:
            if estimate is not None:
                patches.enter_context(mock.patch.object(
                    propagator, "_trig_min_estimate", off))
                patches.enter_context(mock.patch.object(
                    propagator, "ESTIMATE_MARGIN", 0.0))
            mins = propagator._screened_minima(
                e, norms, seg, np.full(n, np.nan), rho.__getitem__)
        assert np.array_equal(mins, [exact[a:a + w].min()
                                     for a, w in zip(seg, widths)])
        # thresholds at a matrix's own value, one ulp either side of it,
        # or 1e-13 of the scale away
        value = exact[pick % n]
        tol = -(np.nextafter(value, np.inf * nudge) if nudge in (1, -1)
                else value + nudge * scale)
        below = propagator._below(e, norms, tol, np.full(n, np.nan),
                                  rho.__getitem__)
        assert np.array_equal(below, ~(exact >= -tol))

    def test_screen_solves_few_of_many(self):
        # 400 conjugated random spectra in 8 blocks of 50: the screen
        # solves about one matrix per block, and none for a threshold that
        # clears every matrix by its norm
        rho, e = screen_stack(3, "random", 0.0, 1.0, 400)
        norms = np.sqrt((np.abs(rho) ** 2).sum(axis=(1, 2)))
        solved = []

        def matrices(index):
            solved.append(len(index))
            return rho[index]

        seg = np.arange(0, 400, 50)
        propagator._screened_minima(e, norms, seg, np.full(400, np.nan),
                                    matrices)
        assert sum(solved) <= 16
        solved.clear()
        assert not propagator._below(e, norms, 10.0, np.full(400, np.nan),
                                     matrices).any()
        assert solved == []
