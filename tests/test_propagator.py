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
    ContractViolationError,
    PositivityViolationError,
    ShapeError,
    TrajectoryBlowupError,
)
from snbd.propagator import (
    COLUMN_ALIGN,
    BlockStats,
    TimeGrid,
    _draw_noise_chunk,
    _noise_factor,
    _rank_factor,
    coordinate_densities,
    coordinate_rows,
    positivity_tolerance,
    propagate_block,
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
    SY,
    SZ,
    UP,
    free_two_spin_system,
    heisenberg_pair_matrix,
    interleaved_system,
    random_density,
    random_hermitian,
    two_spin_system,
)
from pair_map import (
    moment_deviation,
    pair_count,
    pair_index,
    pair_list,
    pair_noise_factor,
    sample_increments,
)
from single_trajectory import propagate_trajectory


# ---------------------------------------------------------------------------
# independent reference: the module-docstring equation, written out literally
# ---------------------------------------------------------------------------

def reference_step(spec, rhos, w, dt):
    """One Ito step of every particle, term by term: ``w[s, k]`` is the
    pair sum W_k^s of term s."""
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
            root = cmath.sqrt(-1j * term.omega)
            shifted = o - obar[k][s] * np.eye(len(rho))
            drho = (drho + root * (shifted @ rho) * w[s, k]
                    + np.conj(root) * (rho @ shifted) * np.conj(w[s, k]))
        out.append(rho + drho)
    return out


def noise_rank(n):
    """Normals per term and step: the rank of W's real covariance."""
    return 0 if n < 2 else 2 if n == 2 else 2 * n - 1


def reference_pair_sums(x, n, dt):
    """W_k^s, (p, N), from one step's normals x[s] = [h, g_1..g_{N-1},
    f_1..f_{N-1}] (no g at N = 2), entry by entry from the formula in
    ``_rank_factor``, with v_j = (1, .., 1, -j, 0, ..) (j ones)."""
    w = np.zeros((len(x), n), dtype=complex)
    if n < 2:
        return w
    for s, row in enumerate(x):
        h, g, f = row[0], row[1:n] if n > 2 else [], row[-(n - 1):]
        for k in range(n):
            re = np.sqrt((2 * n - 2) / n) * h
            im = 0.0
            for j in range(1, n):
                v = 1.0 if k < j else -j if k == j else 0.0
                if n > 2:
                    re += np.sqrt((n - 2) / (j * (j + 1))) * g[j - 1] * v
                im += np.sqrt(n / (j * (j + 1))) * f[j - 1] * v
            w[s, k] = np.sqrt(dt / 2) * (re + 1j * im)
    return w


def reference_trajectory(spec, master_seed, index, n_steps, dt, stride):
    """Densities of trajectory (master_seed, index) every ``stride`` steps,
    driven by the same Philox draws as the batched driver, one step at a time."""
    rng = trajectory_rng(master_seed, index)
    n = spec.n_particles
    rhos = [0.5 * (r + r.conj().T) for r in spec.initial]
    frames = [rhos]
    for i in range(1, n_steps + 1):
        x = rng.standard_normal((len(spec.terms), noise_rank(n)))
        rhos = reference_step(spec, rhos, reference_pair_sums(x, n, dt), dt)
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
    of three 16 x 15 blocks over 45 normals and a 48 x 32 mean-field
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


def spin1_pair_system():
    """The mixed-dimension benchmark system: a spin-1 and two spin-1/2,
    dims (3, 2, 2), in fields S_z and s_z, coupled by three terms of
    omega 0.2 (S_x s_x s_x, S_y s_y s_y, S_z s_z s_z, s = sigma / 2),
    from |+1>, down and up; the spin-1's Hamiltonian is S_z / 2."""
    r = 1 / np.sqrt(2)
    s1 = (np.array([[0, r, 0], [r, 0, r], [0, r, 0]], complex),
          np.array([[0, -1j * r, 0], [1j * r, 0, -1j * r], [0, 1j * r, 0]]),
          np.diag([1.0, 0.0, -1.0]).astype(complex))
    halves = (0.5 * SX, 0.5 * SY, 0.5 * SZ)
    return SystemSpec(
        particles=(ParticleSpec(dim=3, h=0.5 * s1[2]),
                   ParticleSpec(dim=2, h=halves[2]),
                   ParticleSpec(dim=2, h=halves[2])),
        terms=tuple(InteractionTerm(omega=0.2, ops=(a, b, b))
                    for a, b in zip(s1, halves)),
        initial=(np.diag([1.0, 0.0, 0.0]).astype(complex), DOWN, UP))


def qudit_spin_system():
    """A d = 4 particle and a spin-1/2, dims (4, 2), in random fields and
    coupled by two terms of omega 2.0 and -1.5 with random factors of
    scale 1.5, from |0><0| each: strong enough that every trajectory
    diverges within t = 3 at dt 1e-2."""
    rng = np.random.default_rng(0)
    dims = (4, 2)
    particles = tuple(ParticleSpec(dim=d, h=random_hermitian(rng, d))
                      for d in dims)
    terms = tuple(
        InteractionTerm(omega=omega, ops=tuple(random_hermitian(rng, d, 1.5)
                                               for d in dims))
        for omega in (2.0, -1.5))
    return SystemSpec(
        particles=particles, terms=terms,
        initial=tuple(np.diag([1.0] + [0.0] * (d - 1)).astype(complex)
                      for d in dims))


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


def trajectory_minima(spec, coords):
    """(B, N) each trajectory's smallest eigenvalue per particle from the
    coordinates (d^2, B) of each particle: a spin-1/2's closed form,
    written as the propagator writes it, and eigvalsh of the rebuilt
    density otherwise."""
    return np.stack([
        (c[0] - np.sqrt(c[1] ** 2 + c[2] ** 2 + c[3] ** 2)) / np.sqrt(2.0)
        if d == 2
        else np.linalg.eigvalsh(coordinate_densities(c, d)).min(axis=1)
        for c, d in zip(coords, spec.dims)], axis=1)


def zero_draw(rngs, n_steps, p, r, dt):
    """Stand-in for the noise draw: exact zeros, the noise-free generator."""
    return np.zeros((len(rngs), n_steps, p, r))


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


def apply_noise_factor(factor, x):
    """z_s W_k^s, (N, p), from one step's normals ``x``, (p, r), through
    the per-term blocks as the step reads them."""
    p, rows, cols = factor.shape
    w = (factor @ x.reshape(p, cols, 1)).reshape(p, 2, rows // 2)
    return (w[:, 0] + 1j * w[:, 1]).T


class TestNoise:
    def test_pair_indexing(self):
        assert pair_count(4) == 6
        pairs = [(k, l) for k in range(3) for l in range(k + 1, 4)]
        assert pair_list(4) == pairs
        for q, (k, l) in enumerate(pairs):
            assert pair_index(k, l, 4) == q
        with pytest.raises(ShapeError):
            pair_index(2, 1, 4)

    def test_rank_factor_has_the_pair_covariance(self):
        # R R^T is the covariance of the pair map's [Re W; Im W] in units of
        # dt/2, to roundoff, at the rank 2N - 1 (2 at N = 2, 0 at N = 1);
        # with z_s and in any row order, so is each noise-factor block's
        rng = np.random.default_rng(19)
        assert _rank_factor(1).shape == (2, noise_rank(1)) == (2, 0)
        for n in range(2, 11):
            rank = _rank_factor(n)
            pair = pair_noise_factor(np.ones(1, complex), range(n))[0]
            assert rank.shape == (2 * n, noise_rank(n))
            assert np.linalg.matrix_rank(pair @ pair.T) == rank.shape[1]
            assert np.abs(rank @ rank.T - pair @ pair.T).max() <= 1e-14
            z = sqrt_noise_factors(random_terms(rng, (2,) * n, 3))
            order = rng.permutation(n)
            ours = _noise_factor(z, order)
            ref = pair_noise_factor(z, order)
            assert np.abs(ours @ ours.transpose(0, 2, 1)
                          - ref @ ref.transpose(0, 2, 1)).max() <= 1e-14

    def test_conjugate_pairing_exact(self):
        # at N = 2 the noise factor is the pair map's, bit for bit, and so
        # is the draw, (h, f) = (mu, nu): the stored increment reaches
        # particle 0 as is and particle 1 conjugated, times z_s.  At N = 3
        # each normal, probed alone, reaches each particle as z_s times its
        # entry of R, and no other term
        terms = random_terms(np.random.default_rng(0), (2, 2), 2)
        assert terms[0].omega > 0 > terms[1].omega
        z = sqrt_noise_factors(terms)
        assert np.array_equal(_noise_factor(z, [0, 1]),
                              pair_noise_factor(z, [0, 1]))
        drawn = _draw_noise_chunk([trajectory_rng(3, 0)], 1, 2, 2, 0.01)
        stored = sample_increments(trajectory_rng(3, 0), 2, 2, 0.01)
        assert np.array_equal(drawn[0, 0], stored.view(np.float64))
        n, p = 3, 2
        z = sqrt_noise_factors(random_terms(np.random.default_rng(1),
                                            (2,) * n, p))
        rank = _rank_factor(n)
        factor = _noise_factor(z, range(n))
        x = _draw_noise_chunk([trajectory_rng(3, 1)], 1, p, 5, 0.01)[0, 0]
        for s in range(p):
            for c in range(rank.shape[1]):
                single = np.zeros_like(x)
                single[s, c] = x[s, c]
                expected = np.zeros((n, p), dtype=complex)
                expected[:, s] = z[s] * (rank[:n, c] + 1j * rank[n:, c]) \
                    * x[s, c]
                w = apply_noise_factor(factor, single)
                assert np.abs(w - expected).max() <= 1e-16

    def test_particle_sums_match_direct(self):
        # with z = 1 the noise factor returns W_k^s itself, here with the
        # particles in another row order, as the formula reads it entry by
        # entry
        n = 4
        x = _draw_noise_chunk([trajectory_rng(4, 1)], 1, 2, 7, 1.0)[0, 0]
        order = [2, 0, 3, 1]
        w = apply_noise_factor(_noise_factor(np.ones(2, complex), order), x)
        # x already carries sqrt(dt/2); the formula reads it at dt = 2
        direct = reference_pair_sums(x, n, 2.0)
        for r, k in enumerate(order):
            assert np.abs(w[r] - direct[:, k]).max() <= 1e-15

    def test_second_moments(self):
        # the pair sums the step reads (its noise factor with z = 1) from
        # what the propagator draws, 100,000 steps of N = 4 and two terms:
        # E[W W^H] = (N - 1) dt I, E[W W^T] = dt (J - I) and E[W] = 0,
        # each entry within 5 standard errors
        n, p, dt = 4, 2, 0.5
        x = _draw_noise_chunk([trajectory_rng(5, 0)], 100_000, p,
                              noise_rank(n), dt)[0]
        w = np.einsum("sir,tsr->tsi", _noise_factor(np.ones(p, complex),
                                                    range(n)), x)
        w = w[..., :n] + 1j * w[..., n:]
        for s in range(p):
            assert moment_deviation(w[:, s], dt) <= 5.0

    def test_chunked_draw_matches_per_step(self, monkeypatch):
        # the noise the driver draws, in budget-limited chunks with a
        # partial last one, is bitwise each trajectory's one-step draws
        spec = interleaved_system()
        p, r, count, n_steps, dt = 2, 5, 3, 10, 1e-3
        step_bytes = 8 * count * p * r
        monkeypatch.setattr(propagator, "NOISE_CHUNK_BYTES", 4 * step_bytes + 8)
        chunks = record_noise_chunks(monkeypatch)
        propagate_block(spec, 9, 2, count, n_steps * dt, dt, n_steps,
                        lambda *_: None, positivity_tol=np.inf)
        assert [c.shape[1] for c in chunks] == [4, 4, 2]
        drawn = np.concatenate(chunks, axis=1)
        for j in range(count):
            rng = trajectory_rng(9, 2 + j)
            per_step = np.stack([rng.standard_normal((p, r))
                                 * np.sqrt(dt / 2.0) for _ in range(n_steps)])
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
        def draw(index):
            return _draw_noise_chunk([trajectory_rng(1, index)], 3, 2, 5, 0.1)

        assert np.array_equal(draw(2), draw(2))
        assert not np.array_equal(draw(2), draw(3))

    def test_rejects_bad_dt(self, monkeypatch):
        # a step that is not positive is refused before any noise is drawn
        chunks = record_noise_chunks(monkeypatch)
        with pytest.raises(ConfigError):
            propagate_block(two_spin_system(), 0, 0, 1, 1.0, 0.0, 1,
                            lambda *_: None)
        assert chunks == []


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
        # a non-finite normal poisons the densities within one step
        monkeypatch.setattr(
            propagator, "_draw_noise_chunk",
            lambda *args: np.full_like(zero_draw(*args), np.nan))
        with pytest.raises(TrajectoryBlowupError):
            propagate_trajectory(benchmark_system, 1e-3, 1e-3, 1,
                                 rng_seed=(0, 0), positivity_tol=np.inf)

    def test_blowup_message_says_what_the_check_found(
            self, benchmark_system, monkeypatch):
        # the divergence check raises for an entry beyond NORM_CAP as well
        # as for NaN and inf: in this run the one density it rebuilds
        # before it aborts is finite, its largest entry 1.2e7
        rebuilt = []
        rebuild = propagator.coordinate_densities
        monkeypatch.setattr(propagator, "coordinate_densities",
                            lambda c, d: rebuilt.append(rebuild(c, d))
                            or rebuilt[-1])
        with pytest.raises(TrajectoryBlowupError) as caught:
            propagate_block(benchmark_system, 1, 0, 64, 2.0, 1e-2, 10,
                            lambda *args: None, positivity_tol=np.inf)
        assert str(caught.value) == (
            "trajectory 55, t=0.8: diverged: a density entry is NaN, inf "
            "or beyond NORM_CAP (1e4)")
        assert propagator.NORM_CAP == 1e4
        assert np.isfinite(rebuilt[-1]).all()
        assert np.abs(rebuilt[-1]).max() > propagator.NORM_CAP


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

    Each rho_k' is affine in the step's p r normals, so the product
    rho_1' (x) ... (x) rho_N' is a polynomial of degree N in them, and
    for N <= 3 its Gaussian average needs only their moments up to order
    three: zero means, unit covariance, zero third moments.  The full +-1
    factorial design over the p r normals has the same, so it reproduces
    the Gaussian average exactly.
    The design's nodes run through propagate_block as trajectories, one
    per node, and propagate_block's own draw scales them by sqrt(dt/2).
    The mean minus rho_N is then a polynomial of degree N in dt without
    constant term, fitted exactly from N step sizes; its linear
    coefficient must be -i [H, rho_N] with H the full Hamiltonian.

    The bound is roundoff: entries of order 1, mean products summed
    pairwise over at most 2^10 nodes (about 64 eps each), divided by
    step sizes of order 0.1 through fit weights whose absolute sum is at
    most 50 (N = 3): about 7e-13 on a generator of order 1.
    """

    BOUND = 1e-12
    STEPS = (0.1, 0.2, 0.3)

    def linear_coefficient(self, spec, monkeypatch):
        monkeypatch.setattr(propagator, "trajectory_rng",
                            lambda seed, index: NodeStream(index))
        n = spec.n_particles
        nodes = 2 ** (len(spec.terms) * noise_rank(n))
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
        # trajectory of one wide block, in every record's coordinates
        # (coordinate 0 carries the trace), and so is propagate_trajectory;
        # every block's minima are bitwise the least, over its columns, of
        # the per-trajectory values computed from the wide block's
        # coordinates (trajectory_minima).  The systems reach noise and
        # mean-field factors of 4 x 2 and 4 x 8 (one term), k = 16
        # (d = 4), two dimension groups with noise blocks of 6 x 5 (N = 3,
        # an odd inner dimension), and three noise blocks of 16 x 15 and a
        # mean-field factor of 48 x 32 (8 spins, 28 pairs).
        spec = make()
        n = spec.n_particles
        assert _noise_factor(sqrt_noise_factors(spec.terms), range(n)).shape \
            == (len(spec.terms),) + {2: (4, 2), 3: (6, 5), 8: (16, 15)}[n]
        grid = (0.02, 1e-3, 10)
        wide = 17 + LOCKSTEP_WIDTH
        ref, _ = collect(spec, 6, 0, wide, *grid, coords=True,
                         positivity_tol=np.inf)
        own = [trajectory_minima(spec, cs) for _, cs, _, _ in ref]
        for (_, _, _, mins), values in zip(ref, own, strict=True):
            assert np.array_equal(mins, values.min(axis=0))
        for width in (1, 2, 7, 8, 9, 17, 64, LOCKSTEP_WIDTH):
            for start in range(18):
                frames, _ = collect(spec, 6, start, width, *grid,
                                    coords=True, positivity_tol=np.inf)
                cols = slice(start, start + width)
                for (_, cs, _, mins), (_, ref_cs, _, _), values in zip(
                        frames, ref, own, strict=True):
                    assert all(np.array_equal(x, y[:, cols])
                               for x, y in zip(cs, ref_cs, strict=True))
                    assert np.array_equal(mins, values[cols].min(axis=0))
        for j in (0, 7, 13, wide - 1):
            snaps = propagate_trajectory(spec, *grid, rng_seed=(6, j),
                                         positivity_tol=np.inf)
            for snap, (t, ref_cs, _, _) in zip(snaps, ref, strict=True):
                assert snap.t == t
                assert all(np.array_equal(x, coordinate_densities(
                    y[:, j:j + 1], d)[0]) for x, y, d in zip(
                        snap.rhos, ref_cs, spec.dims, strict=True))

    @pytest.mark.parametrize("make, seed, count, grid", [
        (two_spin_system, 6, 21, (0.05, 1e-3, 5)),
        (interleaved_system, 6, 21, (0.05, 1e-3, 5)),
        (lambda: random_system(7, (4, 2), 2), 6, 21, (0.05, 1e-3, 5)),
        (two_spin_system, 1, 64, (2.0, 1e-2, 10))],
        ids=["(2,2)", "(2,3,2)", "(4,2)", "(2,2) blow-ups"])
    def test_trace_coordinate_is_never_written(self, make, seed, count, grid):
        # each particle's coordinate 0 carries its trace; at every record
        # it is bitwise its t = 0 value in every column, padding and
        # skipped trajectories included, while the other coordinates move.
        # In the last run trajectories diverge: their columns hold NaN or inf
        spec = make()
        firsts = [r.start for r in coordinate_rows(spec.dims)]
        seen = []
        stats = propagate_block(spec, seed, 3, count, *grid,
                                lambda r, t, c, a, m: seen.append(c.copy()),
                                positivity_tol=np.inf, policy="skip")
        for coords in seen[1:]:
            assert np.array_equal(coords[firsts], seen[0][firsts])
        assert not np.array_equal(seen[-1], seen[0])
        assert bool(stats.blowups) == (count == 64)
        assert np.isfinite(seen[-1]).all() == (count != 64)

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
                assert abs(mins[k] - np.linalg.eigvalsh(
                    expected).min()) <= 1e-15


class TestPositivityReport:
    """The per-record minimum eigenvalues propagate_block hands on_record."""

    def test_free_evolution_is_isospectral(self):
        spec = free_two_spin_system(initial=(UP, DOWN))
        frames, _ = collect(spec, 0, 0, 1, 1.0, 1e-3, 100)
        min_eigs = np.stack([mins for _, _, _, mins in frames])
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
        # eigvalsh of that density itself, bit for bit: the least over a
        # batch of 16, and each of its trajectories in a run of its own
        spec = make()
        runs = [collect(spec, 3, j, 1, 0.2, 1e-3, 20,
                        positivity_tol=np.inf)[0] for j in range(16)]
        batch, _ = collect(spec, 3, 0, 16, 0.2, 1e-3, 20,
                           positivity_tol=np.inf)
        for frames in runs + [batch]:
            for _, rhos, active, mins in frames:
                assert active.all()
                for k, rho in enumerate(rhos):
                    exact = np.linalg.eigvalsh(rho).min()
                    if rho.shape[-1] == 2:
                        assert abs(mins[k] - exact) <= 1e-15
                    else:
                        assert mins[k] == exact

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

    def test_spin1_abort_names_its_least_particle(self):
        # the mixed-dimension benchmark system at tol 0.3 under abort: a
        # spin-1 density is the first to fall below, and the error reads
        # eigvalsh of that trajectory's density at that record, rebuilt
        # from a run of the trajectory alone
        spec = spin1_pair_system()
        with pytest.raises(PositivityViolationError) as caught:
            propagate_block(spec, 1, 3, 400, 0.5, 5e-4, 2,
                            lambda *args: None, positivity_tol=0.3,
                            policy="abort")
        assert str(caught.value) == (
            "trajectory 129, t=0.24, particle 0: min eigenvalue -3.009e-01 "
            "below -3.000e-01")
        frames, _ = collect(spec, 1, 129, 1, 0.24, 5e-4, 2,
                            positivity_tol=np.inf)
        assert frames[-1][0] == caught.value.t
        assert caught.value.min_eig == np.linalg.eigvalsh(
            frames[-1][1][0][0]).min()

    def test_min_eig_decay_law(self, benchmark_system):
        """The smallest eigenvalue leaves zero at the second-order rate
        sum_s |omega_s| (N-1) |<2|(O_s - Obar_s)|1>|^2 = 0.4 for this system;
        a fine-step run over a short window must track it."""
        dt = 5e-6
        frames, _ = collect(benchmark_system, 123, 0, 1, 0.02, dt, 4000,
                            positivity_tol=np.inf)
        worst = frames[-1][3].min()
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

    def test_unknown_policy_is_refused(self, benchmark_system):
        # a library caller's policy, refused before a step is taken
        with pytest.raises(ConfigError, match="unknown blowup policy 'drop'"):
            collect(benchmark_system, 5, 0, 4, 0.01, 1e-3, 10, policy="drop")

    def test_hermiticity_check_sees_an_imaginary_diagonal(
            self, benchmark_system, monkeypatch):
        # a basis whose rebuild would put a traceless imaginary part on the
        # diagonal (the sigma_z coordinate of |up> and |down> is nonzero),
        # which the coordinates cannot carry: the rebuild table's check
        # refuses it before the first record
        basis = propagator.build_hermitian_basis

        def skewed(d):
            out = basis(d)
            out[-1] = out[-1] * (1.0 + 1e-3j)
            return out

        monkeypatch.setattr(propagator, "build_hermitian_basis", skewed)
        calls = []
        with pytest.raises(ContractViolationError):
            propagate_block(benchmark_system, 5, 0, 4, 2e-3, 1e-3, 1,
                            lambda *args: calls.append(args),
                            positivity_tol=1e9)
        assert calls == []

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_rebuilt_densities_are_exactly_hermitian(self, d):
        # random coordinates, entries from 1e-16 NORM_CAP to NORM_CAP, with
        # a leading axis: every rebuilt density equals its conjugate
        # transpose, bit for bit
        rng = np.random.default_rng(d)
        shape = (3, d * d, 64)
        c = (rng.uniform(-1.0, 1.0, shape) * propagator.NORM_CAP
             * 10.0 ** rng.integers(-16, 1, shape))
        rho = coordinate_densities(c, d)
        assert rho.shape == (3, 64, d, d)
        assert np.array_equal(rho, rho.conj().swapaxes(-1, -2))

    def test_noise_free_block(self):
        spec = free_two_spin_system()
        frames, _ = collect(spec, 0, 0, 2, 0.5, 1e-3, 500)
        assert max(np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0).max()
                   for _, rhos, _, _ in frames for rho in rhos) <= 1e-13
        assert all(np.array_equal(rho, rho.conj().swapaxes(1, 2))
                   for _, rhos, _, _ in frames for rho in rhos)
        # both trajectories identical (no noise channels)
        t, rhos, active, _ = frames[-1]
        assert np.array_equal(rhos[0][0], rhos[0][1])
        assert active.all()


def record_stream(spec, seed, start, count, grid, **kw):
    """Everything propagate_block hands on_record, per record (r, t, the
    live coordinates' bytes, active, min_eigs), then its BlockStats or the
    message of the error it raised."""
    stream = []
    live = slice(start % COLUMN_ALIGN, start % COLUMN_ALIGN + count)

    def on_record(r, t, coords, active, mins):
        stream.append((r, t, coords[:, live].tobytes(), active.tobytes(),
                       mins.tobytes()))

    try:
        end = propagate_block(spec, seed, start, count, *grid, on_record,
                              **kw)
    except (TrajectoryBlowupError, PositivityViolationError) as exc:
        end = str(exc)
    return stream, end


class TestRecordBatch:
    """propagate_block processes its records RECORD_BATCH at a time."""

    MIXED = (0.5, 5e-4, 2)
    # the blow-up run of test_blowup_message_says_what_the_check_found over
    # 240 steps, a multiple of both strides; at stride 30 the divergence
    # check between records finds the diverged trajectory while records
    # are pending, and the abort still names the record that found it
    BLOWUP = (2.4, 1e-2)
    QUDIT = (3.0, 1e-2, 3)

    @pytest.mark.parametrize("make, seed, start, count, grid, kw, end", [
        (spin1_pair_system, 1, 3, 400, MIXED,
         dict(positivity_tol=0.03, policy="skip"), None),
        (spin1_pair_system, 1, 3, 400, MIXED,
         dict(positivity_tol=0.3, policy="skip"), None),
        (spin1_pair_system, 1, 3, 400, MIXED,
         dict(positivity_tol=0.3, policy="abort"),
         "trajectory 129, t=0.24, particle 0: min eigenvalue -3.009e-01 "
         "below -3.000e-01"),
        (two_spin_system, 1, 0, 64, BLOWUP + (1,),
         dict(positivity_tol=np.inf, policy="abort"),
         "trajectory 55, t=0.79: diverged: a density entry is NaN, inf or "
         "beyond NORM_CAP (1e4)"),
        (two_spin_system, 1, 0, 64, BLOWUP + (30,),
         dict(positivity_tol=np.inf, policy="abort"),
         "trajectory 55, t=0.9: diverged: a density entry is NaN, inf or "
         "beyond NORM_CAP (1e4)"),
        (two_spin_system, 1, 0, 64, BLOWUP + (1,),
         dict(positivity_tol=np.inf, policy="skip"), None),
        (two_spin_system, 1, 0, 64, BLOWUP + (30,),
         dict(positivity_tol=np.inf, policy="skip"), None),
        # both kinds of drop in one run
        (two_spin_system, 1, 0, 64, BLOWUP + (30,),
         dict(positivity_tol=3.0, policy="skip"), (4, 4)),
        (two_spin_system, 1, 0, 64, BLOWUP + (30,),
         dict(positivity_tol=3.0, policy="abort"),
         "trajectory 55, t=0.9: diverged: a density entry is NaN, inf or "
         "beyond NORM_CAP (1e4)"),
        # a d = 4 particle: a diverged trajectory's densities are NaN in
        # the records after its drop
        (qudit_spin_system, 1, 0, 64, QUDIT,
         dict(positivity_tol=np.inf, policy="skip"), (64, 0)),
        (qudit_spin_system, 1, 0, 64, QUDIT,
         dict(positivity_tol=np.inf, policy="abort"),
         "trajectory 6, t=0.06: diverged: a density entry is NaN, inf or "
         "beyond NORM_CAP (1e4)")],
        ids=["(3,2,2) skip", "(3,2,2) skip tol 0.3", "(3,2,2) abort",
             "blow-up abort 1",
             "blow-up abort 30", "blow-up skip 1", "blow-up skip 30",
             "blow-up skip 30 tol 3", "blow-up abort 30 tol 3",
             "(4,2) blow-up skip", "(4,2) blow-up abort"])
    def test_bulk_equals_one_at_a_time(self, make, seed, start, count, grid,
                                       kw, end, monkeypatch):
        # the same on_record stream, bit for bit, and the same stats or
        # error at the default batch and at one record at a time; the skip
        # runs drop trajectories mid-batch, and ``end`` is None or their
        # numbers of (diverged, non-positive) drops
        spec = make()
        assert propagator.RECORD_BATCH == 8
        bulk = record_stream(spec, seed, start, count, grid, **kw)
        monkeypatch.setattr(propagator, "RECORD_BATCH", 1)
        single = record_stream(spec, seed, start, count, grid, **kw)
        assert bulk == single
        stream, stats = bulk
        assert [x[0] for x in stream] == list(range(len(stream)))
        if isinstance(end, str):
            assert stats == end
        else:
            assert len(stream) == len(TimeGrid(*grid).times)
            assert stats.blowups or stats.positivity_skips
            assert len({x[3] for x in stream}) > 2     # masks shrink in steps
            if end is not None:
                assert (len(stats.blowups),
                        len(stats.positivity_skips)) == end

    def test_screen_solves_each_matrix_once(self, monkeypatch):
        # the matrices handed to eigvalsh in one block of the mixed_compare
        # system: 900 with no drop, positivity off (tol inf) or not; at
        # tol 0.3, where 120 trajectories are
        # dropped, and at 0.1 and 0.03, where all 400 are, a density is
        # solved at most once per record batch, whether the screen, a
        # verdict or the screen over a drop's survivors asks for it
        solved = []
        lowest = propagator._min_eigvalsh

        def counting(rho):
            solved.append(len(rho))
            return lowest(rho)

        monkeypatch.setattr(propagator, "_min_eigvalsh", counting)
        spec = spin1_pair_system()
        for tol, most, skips in ((np.inf, 900, 0), (10.0, 900, 0),
                                 (0.3, 1016, 120),
                                 (0.1, 1278, 400), (0.03, 932, 400)):
            solved.clear()
            stats = propagate_block(spec, 1, 3, 400, *self.MIXED,
                                    lambda *args: None, positivity_tol=tol,
                                    policy="skip")
            assert sum(solved) <= most
            assert len(stats.positivity_skips) == skips

    def test_larger_particle_solves_live_densities(self, monkeypatch):
        # the 4 x 4 densities handed to eigvalsh in the (4,2) blow-up:
        # each trajectory's only before it diverges, and under abort only
        # those of the records before the first divergence
        solved = []
        lowest = propagator._min_eigvalsh

        def counting(rho):
            solved.append(rho.size // 16)
            return lowest(rho)

        monkeypatch.setattr(propagator, "_min_eigvalsh", counting)
        for policy, most in (("skip", 259), ("abort", 128)):
            solved.clear()
            with contextlib.suppress(TrajectoryBlowupError):
                propagate_block(qudit_spin_system(), 1, 0, 64, *self.QUDIT,
                                lambda *args: None, positivity_tol=np.inf,
                                policy=policy)
            assert sum(solved) <= most

    def test_drop_without_violator_raises(self, monkeypatch):
        # verdicts that clear every density disagree with the screen: the
        # drop at the first record whose minimum is below -tol finds no
        # violator, and raises where a restart at that record would loop
        monkeypatch.setattr(
            propagator, "_verdicts",
            lambda e, norms, *args, **kw: np.full(norms.shape, np.inf))
        with pytest.raises(ContractViolationError) as caught:
            propagate_block(spin1_pair_system(), 1, 3, 400, *self.MIXED,
                            lambda *args: None, positivity_tol=0.3,
                            policy="skip")
        assert str(caught.value) == (
            "t=0.24: the screen reads a minimum below -3.000e-01, but no "
            "trajectory's verdict does")


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
    matrix reads: a batch's smallest eigenvalue and each matrix's
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
        # scale), with no margin, so that a batch's bound sits at or next
        # to its minimum.  Each drawn width is a batch of its own
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
            for a, w in zip(seg, widths):
                batch = slice(a, a + w)
                estimates = propagator._trig_min_estimate(e[:, batch])
                values = propagator._screened_values(
                    e[:, batch], norms[batch], estimates,
                    lambda i: propagator._min_eigvalsh(rho[batch][i]))
                assert values.min() == exact[batch].min()
                # a value is eigvalsh's own, or +inf for a density whose
                # eigvalsh value is above the bound the screen ruled it
                # out at
                solved = np.isfinite(values)
                assert np.array_equal(values[solved], exact[batch][solved])
                assert (exact[batch][~solved] > propagator._screen_bound(
                    estimates.min())).all()
        # thresholds at a matrix's own value, one ulp either side of it,
        # or 1e-13 of the scale away: a verdict is eigvalsh's own value,
        # or +inf where the certificate clears it above -tol
        value = exact[pick % n]
        tol = -(np.nextafter(value, np.inf * nudge) if nudge in (1, -1)
                else value + nudge * scale)
        verdicts = propagator._verdicts(
            e, norms, tol, lambda i: propagator._min_eigvalsh(rho[i]))
        assert np.array_equal(~(verdicts >= -tol), ~(exact >= -tol))
        solved = np.isfinite(verdicts)
        assert np.array_equal(verdicts[solved], exact[solved])
        assert np.isposinf(verdicts[~solved]).all()

    def test_screen_solves_few_of_many(self):
        # one batch of 400 conjugated random spectra: the screen solves
        # about one matrix, and the verdicts none for a threshold that
        # the certificate clears for every matrix
        rho, e = screen_stack(3, "random", 0.0, 1.0, 400)
        norms = np.sqrt((np.abs(rho) ** 2).sum(axis=(1, 2)))
        solved = []

        def solve(index):
            solved.append(len(index))
            return propagator._min_eigvalsh(rho[index])

        propagator._screened_values(e, norms, propagator._trig_min_estimate(e),
                                    solve)
        assert sum(solved) <= 2
        solved.clear()
        assert np.isposinf(propagator._verdicts(e, norms, 10.0, solve)).all()
        assert solved == []
