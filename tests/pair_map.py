"""The pair map: the reformulation's noise written out literally, one
complex increment per (interaction term s, unordered pair {k, l}), each
particle reading the pair sums W_k^s = sum_{l != k} dalpha_{k,l}^s with
dalpha_{l,k} = conj(dalpha_{k,l}).

The propagator draws W at its rank instead (``propagator._rank_factor``);
the tests hold its draw against this map: the same covariance for every
N, and the same bits at N = 2.
"""

import numpy as np

from snbd.errors import ShapeError


def pair_count(n_particles: int) -> int:
    return n_particles * (n_particles - 1) // 2


def pair_list(n_particles: int) -> list:
    return [(k, l) for k in range(n_particles - 1)
            for l in range(k + 1, n_particles)]


def pair_index(k: int, l: int, n_particles: int) -> int:
    """Index of the unordered pair {k, l} (k < l) in ``pair_list``."""
    if not 0 <= k < l < n_particles:
        raise ShapeError(f"invalid pair ({k}, {l}) for N={n_particles}")
    return k * n_particles - k * (k + 1) // 2 + (l - k - 1)


def raw_to_increments(raw: np.ndarray, dt: float) -> np.ndarray:
    """Map standard-normal draws (..., 2) to (mu + i nu) sqrt(dt/2)."""
    return (raw[..., 0] + 1j * raw[..., 1]) * np.sqrt(dt / 2.0)


def sample_increments(rng, p: int, n_particles: int, dt: float) -> np.ndarray:
    """One step's increments ``values[s, q]``, (p, npairs): term s on pair
    q = {k, l}, k < l, each (mu + i nu) sqrt(dt/2) from 2 npairs normals
    of ``rng`` in (q, mu | nu) order."""
    raw = rng.standard_normal(size=(p, pair_count(n_particles), 2))
    return raw_to_increments(raw, dt)


def pair_noise_factor(z, order) -> np.ndarray:
    """The pair map times z_s as a real left factor, one (2 N, 2 npairs)
    block per term: it takes the float view of ``values[s]``, columns
    (q, re | im), to rows (Re | Im, particle) of z_s W_k^s, the particles
    in ``order``.  A (k, l) increment a + i b enters particle k as
    z_s (a + i b), particle l as z_s (a - i b), and no other particle."""
    n, p, npairs = len(order), len(z), pair_count(len(order))
    out = np.zeros((p, 2, n, npairs, 2))
    row = {k: r for r, k in enumerate(order)}
    for q, (k, l) in enumerate(pair_list(n)):
        for r, sign in ((row[k], 1.0), (row[l], -1.0)):
            out[:, 0, r, q] = np.stack([z.real, -sign * z.imag], axis=-1)
            out[:, 1, r, q] = np.stack([z.imag, sign * z.real], axis=-1)
    return out.reshape(p, 2 * n, 2 * npairs)


def moment_deviation(w: np.ndarray, dt: float) -> float:
    """The pair sums' moments checked on samples w, (samples, N) of one
    term: the largest deviation of E[W W^H] from (N - 1) dt I, of E[W W^T]
    from dt (J - I) and of E[W] from 0, each entry in units of its own
    standard error, estimated from the samples."""
    n_samples, n = w.shape
    worst = 0.0
    for x, expected in (
            (w[:, :, None] * w[:, None, :].conj(), (n - 1) * dt * np.eye(n)),
            (w[:, :, None] * w[:, None, :], dt * (np.ones((n, n)) - np.eye(n))),
            (w[:, :, None], np.zeros((n, 1)))):
        mean = x.mean(axis=0)
        se = np.sqrt((np.abs(x - mean) ** 2).mean(axis=0) / n_samples)
        worst = max(worst, float((np.abs(mean - expected) / se).max()))
    return worst
