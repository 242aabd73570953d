"""Physical system definition and pair-interaction decomposition.

A system is N particles, each with a one-body Hamiltonian, plus a uniform
pairwise interaction written as a sum of weighted products of Hermitian
one-body operators,

    V = sum_s omega_s * O^s (x) O^s ,

with real weights (either sign) and dimensionless Hermitian factors.  Any
swap-symmetric Hermitian pair matrix admits such a decomposition; this
module constructs one by expanding the pair matrix over an orthonormal
Hermitian operator basis and eigendecomposing the (real symmetric)
coefficient matrix.
"""

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import (
    ContractViolationError,
    DimensionLimitError,
    ShapeError,
    UnsupportedInteractionError,
)
from .linalg import (
    as_cmatrix,
    frozen_cmatrix,
    hs_inner,
    hs_norm,
    kron,
    max_full_dim,
    require_hermitian,
)

DISTINGUISHABLE = "distinguishable"

#: Decomposition weights below this fraction of the largest are dropped.
TERM_DROP_RTOL = 1e-12


@dataclass(frozen=True)
class ParticleSpec:
    """One particle: Hilbert-space dimension, 1-body Hamiltonian, statistics.

    ``statistics`` must be ``"distinguishable"``: every particle is
    distinguishable, and the field stays only as the configs' wire format.
    """

    dim: int
    h: np.ndarray
    statistics: str = DISTINGUISHABLE

    def __post_init__(self):
        if self.dim < 1:
            raise ShapeError(f"particle dim {self.dim} must be >= 1")
        h = frozen_cmatrix(require_hermitian(self.h, "particle Hamiltonian"))
        if h.shape[0] != self.dim:
            raise ShapeError(
                f"particle Hamiltonian dim {h.shape[0]} != declared dim {self.dim}"
            )
        object.__setattr__(self, "h", h)
        if self.statistics != DISTINGUISHABLE:
            raise ContractViolationError(
                f"statistics must be {DISTINGUISHABLE!r}, got {self.statistics!r}"
            )


@dataclass(frozen=True)
class InteractionTerm:
    """One product term: real weight omega and one Hermitian factor per particle."""

    omega: float
    ops: tuple

    def __post_init__(self):
        omega = float(self.omega)
        if not np.isfinite(omega) or omega == 0.0:
            raise ContractViolationError(
                f"interaction weight must be finite and nonzero, got {omega}"
            )
        ops = tuple(
            frozen_cmatrix(require_hermitian(o, f"interaction factor {k}"))
            for k, o in enumerate(self.ops)
        )
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "ops", ops)


@dataclass(frozen=True)
class SystemSpec:
    """N particles, shared pairwise interaction terms, product initial state."""

    particles: tuple
    terms: tuple = ()
    initial: tuple = field(default=())

    def __post_init__(self):
        particles = tuple(self.particles)
        if not particles:
            raise ShapeError("a system needs at least one particle")
        object.__setattr__(self, "particles", particles)

        terms = tuple(self.terms)
        for t, term in enumerate(terms):
            if len(term.ops) != len(particles):
                raise ShapeError(
                    f"interaction term {t} has {len(term.ops)} factors for "
                    f"{len(particles)} particles"
                )
            for k, (op, part) in enumerate(zip(term.ops, particles)):
                if op.shape[0] != part.dim:
                    raise ShapeError(
                        f"interaction term {t}, factor {k}: dim {op.shape[0]} "
                        f"!= particle dim {part.dim}"
                    )
        object.__setattr__(self, "terms", terms)

        initial = tuple(self.initial)
        if len(initial) != len(particles):
            raise ShapeError(
                f"{len(initial)} initial densities for {len(particles)} particles"
            )
        checked = []
        for k, (rho, part) in enumerate(zip(initial, particles)):
            rho = frozen_cmatrix(require_hermitian(rho, f"initial[{k}]"))
            if rho.shape[0] != part.dim:
                raise ShapeError(
                    f"initial[{k}]: dim {rho.shape[0]} != particle "
                    f"dim {part.dim}"
                )
            tr = complex(np.trace(rho))
            if not abs(tr - 1.0) <= 1e-12:
                raise ContractViolationError(
                    f"initial[{k}]: trace {tr.real:.15g} not 1 within 1e-12"
                )
            lo = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
            if not lo >= -1e-12:
                raise ContractViolationError(
                    f"initial[{k}]: negative eigenvalue {lo:.3e}"
                )
            checked.append(rho)
        object.__setattr__(self, "initial", tuple(checked))

    @property
    def n_particles(self) -> int:
        return len(self.particles)

    @property
    def dims(self) -> tuple:
        return tuple(p.dim for p in self.particles)

    @property
    def full_dim(self) -> int:
        return int(np.prod(self.dims))

    @property
    def max_abs_omega(self) -> float:
        return max((abs(t.omega) for t in self.terms), default=0.0)


def build_hermitian_basis(m: int) -> list:
    """Orthonormal Hermitian basis of the m x m operator space.

    Scaled identity first, then for each index pair (j < k) the symmetric
    and antisymmetric off-diagonal generators, then the diagonal
    generators: m*m matrices in total, with hs_inner(B_a, B_b) = delta_ab.
    For m = 2 this is the Pauli basis over sqrt(2).
    """
    if m < 1:
        raise ShapeError(f"basis dimension {m} must be >= 1")
    basis = [np.eye(m, dtype=complex) / np.sqrt(m)]
    for j in range(m):
        for k in range(j + 1, m):
            sym = np.zeros((m, m), dtype=complex)
            sym[j, k] = sym[k, j] = 1 / np.sqrt(2)
            basis.append(sym)
            asym = np.zeros((m, m), dtype=complex)
            asym[j, k] = -1j / np.sqrt(2)
            asym[k, j] = 1j / np.sqrt(2)
            basis.append(asym)
    for l in range(1, m):
        diag = np.zeros((m, m), dtype=complex)
        diag[np.arange(l), np.arange(l)] = 1.0
        diag[l, l] = -l
        basis.append(diag / np.sqrt(l * (l + 1)))
    return basis


def hermitian_coordinates(x) -> np.ndarray:
    """Real coordinates Tr(B_a x) of Hermitian matrices ``x`` (..., m, m)
    in ``build_hermitian_basis(m)``, the last axis running over a."""
    x = np.asarray(x)
    basis = np.array(build_hermitian_basis(x.shape[-1]))
    return np.einsum("aji,...ij->...a", basis, x).real


def hermitian_structure_constants(m: int):
    """Real structure constants of ``build_hermitian_basis(m)``.

    Returns ``(anti, comm)``, each (m*m, m*m, m*m), with
    ``anti[e, a, b] = Tr(B_a {B_e, B_b})`` and
    ``comm[e, a, b] = Tr(B_a i[B_e, B_b])``: for Hermitian O and rho with
    coordinates o and c, {O, rho} and i[O, rho] have coordinates
    ``(o @ anti) @ c`` and ``(o @ comm) @ c`` (contracting e, then b).
    Both are real because the basis is Hermitian: with
    t = Tr(B_a B_e B_b), Tr(B_a B_b B_e) is conj(t), so the anticommutator
    gives 2 Re t and the commutator -2 Im t.
    """
    basis = np.array(build_hermitian_basis(m))
    t = np.einsum("aij,ejk,bki->eab", basis, basis, basis)
    return 2.0 * t.real, -2.0 * t.imag


def swap_operator(m: int) -> np.ndarray:
    """Two-particle swap S with S (x (x) y) S = y (x) x on m (x) m."""
    s = np.zeros((m * m, m * m), dtype=complex)
    for i in range(m):
        for j in range(m):
            s[i * m + j, j * m + i] = 1.0
    return s


def is_swap_symmetric(v, m: int, rtol=1e-10) -> bool:
    v = as_cmatrix(v, "pair matrix")
    s = swap_operator(m)
    norm = hs_norm(v)
    if norm == 0.0:
        return True
    return hs_norm(s @ v @ s - v) <= rtol * norm


def decompose_pair_interaction(v, m: int) -> list:
    """Decompose a swap-symmetric Hermitian pair matrix into product terms.

    Expands ``v`` over the product basis {B_a (x) B_b}, eigendecomposes the
    resulting real symmetric coefficient matrix, and returns the list of
    ``(omega, O)`` pairs with ``sum_s omega_s O^s (x) O^s`` reproducing
    ``v`` to 1e-10 relative Hilbert-Schmidt norm.  Weights keep their sign;
    numerically-zero weights (below ``TERM_DROP_RTOL`` times the largest) are
    dropped.  At most m*m terms are returned.
    """
    v = as_cmatrix(v, "pair matrix")
    if v.shape[0] != m * m:
        raise ShapeError(f"pair matrix dim {v.shape[0]} != m^2 = {m * m}")
    if not np.isfinite(v).all():
        raise ContractViolationError("pair matrix has non-finite entries")
    require_hermitian(v, "pair matrix")
    if not is_swap_symmetric(v, m):
        raise UnsupportedInteractionError(
            "pair matrix is not swap-symmetric; only exchange-symmetric "
            "interactions are supported"
        )

    basis = build_hermitian_basis(m)
    n = len(basis)
    coeff = np.empty((n, n), dtype=float)
    for a, ba in enumerate(basis):
        for b, bb in enumerate(basis):
            c = hs_inner(np.kron(ba, bb), v)
            coeff[a, b] = c.real
    coeff = 0.5 * (coeff + coeff.T)

    w, vecs = np.linalg.eigh(coeff)
    if w.size:
        cutoff = TERM_DROP_RTOL * float(np.max(np.abs(w)))
    else:
        cutoff = 0.0
    terms = []
    for s in range(n):
        omega = float(w[s])
        if abs(omega) <= cutoff:
            continue
        op = np.zeros((m, m), dtype=complex)
        for a in range(n):
            op += vecs[a, s] * basis[a]
        terms.append((omega, op))
    return terms


def reconstruct_pair_interaction(terms, dim=None) -> np.ndarray:
    """Sum of omega * kron(O, O) over terms; the inverse of the decomposition.

    ``dim`` fixes the one-body dimension when ``terms`` is empty (an empty
    list is a valid no-interaction case but carries no size information).
    """
    terms = list(terms)
    if not terms:
        if dim is None:
            raise ShapeError(
                "reconstruct_pair_interaction: empty term list needs an "
                "explicit dim"
            )
        return np.zeros((dim * dim, dim * dim), dtype=complex)
    m = as_cmatrix(terms[0][1], "term 0").shape[0]
    out = np.zeros((m * m, m * m), dtype=complex)
    for i, (omega, op) in enumerate(terms):
        op = as_cmatrix(op, f"term {i}")
        if op.shape[0] != m:
            raise ShapeError(f"term {i}: dim {op.shape[0]} != {m}")
        out += omega * np.kron(op, op)
    return out


def shared_interaction_terms(pair_terms, particles) -> tuple:
    """Lift (omega, O) pairs to InteractionTerms shared by every particle.

    All particles must have the same one-body dimension; per-particle
    operators beyond this shared case have to be built directly.
    """
    particles = tuple(particles)
    dims = {p.dim for p in particles}
    if len(dims) != 1:
        raise UnsupportedInteractionError(
            "shared interaction operators require identical particle "
            f"dimensions, got {sorted(dims)}"
        )
    n = len(particles)
    return tuple(
        InteractionTerm(omega=omega, ops=(op,) * n) for omega, op in pair_terms
    )


def embed(dims, ops) -> np.ndarray:
    """Kronecker product with ops[k] on factor k, identity elsewhere."""
    mats = [np.eye(d, dtype=complex) for d in dims]
    for k, op in ops.items():
        mats[k] = as_cmatrix(op, f"factor {k}")
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def _hamiltonian_terms(spec: SystemSpec):
    """(weight, {particle: factor}) of every one-body and pair term of the
    full Hamiltonian; a DimensionLimitError above ``max_full_dim``."""
    limit = max_full_dim()
    if spec.full_dim > limit:
        raise DimensionLimitError(
            f"full dimension {spec.full_dim} exceeds the configured maximum {limit}"
        )
    n = spec.n_particles
    terms = [(1.0, {k: part.h}) for k, part in enumerate(spec.particles)]
    terms += [(term.omega, {k: term.ops[k], l: term.ops[l]})
              for k in range(n - 1) for l in range(k + 1, n)
              for term in spec.terms]
    return terms


def assemble_full_hamiltonian(spec: SystemSpec) -> np.ndarray:
    """Full N-body Hamiltonian: one-body parts plus all pair terms."""
    out = np.zeros((spec.full_dim, spec.full_dim), dtype=complex)
    for weight, ops in _hamiltonian_terms(spec):
        out += weight * embed(spec.dims, ops)
    return 0.5 * (out + out.conj().T)


def apply_full_hamiltonian(spec: SystemSpec, vecs) -> np.ndarray:
    """H |psi> for the product vector psi = kron_k vecs[k], with H as
    ``assemble_full_hamiltonian`` builds it, (H + H^dag)/2, applied term by
    term to the factors, so no (D, D) matrix is formed.  Each term's
    product is an outer product per factor, each entry one product, as
    np.kron forms it, without np.kron's per-call overhead."""
    out = np.zeros(spec.full_dim, dtype=complex)
    for weight, ops in _hamiltonian_terms(spec):
        for side in (ops, {k: op.conj().T for k, op in ops.items()}):
            out += (0.5 * weight) * reduce(
                lambda a, b: np.multiply.outer(a, b).reshape(-1),
                [side[k] @ v if k in side else v for k, v in enumerate(vecs)])
    return out


def product_density(spec: SystemSpec) -> np.ndarray:
    """Initial N-body density: tensor product of the one-body densities."""
    out = spec.initial[0]
    for rho in spec.initial[1:]:
        out = kron(out, rho)
    return out
