"""Finite-dimensional states and entanglement measures relative to a frame.

A frame is a factorization ``d = k1*k2`` together with a unitary ``U`` that
maps the native basis onto the product basis of two virtual subsystems.
Every measure in this module is taken relative to such a frame, so the same
state can come out separable in one frame and maximally entangled in
another.

Conventions
-----------
* Composite basis index ``i = i_A*k2 + i_B`` (subsystem A is the slow index).
* Entropies are in nats.
* Schmidt coefficients are probabilities (squared singular values), sorted
  in descending order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._checks import EIGENVALUE_FLOOR, HERMITICITY_TOL, NORM_TOL, TRACE_TOL, UNITARITY_TOL
from ._checks import OPERATOR_RANK_TOL, PHASE_FLOOR, SCHMIDT_SUM_TOL, descending_probabilities
from ._checks import frozen_array, require_hermitian, require_integer, require_size, side_index

__all__ = [
    "PureState",
    "DensityMatrix",
    "Factorization",
    "TpsFrame",
    "SchmidtData",
    "bell_state",
    "schmidt_decompose",
    "partial_trace",
    "entanglement_entropy",
    "purity",
    "negativity",
    "operator_schmidt_rank",
    "spectrum",
    "random_pure",
    "random_unitary",
    "random_density",
]


def _unit_norm(amplitudes: np.ndarray) -> float:
    """``||psi||`` of the amplitudes; raises unless it is within ``NORM_TOL`` of 1."""
    norm = float(np.linalg.norm(amplitudes))
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"state is not normalized: |psi| = {norm!r}")
    return norm


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector on a ``dim``-dimensional Hilbert space."""

    dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        dim = require_size("dimensions", self.dim)
        amps = frozen_array("amplitudes", self.amplitudes, (dim,), complex)
        _unit_norm(amps)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "amplitudes", amps)

    def projector(self) -> "DensityMatrix":
        """Rank-one density matrix |psi><psi|."""
        return DensityMatrix(self.dim, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on dimension ``dim``."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        dim = require_size("dimensions", self.dim)
        mat = frozen_array("density matrix", self.matrix, (dim, dim), complex)
        require_hermitian("density matrix", mat, HERMITICITY_TOL)
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace is {tr!r}, expected 1")
        lowest = float(np.linalg.eigvalsh(mat)[0])
        if lowest < EIGENVALUE_FLOOR:
            raise ValueError(f"density matrix has eigenvalue {lowest!r} below {EIGENVALUE_FLOOR}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class Factorization:
    """A bipartite factorization ``d = k1*k2`` with both factors at least 2."""

    d: int
    factors: tuple[int, int]

    def __post_init__(self):
        d, k1, k2 = (require_integer("dimension and factors", v) for v in (self.d, *self.factors))
        if k1 < 2 or k2 < 2:
            raise ValueError(f"both factors must be >= 2, got {(k1, k2)}")
        if k1 * k2 != d:
            raise ValueError(f"{k1}*{k2} != {d}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "factors", (k1, k2))

    @property
    def k1(self) -> int:
        return self.factors[0]

    @property
    def k2(self) -> int:
        return self.factors[1]


@dataclass(frozen=True, eq=False)
class TpsFrame:
    """A factorization plus the unitary mapping native to product basis.

    The unitary acts on states: a state ``psi`` in the native basis is
    represented by ``U psi`` in the product basis of the two virtual
    subsystems, and every measure below is evaluated there.  ``defect`` is
    the ``||U^dag U - I||_F`` its constructor checked, 0.0 for the identity.
    """

    factorization: Factorization
    frame: np.ndarray
    defect: float = field(init=False, repr=False)

    def __post_init__(self):
        d = self.factorization.d
        mat = frozen_array("frame", self.frame, (d, d), complex)
        # exact identity needs no O(d^3) unitarity check
        is_identity = np.count_nonzero(mat) == d and bool(np.all(mat.diagonal() == 1.0))
        defect = 0.0 if is_identity else float(np.linalg.norm(mat.conj().T @ mat - np.eye(d)))
        if not defect <= UNITARITY_TOL:  # a NaN defect fails too
            raise ValueError(f"frame is not unitary: ||U^dag U - I||_F = {defect!r}")
        object.__setattr__(self, "frame", mat)
        object.__setattr__(self, "defect", defect)

    @classmethod
    def identity(cls, factorization: Factorization) -> "TpsFrame":
        """The native frame: virtual subsystems coincide with the index split."""
        return cls(factorization, np.eye(factorization.d, dtype=complex))

    @property
    def d(self) -> int:
        return self.factorization.d

    @property
    def k1(self) -> int:
        return self.factorization.k1

    @property
    def k2(self) -> int:
        return self.factorization.k2


@dataclass(frozen=True, eq=False)
class SchmidtData:
    """Schmidt spectrum and vectors of a pure state in a given frame.

    ``coefficients`` are probabilities summing to one, descending.  Columns
    of ``left_vectors`` (``right_vectors``) are the orthonormal subsystem-A
    (subsystem-B) Schmidt vectors, phase-fixed so that the first nonzero
    component of each left vector is real and positive.
    """

    coefficients: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    def __post_init__(self):
        coeffs = descending_probabilities(
            "Schmidt coefficients", self.coefficients, SCHMIDT_SUM_TOL
        )
        left = frozen_array("left vectors", self.left_vectors, dtype=complex)
        right = frozen_array("right vectors", self.right_vectors, dtype=complex)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "left_vectors", left)
        object.__setattr__(self, "right_vectors", right)


_BELL_VECTORS = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    "psi-": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
}

_BELL_ALIASES = {"Φ+": "phi+", "Φ-": "phi-", "Ψ+": "psi+", "Ψ-": "psi-"}


def bell_state(label: str) -> PureState:
    """One of the four Bell states on dimension 4.

    Parameters
    ----------
    label : str
        ``"phi+"``, ``"phi-"``, ``"psi+"`` or ``"psi-"`` (unicode
        ``"Φ+"`` etc. also accepted).  Basis order is 00, 01, 10, 11.
    """
    key = _BELL_ALIASES.get(label, label).lower()
    if key not in _BELL_VECTORS:
        raise ValueError(f"unknown Bell label {label!r}")
    return PureState(4, _BELL_VECTORS[key])


def _conjugate(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``U M U^dag`` for an operator or a stack; ``m`` is rebound so two new arrays are held."""
    m = u @ m
    return m @ u.conj().T


def _in_product_basis(state, frame: TpsFrame, kind: type) -> np.ndarray:
    """``U psi`` as a ``(k1, k2)`` matrix, or ``U rho U^dag`` as a ``(k1, k2, k1, k2)`` array.

    ``kind`` is the state type the caller accepts; anything else raises ``TypeError``.
    """
    if not isinstance(state, kind):
        raise TypeError(f"expected {kind.__name__}, got {type(state).__name__}")
    if state.dim != frame.d:
        raise ValueError(f"state dimension {state.dim} != frame dimension {frame.d}")
    if isinstance(state, PureState):
        return (frame.frame @ state.amplitudes).reshape(frame.factorization.factors)
    return _conjugate(frame.frame, state.matrix).reshape(frame.factorization.factors * 2)


def _fix_phases(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # First component of each left vector above PHASE_FLOOR is rotated to the
    # positive real axis; the compensating phase goes on the right vector.  A
    # column of the SVD's U is a unit vector, so one component is >= 1/sqrt(k1).
    first = left[np.argmax(np.abs(left) > PHASE_FLOOR, axis=0), np.arange(left.shape[1])]
    phase = first / np.abs(first)
    return left / phase, right * phase


def schmidt_decompose(state: PureState, frame: TpsFrame) -> SchmidtData:
    """Schmidt decomposition of a pure state relative to a frame.

    The state is moved to the product basis, reshaped to ``k1 x k2`` and
    decomposed by SVD, so that
    ``psi = sum_i sqrt(lambda_i) |left_i> (x) |right_i>`` in that basis.

    Parameters
    ----------
    state : PureState
    frame : TpsFrame

    Returns
    -------
    SchmidtData
        Coefficients ``lambda_i`` (squared singular values, descending)
        and the matching orthonormal vectors.
    """
    m = _in_product_basis(state, frame, PureState)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    # psi[a*k2 + b] = sum_i s_i u[a, i] vh[i, b]: the right Schmidt vectors
    # are the rows of vh.
    left, right = _fix_phases(u, vh.T)
    coeffs = s**2
    coeffs = coeffs / coeffs.sum()
    return SchmidtData(coeffs, left, right)


def partial_trace(rho: DensityMatrix, frame: TpsFrame, side: str) -> DensityMatrix:
    """Reduced state of one virtual subsystem.

    The density matrix is conjugated into the product basis and the other
    subsystem's index is summed out.

    Parameters
    ----------
    rho : DensityMatrix
    frame : TpsFrame
    side : str
        ``"A"`` keeps the k1-dimensional subsystem, ``"B"`` the
        k2-dimensional one.
    """
    conj = _in_product_basis(rho, frame, DensityMatrix)
    reduced = np.einsum(("abcb->ac", "abac->bc")[side_index(side)], conj)
    return DensityMatrix(len(reduced), 0.5 * (reduced + reduced.conj().T))


def _schmidt_probabilities(m: np.ndarray) -> np.ndarray:
    """Schmidt coefficients of the amplitudes ``m[..., i_A, i_B]``, descending, summing to 1.

    A stack of matrices gives one row of coefficients per matrix, each bit-identical to
    those of the matrix alone.  Only singular values are computed, so the coefficients
    agree with those of ``schmidt_decompose`` to roundoff, not bit for bit.
    """
    coeffs = np.linalg.svd(m, compute_uv=False) ** 2
    return coeffs / coeffs.sum(axis=-1, keepdims=True)


def _entropy_nats(probs: np.ndarray) -> float:
    p = probs[probs > 0.0]
    return max(0.0, float(-(p * np.log(p)).sum()))


def entanglement_entropy(state: PureState, frame: TpsFrame) -> float:
    """Von Neumann entropy (nats) of either marginal, from the Schmidt spectrum.

    ``0 * ln 0`` is taken as 0.
    """
    return _entropy_nats(_schmidt_probabilities(_in_product_basis(state, frame, PureState)))


def purity(rho: DensityMatrix) -> float:
    """``Tr(rho^2)``, between 1/d (totally mixed) and 1 (pure)."""
    # For Hermitian rho, Tr(rho^2) equals the squared Frobenius norm.
    return float(np.vdot(rho.matrix, rho.matrix).real)


def negativity(rho: DensityMatrix, frame: TpsFrame) -> float:
    """Negativity ``(||rho^{T_B}||_1 - 1)/2`` in the frame's product basis.

    Zero for all states that are PPT with respect to the frame, in
    particular for every product state and for the totally mixed state in
    any frame.
    """
    conj = _in_product_basis(rho, frame, DensityMatrix)
    transposed = conj.transpose(0, 3, 2, 1).reshape(rho.dim, rho.dim)
    eigs = np.linalg.eigvalsh(transposed)
    return max(0.0, float((np.abs(eigs).sum() - 1.0) / 2.0))


def operator_schmidt_rank(matrix: np.ndarray, factorization: Factorization) -> int:
    """Number of product terms needed to write an operator on ``k1 (x) k2``.

    The operator is reshuffled to a ``k1^2 x k2^2`` matrix whose singular
    values are the operator Schmidt coefficients; singular values above
    ``OPERATOR_RANK_TOL`` times the largest are counted.  Rank 1 means the operator
    factors as ``A (x) B``.
    """
    d = factorization.d
    m = frozen_array("operator", matrix, (d, d), complex)
    k1, k2 = factorization.k1, factorization.k2
    reshuffled = m.reshape(k1, k2, k1, k2).transpose(0, 2, 1, 3).reshape(k1 * k1, k2 * k2)
    s = np.linalg.svd(reshuffled, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > OPERATOR_RANK_TOL * s[0]))


def spectrum(rho: DensityMatrix) -> np.ndarray:
    """Eigenvalues of a density matrix, descending, roundoff clipped to zero.

    Eigenvalues in ``[EIGENVALUE_FLOOR, 0)`` are treated as roundoff and clipped;
    anything more negative raises, since it indicates a bug rather than
    noise.
    """
    eigs = np.linalg.eigvalsh(rho.matrix)[::-1]
    if eigs[-1] < EIGENVALUE_FLOOR:
        raise ValueError(f"eigenvalue {float(eigs[-1])!r} below clipping floor {EIGENVALUE_FLOOR}")
    return np.clip(eigs, 0.0, None)


def random_pure(d: int, seed) -> PureState:
    """Haar-random pure state (normalized complex Gaussian vector)."""
    d = require_size("dimensions", d)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(d, z / np.linalg.norm(z))


def random_unitary(d: int, seed) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix.

    The R-diagonal phases are absorbed into Q, which makes the
    distribution exactly Haar and the output reproducible for a seed.
    """
    d = require_size("dimensions", d)
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def random_density(d: int, rank: int, seed) -> DensityMatrix:
    """Random rank-``rank`` density matrix.

    Obtained as the reduction of a Haar-random pure state on a
    ``d * rank``-dimensional space, which forces the requested rank
    almost surely.
    """
    d, rank = require_size("dimensions", d), require_integer("ranks", rank)
    if not 1 <= rank <= d:
        raise ValueError(f"rank must be in [1, {d}], got {rank}")
    psi = random_pure(d * rank, seed)
    m = psi.amplitudes.reshape(d, rank)
    rho = m @ m.conj().T
    return DensityMatrix(d, 0.5 * (rho + rho.conj().T))
