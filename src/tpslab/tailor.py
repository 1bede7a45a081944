"""Tailoring frames to a chosen Schmidt spectrum, and subalgebra checks.

Any known pure state can be given any achievable Schmidt spectrum by a
suitable change of frame: build the reference state with the wanted
spectrum, construct a unitary mapping the given state onto it, and read
the virtual subsystems off that unitary.  The observable side of the same
construction produces commuting, complete subalgebra bases whose pair
induces the tensor product structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .findim import Factorization, PureState, TpsFrame, _conjugate, _require_finite

__all__ = [
    "TargetSpectrum",
    "SubalgebraBasis",
    "ZanardiReport",
    "tailor_frame",
    "min_frame",
    "max_frame",
    "hermitian_basis",
    "subalgebra_generators",
    "check_zanardi",
    "conjugate_subalgebra",
]

GRAM_SCHMIDT_RESIDUAL = 1e-8
COMMUTATOR_TOL = 1e-8
RANK_TOL = 1e-8

LOCAL_ACCESSIBILITY_NOTE = (
    "not assessed: whether each subalgebra corresponds to controllable "
    "observables is a physical question outside this checker"
)


@dataclass(frozen=True)
class TargetSpectrum:
    """Wanted Schmidt probabilities, descending, summing to one."""

    probabilities: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probabilities, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("target spectrum must be a nonempty 1d sequence")
        _require_finite("target probabilities", probs)
        if np.any(probs < 0.0):
            raise ValueError("target probabilities must be nonnegative")
        if np.any(np.diff(probs) > 1e-14):
            raise ValueError("target probabilities must be descending")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"target probabilities sum to {probs.sum()!r}, expected 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)

    @classmethod
    def uniform(cls, length: int) -> "TargetSpectrum":
        return cls(np.full(length, 1.0 / length))

    @classmethod
    def separable(cls, length: int) -> "TargetSpectrum":
        probs = np.zeros(length)
        probs[0] = 1.0
        return cls(probs)


@dataclass(frozen=True)
class SubalgebraBasis:
    """Hermitian generators of one virtual subsystem's observable algebra.

    The generators span ``M_k (x) I`` (side A) or ``I (x) M_k`` (side B)
    of the frame's product basis, written in the native basis.
    """

    d: int
    generators: tuple
    side: str
    frame: TpsFrame

    def __post_init__(self):
        if self.side not in ("A", "B"):
            raise ValueError(f"side must be 'A' or 'B', got {self.side!r}")
        k = self.frame.k1 if self.side == "A" else self.frame.k2
        gens = tuple(np.asarray(g, dtype=complex) for g in self.generators)
        if len(gens) != k * k:
            raise ValueError(f"expected {k * k} generators for factor {k}, got {len(gens)}")
        for g in gens:
            if g.shape != (self.d, self.d):
                raise ValueError(f"generator shape {g.shape} does not match d = {self.d}")
            if np.abs(g - g.conj().T).max() > 1e-10:
                raise ValueError("generators must be Hermitian")
            g.setflags(write=False)
        object.__setattr__(self, "generators", gens)


@dataclass(frozen=True)
class ZanardiReport:
    """Outcome of the two algorithmic subsystem criteria.

    Independence: all cross-side generator pairs commute.  Completeness:
    pairwise products span the full d^2-dimensional operator space.  The
    third criterion, local accessibility, is physical and is only noted.
    """

    independence: bool
    max_commutator_norm: float
    completeness: bool
    span_dimension: int
    full_dimension: int
    local_accessibility: str = field(default=LOCAL_ACCESSIBILITY_NOTE)


def _complete_basis(first: np.ndarray) -> np.ndarray:
    """Orthonormal basis with a given first column.

    Identity columns seed the completion; candidates whose residual after
    orthogonalization falls below 1e-8 are skipped as near-parallel.  The
    seed order makes the output deterministic.
    """
    d = first.size
    cols = [first / np.linalg.norm(first)]
    for j in range(d):
        if len(cols) == d:
            break
        v = np.zeros(d, dtype=complex)
        v[j] = 1.0
        # two orthogonalization passes keep the basis orthonormal to ~1e-15
        for _ in range(2):
            for b in cols:
                v = v - b * np.vdot(b, v)
        norm = np.linalg.norm(v)
        if norm > GRAM_SCHMIDT_RESIDUAL:
            cols.append(v / norm)
    if len(cols) != d:
        raise RuntimeError("basis completion failed; input too close to degenerate")
    return np.column_stack(cols)


def tailor_frame(psi: PureState, factorization: Factorization, target: TargetSpectrum) -> TpsFrame:
    """Frame in which ``psi`` has exactly the target Schmidt spectrum.

    The reference state ``phi = sum_i sqrt(lambda_i) |i i>`` realizes the
    target in the identity frame; the returned frame's unitary maps
    ``psi`` onto ``phi``, built by completing both vectors to orthonormal
    bases from a common identity-column seed.

    Parameters
    ----------
    psi : PureState
    factorization : Factorization
        Must factor ``psi.dim``.
    target : TargetSpectrum
        Length ``min(k1, k2)``.

    Returns
    -------
    TpsFrame
        Satisfies ``schmidt_decompose(psi, frame).coefficients == target``
        up to roundoff.
    """
    d = factorization.d
    if psi.dim != d:
        raise ValueError(f"state dimension {psi.dim} != factorization dimension {d}")
    k1, k2 = factorization.k1, factorization.k2
    width = min(k1, k2)
    if target.probabilities.size != width:
        raise ValueError(
            f"target length {target.probabilities.size} != min(k1, k2) = {width}"
        )
    phi = np.zeros(d, dtype=complex)
    for i, p in enumerate(target.probabilities):
        phi[i * k2 + i] = np.sqrt(p)
    basis_psi = _complete_basis(psi.amplitudes)
    basis_phi = _complete_basis(phi)
    return TpsFrame(factorization, basis_phi @ basis_psi.conj().T)


def min_frame(psi: PureState, factorization: Factorization) -> TpsFrame:
    """Frame in which ``psi`` is a product state (zero entanglement)."""
    width = min(factorization.k1, factorization.k2)
    return tailor_frame(psi, factorization, TargetSpectrum.separable(width))


def max_frame(psi: PureState, factorization: Factorization) -> TpsFrame:
    """Frame in which ``psi`` is maximally entangled (entropy ln min(k1, k2))."""
    width = min(factorization.k1, factorization.k2)
    return tailor_frame(psi, factorization, TargetSpectrum.uniform(width))


def hermitian_basis(k: int) -> list[np.ndarray]:
    """Identity plus the generalized Gell-Mann matrices on dimension ``k``.

    k^2 Hermitian matrices spanning all of M_k; for k = 2 they are the
    identity and the three Pauli matrices.
    """
    mats = [np.eye(k, dtype=complex)]
    for a in range(k):
        for b in range(a + 1, k):
            sym = np.zeros((k, k), dtype=complex)
            sym[a, b] = sym[b, a] = 1.0
            mats.append(sym)
            antisym = np.zeros((k, k), dtype=complex)
            antisym[a, b] = -1.0j
            antisym[b, a] = 1.0j
            mats.append(antisym)
    for level in range(1, k):
        diag = np.zeros(k)
        diag[:level] = 1.0
        diag[level] = -level
        mats.append(np.sqrt(2.0 / (level * (level + 1))) * np.diag(diag).astype(complex))
    return mats


def subalgebra_generators(frame: TpsFrame, side: str) -> SubalgebraBasis:
    """Hermitian generator set of one virtual subsystem, in the native basis.

    The full Hermitian basis of the side's factor is tensored with the
    identity on the other side and pulled back through the frame, so a
    generator G satisfies ``<psi| G |psi> = <U psi| (A (x) I) |U psi>``.
    """
    u = frame.frame
    k1, k2 = frame.k1, frame.k2
    if side == "A":
        embedded = [np.kron(a, np.eye(k2)) for a in hermitian_basis(k1)]
    elif side == "B":
        embedded = [np.kron(np.eye(k1), b) for b in hermitian_basis(k2)]
    else:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    native = [_conjugate(u.conj().T, g) for g in embedded]
    return SubalgebraBasis(frame.d, tuple(native), side, frame)


def _generator_list(gens) -> list[np.ndarray]:
    mats = list(gens.generators) if isinstance(gens, SubalgebraBasis) else list(gens)
    return [np.asarray(g, dtype=complex) for g in mats]


def check_zanardi(gens_a, gens_b) -> ZanardiReport:
    """Check subsystem independence and completeness of two generator sets.

    Independence holds when every cross pair commutes (largest commutator
    Frobenius norm below 1e-8).  Completeness holds when the pairwise
    products, flattened to d^2-vectors, span the full operator space;
    rank is decided by singular values above 1e-8 of the largest.

    Accepts ``SubalgebraBasis`` objects or plain sequences of Hermitian
    matrices, so degenerate generator sets can be checked too.
    """
    list_a = _generator_list(gens_a)
    list_b = _generator_list(gens_b)
    if not list_a or not list_b:
        raise ValueError("generator sets must be nonempty")
    d = list_a[0].shape[0]
    for g in list_a + list_b:
        if g.shape != (d, d):
            raise ValueError(f"generator shape {g.shape} does not match d = {d}")
    max_comm = 0.0
    for a in list_a:
        for b in list_b:
            comm = a @ b - b @ a
            max_comm = max(max_comm, float(np.linalg.norm(comm)))
    products = np.column_stack([(a @ b).reshape(-1) for a in list_a for b in list_b])
    singular = np.linalg.svd(products, compute_uv=False)
    span_dim = int(np.count_nonzero(singular > RANK_TOL * singular[0])) if singular[0] > 0 else 0
    return ZanardiReport(
        independence=max_comm < COMMUTATOR_TOL,
        max_commutator_norm=max_comm,
        completeness=span_dim == d * d,
        span_dimension=span_dim,
        full_dimension=d * d,
    )


def conjugate_subalgebra(gens: SubalgebraBasis, u: np.ndarray) -> SubalgebraBasis:
    """Conjugate every generator by a unitary, ``G -> U G U^dag``.

    Conjugation preserves Hermiticity, commutators and spans, so the
    report of ``check_zanardi`` is unchanged.  The stored frame is updated
    consistently: if the old generators came from frame V, the new ones
    come from ``V U^dag``.
    """
    u = np.asarray(u, dtype=complex)
    d = gens.d
    if u.shape != (d, d):
        raise ValueError(f"expected a {d}x{d} unitary, got {u.shape}")
    defect = np.linalg.norm(u.conj().T @ u - np.eye(d))
    if defect > 1e-8:
        raise ValueError(f"matrix is not unitary: ||U^dag U - I||_F = {defect!r}")
    conjugated = tuple(_conjugate(u, g) for g in gens.generators)
    new_frame = TpsFrame(gens.frame.factorization, gens.frame.frame @ u.conj().T)
    return SubalgebraBasis(d, conjugated, gens.side, new_frame)
