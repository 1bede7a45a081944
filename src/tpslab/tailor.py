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

from ._checks import CERTIFICATE_MARGIN, COMMUTATOR_TOL, GENERATOR_HERMITICITY_TOL, RANK_TOL
from ._checks import TARGET_SUM_TOL, descending_probabilities, frozen_array, require_hermitian
from .findim import Factorization, PureState, TpsFrame, _conjugate

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

LOCAL_ACCESSIBILITY_NOTE = (
    "not assessed: whether each subalgebra corresponds to controllable "
    "observables is a physical question outside this checker"
)


@dataclass(frozen=True)
class TargetSpectrum:
    """Wanted Schmidt probabilities, descending, summing to one."""

    probabilities: np.ndarray

    def __post_init__(self):
        probs = descending_probabilities("target probabilities", self.probabilities, TARGET_SUM_TOL)
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
        gens = tuple(frozen_array("generator", g, (self.d,) * 2, complex) for g in self.generators)
        if len(gens) != k * k:
            raise ValueError(f"expected {k * k} generators for factor {k}, got {len(gens)}")
        for g in gens:
            require_hermitian("generator", g, GENERATOR_HERMITICITY_TOL)
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


def tailor_frame(psi: PureState, factorization: Factorization, target: TargetSpectrum) -> TpsFrame:
    """Frame in which ``psi`` has exactly the target Schmidt spectrum.

    The reference state ``phi = sum_i sqrt(lambda_i) |i i>`` realizes the
    target in the identity frame; the returned frame's unitary maps
    ``psi`` onto ``phi``.  Any such unitary gives the target spectrum, so
    the frame is the closed-form Householder reflector
    ``U = -conj(alpha) (I - 2 v v^dag / v^dag v)`` with ``v = psi + alpha
    phi`` and ``alpha = <phi|psi> / |<phi|psi>|`` (1 when they are
    orthogonal).  The plus sign keeps ``v^dag v = 2 + 2 |<phi|psi>| >= 2``,
    so the formula never cancels and ``U psi = phi`` to roundoff.

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
    phi[np.arange(width) * (k2 + 1)] = np.sqrt(target.probabilities)
    overlap = np.vdot(phi, psi.amplitudes)
    alpha = overlap / abs(overlap) if overlap != 0 else 1.0
    v = psi.amplitudes + alpha * phi
    reflector = np.eye(d) - np.outer(v, v.conj()) * (2.0 / np.vdot(v, v).real)
    return TpsFrame(factorization, -np.conj(alpha) * reflector)


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
    if isinstance(gens, SubalgebraBasis):
        return list(gens.generators)
    return [frozen_array("generators", g, dtype=complex) for g in gens]


def _dense_span_dimension(list_a, list_b) -> int:
    """Rank of the d^2 x (|A|.|B|) product matrix from its full spectrum."""
    products = np.column_stack([(a @ b).reshape(-1) for a in list_a for b in list_b])
    singular = np.linalg.svd(products, compute_uv=False)
    return int(np.count_nonzero(singular > RANK_TOL * singular[0])) if singular[0] > 0 else 0


def _certified_span_dimension(list_a, list_b) -> int | None:
    """The span dimension read off the sides' singular values, or None.

    None when the certificate described in ``check_zanardi`` cannot
    settle the count.
    """
    d = list_a[0].shape[0]
    m_a, m_b = len(list_a), len(list_b)
    if m_a * m_b > d * d:
        return None
    u_a, s_a, _ = np.linalg.svd(np.stack(list_a, axis=-1).reshape(d * d, m_a), full_matrices=False)
    u_b, s_b, _ = np.linalg.svd(np.stack(list_b, axis=-1).reshape(d * d, m_b), full_matrices=False)
    if s_a[0] == 0.0 or s_b[0] == 0.0:
        return None
    # row (k, l) of ``rows`` is vec(u_k w_l), filled in place one k at a time
    rows = np.empty((m_a * m_b, d * d), dtype=complex)
    stacked = rows.reshape(m_a, m_b, d, d)
    w = u_b.T.reshape(m_b, d, d)
    for k, u_k in enumerate(u_a.T.reshape(m_a, d, d)):
        np.matmul(u_k, w, out=stacked[k])
    # ||d G - I||_F^2 for the Hermitian Gram G = rows^* rows^T, summed over
    # its upper block rows of m_b rows each; the whole Gram is never held
    defect_sq = 0.0
    for lo in range(0, m_a * m_b, m_b):
        block = d * (rows[lo:lo + m_b].conj() @ rows[lo:].T)
        block[:, :m_b] -= np.eye(m_b)
        diagonal, upper = block[:, :m_b], block[:, m_b:]
        defect_sq += np.linalg.norm(diagonal) ** 2 + 2.0 * np.linalg.norm(upper) ** 2
    delta = np.sqrt(defect_sq)
    if not delta < 1.0:
        return None
    # sigma_k(P) / sigma_1(P) lies within a factor ``spread`` of ratios_k
    ratios = np.outer(s_a, s_b).reshape(-1) / (s_a[0] * s_b[0])
    spread = np.sqrt((1.0 + delta) / (1.0 - delta)) * (1.0 + CERTIFICATE_MARGIN)
    above = ratios > RANK_TOL * spread
    if not np.all(above | (ratios < RANK_TOL / spread)):
        return None
    return int(np.count_nonzero(above))


def check_zanardi(gens_a, gens_b) -> ZanardiReport:
    """Check subsystem independence and completeness of two generator sets.

    Independence holds when every cross pair commutes (largest commutator
    Frobenius norm below ``COMMUTATOR_TOL``).  Completeness holds when the
    pairwise products, flattened to d^2-vectors, span the full operator
    space; the span dimension is the number of singular values of the
    product matrix above ``RANK_TOL`` times the largest.

    The span dimension is certified without the d^6 SVD of the product
    matrix.  A thin SVD of each side's stacked generators writes the
    product matrix as ``P_U (S_A V_A^dag (x) S_B V_B^dag)``, with the
    columns of P_U the products ``vec(u_k w_l)`` of the sides' left
    singular vectors.  If ``delta = ||d P_U^dag P_U - I||_F < 1``, each
    singular value of the product matrix lies within ``[sqrt(1 - delta),
    sqrt(1 + delta)]`` times the matching product ``s_A,i s_B,j / sqrt(d)``
    of the sides' singular values (Ostrowski), so the count is read off
    those products.  For a genuine tensor product structure delta is at
    roundoff level (7.6e-14 for a Haar frame at d = 36).  The dense SVD
    of the product matrix runs instead when ``|A| |B| > d^2``, when
    ``delta >= 1``, or when a product falls within the bound's band
    around the threshold, widened by ``CERTIFICATE_MARGIN`` so that
    roundoff in either route cannot move a singular value across it.

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
    span_dim = _certified_span_dimension(list_a, list_b)
    if span_dim is None:
        span_dim = _dense_span_dimension(list_a, list_b)
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
    u = frozen_array("unitary", u, (gens.d, gens.d), complex)
    # the new frame's own unitarity check rejects a bad u before the
    # generators are conjugated
    new_frame = TpsFrame(gens.frame.factorization, gens.frame.frame @ u.conj().T)
    conjugated = tuple(_conjugate(u, g) for g in gens.generators)
    return SubalgebraBasis(gens.d, conjugated, gens.side, new_frame)
