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


# rows of the Jordan-product Gram per block: large enough for an efficient
# matrix product, small enough that the whole Gram is never held
_GRAM_BLOCK_ROWS = 256


def _split_hermitian(m: np.ndarray, triangle) -> tuple[np.ndarray, float]:
    """Real coordinates of the Hermitian parts of the stack ``m``, and its anti-Hermitian norm.

    The coordinates of ``h = (M + M^dag) / 2`` are its diagonal, then sqrt(2) Re and
    sqrt(2) Im of its strict upper triangle ``triangle = np.triu_indices(d, 1)``: d^2
    reals whose dot product is ``Tr(h h')``.  The norm is ``||(M - M^dag) / 2||_F`` over
    the whole stack.
    """
    rows, cols = triangle
    upper, lower = m[..., rows, cols], m[..., cols, rows].conj()
    diagonal = np.diagonal(m, axis1=-2, axis2=-1)
    strict = np.sqrt(0.5) * (upper + lower)
    coordinates = np.concatenate([diagonal.real, strict.real, strict.imag], axis=-1)
    anti_sq = np.linalg.norm(diagonal.imag) ** 2 + 0.5 * np.linalg.norm(upper - lower) ** 2
    return coordinates, float(np.sqrt(anti_sq))


def _hermitian_from_coordinates(x: np.ndarray, d: int) -> np.ndarray:
    """The Hermitian d x d matrices whose ``_split_hermitian`` coordinates are the rows of x."""
    rows, cols = np.triu_indices(d, 1)
    strict = np.sqrt(0.5) * (x[:, d:d + rows.size] + 1j * x[:, d + rows.size:])
    h = np.zeros((x.shape[0], d, d), dtype=complex)
    h[:, np.arange(d), np.arange(d)] = x[:, :d]
    h[:, rows, cols] = strict
    h[:, cols, rows] = strict.conj()
    return h


def _certified_span_dimension(list_a, list_b) -> int | None:
    """The span dimension read off the sides' singular values, or None.

    None when the certificate described in ``check_zanardi`` cannot
    settle the count.
    """
    d = list_a[0].shape[0]
    m_a, m_b = len(list_a), len(list_b)
    if m_a * m_b > d * d:
        return None
    triangle = np.triu_indices(d, 1)
    sides = []
    for gens in (list_a, list_b):
        stack = np.stack(gens)
        coordinates, defect = _split_hermitian(stack, triangle)
        basis, singular, _ = np.linalg.svd(coordinates.T, full_matrices=False)
        size = np.linalg.norm(stack)
        sides.append((_hermitian_from_coordinates(basis.T, d), singular, defect, size))
    (u, s_a, defect_a, size_a), (w, s_b, defect_b, size_b) = sides
    if s_a[0] == 0.0 or s_b[0] == 0.0:
        return None
    # row (k, l) of ``rows`` holds the coordinates of the Jordan product
    # (u_k w_l + w_l u_k) / 2, the Hermitian part of u_k w_l; its
    # anti-Hermitian part [u_k, w_l] / 2 is summed in quadrature
    rows = np.empty((m_a * m_b, d * d))
    commutator_sq = 0.0
    w_wide = w.transpose(1, 0, 2).reshape(d, m_b * d)
    for k, u_k in enumerate(u):
        products = (u_k @ w_wide).reshape(d, m_b, d).transpose(1, 0, 2)
        rows[k * m_b:(k + 1) * m_b], commutator = _split_hermitian(products, triangle)
        commutator_sq += commutator**2
    # ||d G - I||_F^2 for the real Gram G = rows rows^T, summed over its
    # upper block rows; the whole Gram is never held
    defect_sq = 0.0
    for lo in range(0, m_a * m_b, _GRAM_BLOCK_ROWS):
        hi = min(lo + _GRAM_BLOCK_ROWS, m_a * m_b)
        block = d * (rows[lo:hi] @ rows[lo:].T)
        block[:, :hi - lo] -= np.eye(hi - lo)
        diagonal, off_diagonal = block[:, :hi - lo], block[:, hi - lo:]
        defect_sq += np.linalg.norm(diagonal) ** 2 + 2.0 * np.linalg.norm(off_diagonal) ** 2
    delta = np.sqrt(defect_sq)
    if not delta < 1.0:
        return None
    # in units of s_A,1 s_B,1 / sqrt(d), sigma_k(P) lies within
    # [low r_k - eta, high r_k + eta] of the product ratios r_k
    top = s_a[0] * s_b[0]
    hermitian_defect = defect_a * size_b + np.linalg.norm(s_a) * defect_b
    eta = np.sqrt(d) * (np.sqrt(commutator_sq) + hermitian_defect / top)
    ratios = np.outer(s_a, s_b).reshape(-1) / top
    low, high = np.sqrt(1.0 - delta), np.sqrt(1.0 + delta)
    margin = 1.0 + CERTIFICATE_MARGIN
    above = low * ratios - eta > RANK_TOL * (high + eta) * margin
    below = (high * ratios + eta) * margin < RANK_TOL * (low - eta)
    if not np.all(above | below):
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
    matrix, in real arithmetic.  Each generator's Hermitian part h_i is
    mapped to real coordinates that preserve the Frobenius norm (the
    diagonal, then sqrt(2) Re and sqrt(2) Im of the strict upper
    triangle).  A real thin SVD of each side's coordinates gives Hermitian
    u_k and w_l, orthonormal in the trace inner product, with ``h_i =
    sum_k u_k s_A,k V_A,ik`` and likewise on side B.  The product matrix
    is then ``P = P_J (S_A V_A^T (x) S_B V_B^T) + E``: the columns of P_J
    are the Jordan products ``(u_k w_l + w_l u_k) / 2``, and G is their
    real Gram.  If ``delta = ||d G - I||_F < 1``, each singular value of
    the first term lies within ``[sqrt(1 - delta), sqrt(1 + delta)]``
    times the matching product ``s_A,i s_B,j / sqrt(d)`` of the sides'
    singular values (Ostrowski).  By Weyl, E moves each singular value by
    at most ``||E||_F``, which has two parts: the commutators, ``s_A,1
    s_B,1`` times ``||[u_k, w_l]||_F / 2`` summed in quadrature over all
    pairs, and the generators' Hermitian defect, ``||e_A|| ||B|| + ||h_A||
    ||e_B||`` for the stacks of anti-Hermitian parts e, Hermitian parts h
    and whole generators.  The count is read off the products when none
    falls within the resulting band around the threshold.  For a genuine
    tensor product structure both are at roundoff level: for a Haar frame
    at d = 36, delta is 6.4e-14 and the Weyl term 3.4e-14 times ``s_A,1
    s_B,1 / sqrt(d)``.  The dense SVD of the product matrix runs instead
    when ``|A| |B| > d^2``, when ``delta >= 1``, or when a product falls
    within the band, widened by ``CERTIFICATE_MARGIN`` so that roundoff in
    either route cannot move a singular value across it.  Generators far
    from Hermitian, such as ladder operators, and sides far from
    commuting widen the band past the products and so take the dense SVD.

    Accepts ``SubalgebraBasis`` objects or plain sequences of matrices,
    Hermitian or not, so degenerate generator sets can be checked too.
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
