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
from ._checks import PRODUCT_ROUNDOFF_PER_TERM, TARGET_SUM_TOL, descending_probabilities
from ._checks import frozen_array, require_hermitian, require_size, side_index
from .findim import Factorization, PureState, TpsFrame, _conjugate

__all__ = [
    "TargetSpectrum",
    "SubalgebraBasis",
    "ZanardiReport",
    "tailor_frame",
    "min_frame",
    "max_frame",
    "subalgebra_generators",
    "check_zanardi",
]

LOCAL_ACCESSIBILITY_NOTE = (
    "not assessed: whether each subalgebra corresponds to controllable "
    "observables is a physical question outside this checker"
)


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class SubalgebraBasis:
    """Hermitian generators of one virtual subsystem's observable algebra.

    The read-only ``(k^2, d, d)`` generators span ``M_k (x) I`` (side A) or
    ``I (x) M_k`` (side B) of the frame's product basis, in the native basis.
    """

    generators: np.ndarray
    side: str
    frame: TpsFrame

    def __post_init__(self):
        d, k = self.frame.d, self.frame.factorization.factors[side_index(self.side)]
        gens = frozen_array("generator", self.generators, dtype=complex)
        count = len(gens) if gens.ndim else 0
        if count != k * k:
            raise ValueError(f"expected {k * k} generators for factor {k}, got {count}")
        if gens.shape != (count, d, d):
            raise ValueError(
                f"generators of dimension {gens.shape[-1]} for a frame of dimension {d}: "
                f"expected shape {(count, d, d)}, got {gens.shape}"
            )
        require_hermitian("generator", gens, GENERATOR_HERMITICITY_TOL)
        object.__setattr__(self, "generators", gens)


@dataclass(frozen=True)
class ZanardiReport:
    """Outcome of the two algorithmic subsystem criteria.

    Independence: all cross-side generator pairs commute.  Completeness:
    pairwise products span the full d^2-dimensional operator space.  The
    third criterion, local accessibility, is physical and is only noted.

    ``max_commutator_norm`` is read on the route named by ``commutator_route``:
    ``"measured"``, the largest cross-commutator Frobenius norm computed pair by
    pair; ``"frame"``, an upper bound on that norm from the frame witness, taken
    only when it is below ``COMMUTATOR_TOL`` (see ``check_zanardi``).
    """

    independence: bool
    max_commutator_norm: float
    completeness: bool
    span_dimension: int
    full_dimension: int
    local_accessibility: str = field(default=LOCAL_ACCESSIBILITY_NOTE)
    commutator_route: str = "measured"


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


def _hermitian_basis(k: int) -> np.ndarray:
    """Identity plus the generalized Gell-Mann matrices on dimension ``k``.

    A ``(k^2, k, k)`` Hermitian stack spanning all of M_k; for k = 2 it holds
    the identity and the three Pauli matrices.
    """
    k = require_size("factor sizes", k)
    basis = np.zeros((k * k, k, k), dtype=complex)
    basis[0] = np.eye(k)
    rows, cols = np.triu_indices(k, 1)
    sym = 1 + 2 * np.arange(rows.size)
    basis[sym, rows, cols] = basis[sym, cols, rows] = 1.0
    basis[sym + 1, rows, cols], basis[sym + 1, cols, rows] = -1.0j, 1.0j
    diag, levels = np.arange(k), np.arange(1, k)[:, None]
    steps = (diag < levels) - levels * (diag == levels)
    basis[k * k - k + 1:, diag, diag] = np.sqrt(2.0 / (levels * (levels + 1))) * steps
    return basis


def _side_rows(frame: TpsFrame, side: str) -> tuple[np.ndarray, int]:
    """F's rows reordered so that the side's factor k is the slow index, and k.

    In these rows R every operator of the side is ``X (x) I``, so its generators
    are ``R^dag (X (x) I) R``.  Side A's rows are F itself; side B's are a d x d copy.
    """
    i = side_index(side)
    rows = np.moveaxis(frame.frame.reshape(*frame.factorization.factors, frame.d), i, 0)
    return rows.reshape(frame.d, frame.d), frame.factorization.factors[i]


def subalgebra_generators(frame: TpsFrame, side: str) -> SubalgebraBasis:
    """Hermitian generator set of one virtual subsystem, in the native basis.

    The full Hermitian basis of the side's factor is tensored with the
    identity on the other side and pulled back through the frame, so a
    generator G satisfies ``<psi| G |psi> = <U psi| (A (x) I) |U psi>``.
    """
    rows, k = _side_rows(frame, side)
    # X (x) I acts on R as X on its slow index; the product is a temporary, so no more
    # than two stacks are held before validation
    native = rows.conj().T @ (_hermitian_basis(k) @ rows.reshape(k, -1)).reshape(k * k, *rows.shape)
    return SubalgebraBasis(native, side, frame)


def _read_count(lower: np.ndarray, upper: np.ndarray) -> int | None:
    """The number of singular values above ``RANK_TOL`` times the largest, or None.

    The k-th singular value, in descending order, lies in ``[lower_k, upper_k]``.
    None when one of them may lie within the band around the threshold, widened
    by ``CERTIFICATE_MARGIN``.
    """
    margin = 1.0 + CERTIFICATE_MARGIN
    above = lower > RANK_TOL * upper[0] * margin
    below = upper * margin < RANK_TOL * lower[0]
    if not np.all(above | below):
        return None
    return int(np.count_nonzero(above))


def _pulled_back(gens: SubalgebraBasis):
    """One side pulled back to the product basis and split into ``a (x) I`` plus a residual.

    The pullback ``R G R^dag`` is read through ``_side_rows``, so it is a ``(m, k, j,
    k, j)`` stack with the side's factor k first.  Returns the ``(m, k, k)`` local
    parts ``a = Tr_j / j``, each residual's Frobenius norm, each native generator's
    Frobenius norm and the Frobenius norm of the whole pullback before the split.
    """
    rows, k = _side_rows(gens.frame, gens.side)
    j = gens.frame.d // k
    pulled = _conjugate(rows, gens.generators).reshape(-1, k, j, k, j)
    size = np.linalg.norm(pulled)
    local = np.einsum("mpsqs->mpq", pulled) / j
    for s in range(j):
        pulled[:, :, s, :, s] -= local
    # matrix by matrix, so that no temporary is the size of a stack
    e, sizes = (np.array([np.linalg.norm(g) for g in stack]) for stack in (pulled, gens.generators))
    return local, e, sizes, size


def _frame_witness(gens_a, gens_b) -> tuple[int | None, float | None]:
    """The span dimension and a commutator bound, read through the sides' common frame.

    ``(None, None)`` unless ``gens_a`` and ``gens_b`` are side A and side B of one
    frame whose defect ``u`` is below one.  Otherwise the count, or None when the
    band cannot settle it, and a bound on every cross commutator's Frobenius norm,
    both as described in ``check_zanardi``.
    """
    if not (isinstance(gens_a, SubalgebraBasis) and isinstance(gens_b, SubalgebraBasis)):
        return None, None
    frame, other = gens_a.frame, gens_b.frame
    same = frame is other or (
        frame.factorization == other.factorization and np.array_equal(frame.frame, other.frame)
    )
    if not same or (gens_a.side, gens_b.side) != ("A", "B"):
        return None, None
    d, k2 = frame.d, frame.k2
    gamma = PRODUCT_ROUNDOFF_PER_TERM * d * np.finfo(float).eps
    # the frame's ||F^dag F - I||_F, raised by the roundoff of F^dag F (at most gamma ||F||_F^2)
    u = (frame.defect + gamma * d) / (1.0 - gamma * d)
    if not u < 1.0:
        return None, None
    # one side's pullback is held at a time
    a, e, sizes_a, _ = _pulled_back(gens_a)
    b, f_res, sizes_b, size_pb = _pulled_back(gens_b)
    size_a, size_b = np.linalg.norm(sizes_a), np.linalg.norm(sizes_b)
    s_a = np.linalg.svd(a.reshape(len(a), -1), compute_uv=False)
    s_b = np.linalg.svd(b.reshape(len(b), -1), compute_uv=False)
    ratios = np.sort(np.outer(s_a, s_b), axis=None)[::-1]
    # Weyl: the pulled-back products against the model products a_i (x) b_j
    eta = np.sqrt(k2) * np.linalg.norm(a) * np.linalg.norm(f_res) + np.linalg.norm(e) * size_pb
    # the frame's defect and the pullback's roundoff, per unit of generator norm
    pullback = gamma * np.sqrt(d) * (1.0 + u) * (2.0 + gamma * np.sqrt(d))
    eta += size_a * (size_b * (1.0 + u) * (u + pullback) + pullback * size_pb)
    count = _read_count((ratios - eta) / (1.0 + u), (ratios + eta) / (1.0 - u))
    # each exact pullback's distance from its local part (residual plus the pullback's
    # roundoff), and the local part's spectral norm
    eps_a, eps_b = e + pullback * sizes_a, f_res + pullback * sizes_b
    norm_a, norm_b = np.linalg.norm(a, 2, axis=(1, 2)), np.linalg.norm(b, 2, axis=(1, 2))
    pairs = 2.0 * (np.outer(norm_a, eps_b) + np.outer(eps_a, norm_b + eps_b))
    # the frame's defect, with ||G||_2 <= ||F^-1||_2^2 (||a||_2 + eps) on each side
    pairs += 2.0 * (1.0 + u) * u * np.outer(norm_a + eps_a, norm_b + eps_b) / (1.0 - u) ** 2
    return count, float(pairs.max() / (1.0 - u))


def _dense_span_dimension(stack_a: np.ndarray, stack_b: np.ndarray) -> int:
    """Rank of the d^2 x (|A|.|B|) product matrix from its full spectrum."""
    products = (stack_a[:, None] @ stack_b).reshape(len(stack_a) * len(stack_b), -1).T
    singular = np.linalg.svd(products, compute_uv=False)
    return int(np.count_nonzero(singular > RANK_TOL * singular[0])) if singular[0] > 0 else 0


def check_zanardi(gens_a, gens_b) -> ZanardiReport:
    """Check subsystem independence and completeness of two generator sets.

    Independence holds when every cross pair commutes (largest commutator
    Frobenius norm below ``COMMUTATOR_TOL``).  Completeness holds when the
    pairwise products, flattened to d^2-vectors, span the full operator
    space; the span dimension is the number of singular values of the
    product matrix above ``RANK_TOL`` times the largest.

    The span dimension takes one of two routes.

    1. **Frame witness**, O(k^2 d^3).  Tried when ``gens_a`` and ``gens_b``
       are the side-A and side-B ``SubalgebraBasis`` of one frame F (the
       same object, or equal factorizations and equal arrays), as in every
       CLI call.  It reads the count off a model whose singular values are
       known and bounds the distance to the product matrix P: each singular
       value of P then lies in an interval, and the count is read when no
       interval meets the band around ``RANK_TOL`` times the largest,
       widened by ``CERTIFICATE_MARGIN`` so that roundoff the bound leaves
       out cannot move a singular value across it.  Each stack is pulled
       back to the product basis, ``PA = F G_A F^dag`` and ``PB = F G_B
       F^dag``, and split into ``a_i (x) I + e_i`` and ``I (x) b_j + f_j``
       with ``a_i = Tr_B(PA_i) / k2`` and ``b_j = Tr_A(PB_j) / k1``.  PB is
       read with B's factor first, through F's rows reordered, so that its
       split is the same as PA's; one side's pullback is held at a time.  The
       model products ``a_i (x) b_j`` have the singular values ``s_A,i
       s_B,j``, the products of the singular values of the two small
       coefficient matrices, whose columns are ``vec(a_i)`` (k1^2 x |A|) and
       ``vec(b_j)`` (k2^2 x |B|).  Model and P are in the same units, the
       Frobenius norm of a generator product, so no sqrt(d) enters.  By Weyl
       the pulled-back products lie within ``eta = sqrt(k2) ||a|| ||f|| +
       ||e|| ||PB||`` of the model (stack Frobenius norms; ``sqrt(k2) ||a||``
       is ``||a (x) I||``).  ``u = ||F^dag F - I||_F``, the frame's own
       ``defect``, adds ``(1 + u) u ||G_A|| ||G_B||``; the roundoff of the two
       pullback products adds about ``2 gamma_d sqrt(d) ||G||`` to each
       pulled-back stack, where ``gamma_d = PRODUCT_ROUNDOFF_PER_TERM d eps``
       bounds a complex length-d dot product; and conjugation by F scales
       every singular value by a factor within ``[1 - u, 1 + u]``.  Roundoff
       in the small SVDs and the norms, relative ``k^2 eps``, is left to the
       margin.  For a Haar frame at d = 36 the residuals are at roundoff and
       the interval's half-width is 7e-11 of the largest product.  The
       witness takes no match on trust: a frame that does not match its
       generators leaves residuals of the generators' own size, and the band
       then covers the products.
    2. **Dense SVD** of the d^2 x |A| |B| product matrix, O(d^6), for every
       other input: plain sequences and 3-D arrays, sides of two different
       frames (such as side A of a frame V against side B of ``V U^dag``),
       and sides of one frame whose witness cannot settle the count.

    The commutator maximum also takes one of two routes, named in the
    report's ``commutator_route``.

    1. **Frame**, O(k^4) past the witness's pullback.  For the inputs the
       witness takes, ``[a_i (x) I, I (x) b_j] = 0`` exactly, so each pair of
       pulled-back generators commutes to within ``2 (||a_i||_2 ||f_j|| +
       ||e_i|| ||b_j||_2 + ||e_i|| ||f_j||)``, where each residual norm is
       raised by its share of the pullback's roundoff, ``2 gamma_d sqrt(d)
       ||G||`` as above.  With ``F^dag F = I + Delta``, ``F [G_A, G_B] F^dag =
       [PA, PB] - F (G_A Delta G_B - G_B Delta G_A) F^dag``, which adds ``2 (1 +
       u) u ||G_A||_2 ||G_B||_2`` with ``||G||_2 <= (||a||_2 + ||e||) / (1 -
       u)``, and undoing F costs a factor ``||F^-1||_2^2 <= 1 / (1 - u)``.  The
       largest pair bound is reported as ``max_commutator_norm`` when it is
       below ``COMMUTATOR_TOL``; roundoff in the norms, relative ``k^2 eps``,
       is left out.  For a Haar frame the bound reads about 7e-13 at d = 12,
       6e-12 at d = 36 and 2e-11 at d = 64, against measured norms near 3e-15.
    2. **Measured**, O(k^4 d^3): every cross commutator is formed and its
       Frobenius norm taken, for every other input and whenever the frame
       bound is at or above ``COMMUTATOR_TOL``.

    Accepts ``SubalgebraBasis`` objects, whose stacks are used as they are,
    or sequences of matrices or 3-D arrays, Hermitian or not, each copied into
    one ``(m, d, d)`` stack, so degenerate generator sets can be checked too.
    """
    stack_a, stack_b = (
        g.generators
        if isinstance(g, SubalgebraBasis)
        else frozen_array("generators", g, dtype=complex)
        for g in (gens_a, gens_b)
    )
    if stack_a.size == 0 or stack_b.size == 0:
        raise ValueError("generator sets must be nonempty")
    d = stack_a.shape[-1]
    for stack in (stack_a, stack_b):
        if stack.ndim != 3 or stack.shape[1:] != (d, d):
            raise ValueError(f"generator stack shape {stack.shape} does not match (m, {d}, {d})")
    span_dim, max_comm = _frame_witness(gens_a, gens_b)
    route = "frame"
    if max_comm is None or not max_comm < COMMUTATOR_TOL:
        # one A generator against the whole B stack bounds the memory at |B| d^2
        max_comm = float(
            max(np.linalg.norm(a @ stack_b - stack_b @ a, axis=(1, 2)).max() for a in stack_a)
        )
        route = "measured"
    if span_dim is None:
        span_dim = _dense_span_dimension(stack_a, stack_b)
    return ZanardiReport(
        independence=max_comm < COMMUTATOR_TOL,
        max_commutator_norm=max_comm,
        completeness=span_dim == d * d,
        span_dimension=span_dim,
        full_dimension=d * d,
        commutator_route=route,
    )
