"""Gaussian states in the covariance formalism.

Quadratures are ordered mode by mode, ``xi = (x1, p1, ..., xn, pn)``, with
hbar = 1 and the vacuum covariance equal to the identity, so the
uncertainty bound reads "all symplectic eigenvalues >= 1".  A Gaussian
state is a covariance matrix plus a mean vector; every entanglement
quantity here reads only the covariance, which is why phase-space
displacements (Galilean boosts and translations included) change nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._checks import NU_CONSTRUCTOR_TOL, PURITY_NU_TOL, SEPARABLE_NU_GUARD, SYMMETRY_TOL
from ._checks import SYMPLECTIC_TOL, WILLIAMSON_RESIDUAL_TOL, frozen_array, require_finite
from ._checks import require_hermitian, require_integer, require_size, symplectic_defect
from ._checks import times_omega, williamson_residual
from .findim import random_unitary

__all__ = [
    "InvalidCovarianceError",
    "WilliamsonError",
    "SymplecticMatrix",
    "CovarianceMatrix",
    "GaussianState",
    "symplectic_form",
    "williamson",
    "is_pure",
    "thermal_entropy",
    "gaussian_entropy_across",
    "log_negativity_two_mode",
    "apply_symplectic",
    "mode_separating_transform",
    "two_mode_squeezed",
    "random_covariance",
]

class InvalidCovarianceError(ValueError):
    """Covariance matrix violates symmetry or the uncertainty bound."""


class WilliamsonError(RuntimeError):
    """Williamson decomposition failed its residual or symplecticity check."""


def symplectic_form(n_modes: int) -> np.ndarray:
    """The 2n x 2n form Omega, block diagonal in [[0, 1], [-1, 0]], read-only.

    The library applies Omega through ``_checks.times_omega``, an exact
    signed swap, and builds no dense Omega; this matrix is for callers.
    """
    omega = times_omega(np.eye(2 * require_size("mode counts", n_modes)))
    omega.setflags(write=False)
    return omega


def _hermitian_core(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factor L of sigma and ``i L^T Omega L``, similar to i Omega sigma.

    Its eigenvalues are +-nu; a sigma that is not positive definite has no
    factor and is rejected here.  ``sigma`` may be a stack (..., 2n, 2n).
    """
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise InvalidCovarianceError("covariance matrix is not positive definite") from None
    return chol, 1j * (times_omega(np.swapaxes(chol, -1, -2)) @ chol)


def _spectrum_of(sigma: np.ndarray) -> np.ndarray:
    """Symplectic spectra of a stack (..., 2n, 2n) of positive-definite matrices.

    Returns (..., n), each row descending.  Every member goes through the
    same LAPACK calls it would alone, so a stacked spectrum equals the
    per-matrix ones bit for bit.
    """
    n = sigma.shape[-1] // 2
    return np.linalg.eigvalsh(_hermitian_core(sigma)[1])[..., n:][..., ::-1].copy()


def _validated_spectra(sigma: np.ndarray) -> np.ndarray:
    """Check a stack (..., 2n, 2n) of covariance matrices; return their spectra.

    Every member must be finite, symmetric within ``SYMMETRY_TOL``,
    positive definite and have every symplectic eigenvalue at least
    ``1 - NU_CONSTRUCTOR_TOL``.  The first failing check raises
    ``InvalidCovarianceError``; with one bad member it is the error
    ``CovarianceMatrix`` raises on that member alone.
    """
    require_finite("covariance matrix", sigma, InvalidCovarianceError)
    require_hermitian("covariance matrix", sigma, SYMMETRY_TOL, InvalidCovarianceError)
    nu = _spectrum_of(sigma)
    smallest = float(nu[..., -1].min())
    if smallest < 1.0 - NU_CONSTRUCTOR_TOL:
        raise InvalidCovarianceError(
            f"uncertainty bound violated: smallest symplectic eigenvalue {smallest!r} < 1"
        )
    return nu


def _all_pure(nu: np.ndarray) -> bool:
    """True when every spectrum in ``nu`` (..., n) is 1 within ``PURITY_NU_TOL``."""
    return bool(np.all(np.abs(nu - 1.0) <= PURITY_NU_TOL))


def _require_pure(nu: np.ndarray) -> None:
    """Raise unless ``_all_pure(nu)``."""
    if not _all_pure(nu):
        raise ValueError(
            "state is not pure, so the reduced entropy is not an entanglement "
            "measure; use log_negativity_two_mode for mixed two-mode states"
        )


def _congruence(s: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """``S sigma S^T`` for a stack of sigma, symmetrized against roundoff.

    A 1-D sigma is the diagonal of a diagonal matrix: it scales S's columns,
    which is ``S @ diag(sigma)`` bit for bit without the dense diagonal.
    """
    out = (s * sigma if sigma.ndim == 1 else s @ sigma) @ s.T
    return 0.5 * (out + np.swapaxes(out, -1, -2))


@dataclass(frozen=True, eq=False)
class SymplecticMatrix:
    """Real linear phase-space map preserving the canonical form Omega.

    ``defect`` is the ``||S^T Omega S - Omega||_F`` its constructor checked.
    """

    n_modes: int
    matrix: np.ndarray
    defect: float = field(init=False, repr=False)

    def __post_init__(self):
        n = require_size("mode counts", self.n_modes)
        mat = frozen_array("symplectic matrix", self.matrix, (2 * n,) * 2)
        defect = float(symplectic_defect(mat))
        if defect > SYMPLECTIC_TOL:
            raise ValueError(f"matrix is not symplectic: ||S^T Omega S - Omega||_F = {defect!r}")
        object.__setattr__(self, "n_modes", n)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "defect", defect)


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Symmetric covariance matrix satisfying the uncertainty bound.

    Validity means symmetric within ``SYMMETRY_TOL``, positive definite and
    all symplectic eigenvalues >= 1 - ``NU_CONSTRUCTOR_TOL`` (roundoff); the
    constructor rejects anything else.  ``nu`` keeps the symplectic
    spectrum it checked, the n positive eigenvalues of ``i Omega sigma``
    read from the Hermitian ``i L^T Omega L`` (sigma = L L^T): descending
    and read-only (``nu.copy()`` is writable).
    """

    n_modes: int
    sigma: np.ndarray
    nu: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = require_size("mode counts", self.n_modes)
        size = (2 * n,) * 2
        mat = frozen_array("covariance matrix", self.sigma, size, error=InvalidCovarianceError)
        nu = _validated_spectra(mat)
        nu.setflags(write=False)
        object.__setattr__(self, "n_modes", n)
        object.__setattr__(self, "sigma", mat)
        object.__setattr__(self, "nu", nu)


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Covariance matrix plus mean vector."""

    cov: CovarianceMatrix
    mean: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", frozen_array("mean", self.mean, (2 * self.cov.n_modes,)))

    @property
    def n_modes(self) -> int:
        return self.cov.n_modes


def williamson(cov: CovarianceMatrix) -> tuple[SymplecticMatrix, np.ndarray]:
    """Symplectic transform to thermal normal form.

    Returns ``(S, nu)`` with ``S sigma S^T = diag(nu_1, nu_1, ..., nu_n,
    nu_n)`` and nu a fresh copy of the kept spectrum ``cov.nu``.  With
    sigma = L L^T, the eigenvector ``u = (a + ib)/sqrt(2)`` of ``i L^T Omega
    L`` for each nu gives the columns (b, a) of an orthogonal K, and ``S =
    diag(nu)^(-1/2) K^T L^T Omega`` inverts nothing.  S is not unique, so
    callers should assert the reconstruction rather than S itself.

    Raises
    ------
    WilliamsonError
        If the reconstruction residual exceeds ``WILLIAMSON_RESIDUAL_TOL``
        or S fails the ``SymplecticMatrix`` check (defect above
        ``SYMPLECTIC_TOL``); the failure is reported, never silent.
    """
    return _williamson(cov)[:2]


def _williamson(cov: CovarianceMatrix) -> tuple[SymplecticMatrix, np.ndarray, float]:
    """``williamson``, with the reconstruction residual it checked."""
    sigma, n, nu = cov.sigma, cov.n_modes, cov.nu
    chol, herm = _hermitian_core(sigma)
    pairs = np.sqrt(2.0) * np.linalg.eigh(herm)[1][:, n:][:, ::-1]
    k = np.stack([pairs.imag, pairs.real], axis=2).reshape(2 * n, 2 * n)
    s = times_omega(k.T @ chol.T) / np.sqrt(np.repeat(nu, 2))[:, None]
    residual = float(williamson_residual(s, sigma, nu))
    if residual > WILLIAMSON_RESIDUAL_TOL:
        raise WilliamsonError(f"reconstruction residual {residual!r} exceeds tolerance")
    try:
        return SymplecticMatrix(n, s), nu.copy(), residual
    except ValueError as err:
        raise WilliamsonError(str(err)) from err


def is_pure(cov: CovarianceMatrix) -> bool:
    """True when every symplectic eigenvalue equals 1 within ``PURITY_NU_TOL``."""
    return _all_pure(cov.nu)


def thermal_entropy(nu: float) -> float:
    """Von Neumann entropy (nats) of a single thermal mode with eigenvalue nu.

    ``f(nu) = ((nu+1)/2) ln((nu+1)/2) - ((nu-1)/2) ln((nu-1)/2)``, with
    f(1) = 0; values of nu below 1 are treated as roundoff.
    """
    if nu <= 1.0:
        return 0.0
    plus = 0.5 * (nu + 1.0)
    minus = 0.5 * (nu - 1.0)
    return float(plus * np.log(plus) - minus * np.log(minus))


def gaussian_entropy_across(state: GaussianState, side_a) -> float:
    """Entanglement entropy (nats) of a pure Gaussian state across a mode cut.

    Parameters
    ----------
    state : GaussianState
        Must be globally pure; for mixed states this quantity is not the
        entanglement and the call raises, pointing at
        ``log_negativity_two_mode``.
    side_a : iterable of int
        Mode indices on one side of the bipartition (proper nonempty
        subset).

    Returns
    -------
    float
        Sum of ``thermal_entropy`` over the symplectic spectrum of the
        reduced covariance.
    """
    indices = sorted({require_integer("mode indices", i) for i in side_a})
    if not 0 < len(indices) < state.n_modes:
        raise ValueError("bipartition must be a proper nonempty subset of the modes")
    _require_pure(state.cov.nu)
    if indices[0] < 0 or indices[-1] >= state.n_modes:
        raise ValueError(f"mode indices {indices} out of range for {state.n_modes} modes")
    rows = np.array([2 * i + off for i in indices for off in (0, 1)])
    marginal = _validated_spectra(state.cov.sigma[np.ix_(rows, rows)])
    return float(sum(thermal_entropy(nu) for nu in marginal))


def log_negativity_two_mode(state: GaussianState) -> float:
    """Logarithmic negativity of a two-mode Gaussian state.

    Partial transposition flips the sign of the second mode's momentum;
    the result is ``max(0, -ln nu_minus)`` with nu_minus the smaller
    symplectic eigenvalue of the transposed covariance (still positive
    definite), read like the constructor's.  Valid for pure and mixed
    states.
    """
    if state.n_modes != 2:
        raise ValueError(f"defined for exactly two modes, got {state.n_modes}")
    signs = np.array([1.0, 1.0, 1.0, -1.0])
    transposed = state.cov.sigma * np.outer(signs, signs)
    nu_minus = _spectrum_of(transposed)[-1]
    if nu_minus >= 1.0 - SEPARABLE_NU_GUARD:
        return 0.0
    return float(-np.log(nu_minus))


def apply_symplectic(state: GaussianState, s: np.ndarray) -> GaussianState:
    """The state in the coordinates ``xi' = S xi``.

    The covariance maps to ``S sigma S^T``, symmetrized against roundoff,
    and the mean to ``S mean``.  ``s`` is a plain array that callers
    obtain from a validated or closed-form symplectic map; it is not
    checked again here, but the new covariance is.
    """
    size = 2 * state.n_modes
    if s.shape != (size, size):
        raise ValueError(f"expected a {size}x{size} matrix, got {s.shape}")
    sigma = _congruence(s, state.cov.sigma)
    return GaussianState(CovarianceMatrix(state.n_modes, sigma), s @ state.mean)


def mode_separating_transform(state: GaussianState) -> tuple[SymplecticMatrix, GaussianState]:
    """Symplectic transform after which the state is a product of thermal modes.

    Applies the Williamson transform to the state: the transformed
    covariance is ``diag(nu_1, nu_1, ...)`` with every cross-mode block
    zero, so the state is separable across every mode bipartition.  Works
    for pure and mixed states.
    """
    s, _ = williamson(state.cov)
    return s, apply_symplectic(state, s.matrix)


def two_mode_squeezed(r: float) -> GaussianState:
    """Two-mode squeezed vacuum with squeezing parameter r.

    Diagonal blocks cosh(2r) I, off-diagonal blocks sinh(2r) diag(1, -1):
    positions correlated, momenta anticorrelated.  Pure for every r.
    """
    c, s = np.cosh(2.0 * r), np.sinh(2.0 * r)
    sigma = np.array(
        [
            [c, 0.0, s, 0.0],
            [0.0, c, 0.0, -s],
            [s, 0.0, c, 0.0],
            [0.0, -s, 0.0, c],
        ]
    )
    return GaussianState(CovarianceMatrix(2, sigma), np.zeros(4))


def _random_symplectic(n_modes: int, seed, max_squeeze: float = 0.8) -> SymplecticMatrix:
    """Random symplectic matrix from the Euler decomposition O1 Z O2.

    The orthogonal factors are images of Haar unitaries, Z squeezes each
    mode by a uniform r in [-max_squeeze, max_squeeze].
    """
    rng = np.random.default_rng(seed)

    def orthogonal() -> np.ndarray:
        # u = a + ib acts on (x, p) pairs as [[a, -b], [b, a]]
        u = random_unitary(n_modes, rng)
        o = np.empty((2 * n_modes, 2 * n_modes))
        o[0::2, 0::2] = o[1::2, 1::2] = u.real
        o[0::2, 1::2] = -u.imag
        o[1::2, 0::2] = u.imag
        return o

    o1 = orthogonal()
    o2 = orthogonal()
    r = rng.uniform(-max_squeeze, max_squeeze, n_modes)
    z = np.repeat(np.exp(r), 2) ** np.tile([1.0, -1.0], n_modes)
    return SymplecticMatrix(n_modes, (o1 * z) @ o2)


def random_covariance(
    n_modes: int, seed, pure: bool = False, max_squeeze: float = 0.8
) -> CovarianceMatrix:
    """Random valid covariance ``S D S^T`` with a random symplectic S.

    D holds the symplectic eigenvalues: all 1 when ``pure``, otherwise
    uniform in [1, 2].  The construction makes the intended spectrum
    known, so it doubles as an oracle for the decompositions.
    """
    rng = np.random.default_rng(seed)
    s = _random_symplectic(n_modes, rng, max_squeeze).matrix
    nu = np.ones(n_modes) if pure else rng.uniform(1.0, 2.0, n_modes)
    return CovarianceMatrix(n_modes, _congruence(s, np.repeat(nu, 2)))
