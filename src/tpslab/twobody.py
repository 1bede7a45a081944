"""Two trapped, harmonically coupled particles in one dimension.

The Hamiltonian is ``p1^2/2m1 + p2^2/2m2 + (w^2/2)(m1 x1^2 + m2 x2^2)
+ (kappa/2)(x1 - x2)^2``: both particles sit in a trap of common angular
frequency ``w`` and are coupled by a spring ``kappa``.  One dimension
carries the full story since quadratic Hamiltonians factor per Cartesian
axis.

States are handled as Gaussian states in mass-scaled particle quadratures
``x~ = sqrt(m w_ref) x``, ``p~ = p / sqrt(m w_ref)`` (``w_ref`` is the trap
frequency, or 1 when untrapped), which puts uncoupled ground states at the
identity covariance.  The scaling is local to each particle, so it changes
no entanglement quantity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import SYMMETRY_TOL, UNBOUND_FREQUENCY_RATIO, frozen_array, require_finite
from ._checks import require_hermitian, require_size, symplectic_inverse, times_omega
from .gaussian import (
    CovarianceMatrix,
    GaussianState,
    SymplecticMatrix,
    _congruence,
    _cut_entropies,
    _validated_spectra,
    apply_symplectic,
    gaussian_entropy_across,
)

__all__ = [
    "TwoBodyParams",
    "QuadraticHamiltonian",
    "com_rel_transform",
    "build_hamiltonian_matrix",
    "transform_quadratic_hamiltonian",
    "scaled_hamiltonian",
    "ground_state_covariance",
    "coupling_sweep",
    "interparticle_entanglement",
    "internal_external_entropy",
    "internal_external_entanglement",
    "evolve_gaussian",
    "galilean_boost",
]

@dataclass(frozen=True)
class TwoBodyParams:
    """Masses, common trap frequency and coupling strength.

    Both masses must be positive and at least one of ``omega_trap``,
    ``kappa`` nonzero, otherwise nothing binds.
    """

    m1: float
    m2: float
    omega_trap: float
    kappa: float

    def __post_init__(self):
        require_finite("two-body parameters", (self.m1, self.m2, self.omega_trap, self.kappa))
        if self.m1 <= 0.0 or self.m2 <= 0.0:
            raise ValueError(f"masses must be positive, got {self.m1}, {self.m2}")
        if self.omega_trap < 0.0 or self.kappa < 0.0:
            raise ValueError("trap frequency and coupling must be nonnegative")
        if self.omega_trap == 0.0 and self.kappa == 0.0:
            raise ValueError("need omega_trap > 0 or kappa > 0 for a bound system")

    @property
    def total_mass(self) -> float:
        return self.m1 + self.m2

    @property
    def reduced_mass(self) -> float:
        return self.m1 * self.m2 / (self.m1 + self.m2)

    @property
    def reference_frequency(self) -> float:
        """Scaling frequency: the trap frequency, or 1 when untrapped."""
        return self.omega_trap if self.omega_trap > 0.0 else 1.0


@dataclass(frozen=True, eq=False)
class QuadraticHamiltonian:
    """``H = (1/2) xi^T M xi`` with M real symmetric, xi interleaved."""

    n_modes: int
    matrix: np.ndarray

    def __post_init__(self):
        n = require_size("mode counts", self.n_modes)
        mat = frozen_array("Hamiltonian matrix", self.matrix, (2 * n,) * 2)
        require_hermitian("Hamiltonian matrix", mat, SYMMETRY_TOL)
        object.__setattr__(self, "n_modes", n)
        object.__setattr__(self, "matrix", mat)


def _com_rel_matrix(m1: float, m2: float) -> np.ndarray:
    total = m1 + m2
    return np.array(
        [
            [m1 / total, 0.0, m2 / total, 0.0],
            [0.0, 1.0, 0.0, 1.0],
            [1.0, 0.0, -1.0, 0.0],
            [0.0, m2 / total, 0.0, -m1 / total],
        ]
    )


def com_rel_transform(m1: float, m2: float) -> SymplecticMatrix:
    """Canonical map from particle to center-of-mass/relative coordinates.

    ``x_c = (m1 x1 + m2 x2)/M``, ``x_r = x1 - x2``, ``p_c = p1 + p2``,
    ``p_r = (m2 p1 - m1 p2)/M``; output ordering is (x_c, p_c, x_r, p_r),
    so mode 0 is the center of mass.  The map is a symplectic point
    transformation for every mass pair.
    """
    if m1 <= 0.0 or m2 <= 0.0:
        raise ValueError(f"masses must be positive, got {m1}, {m2}")
    return SymplecticMatrix(2, _com_rel_matrix(m1, m2))


def _mass_scaling_diagonal(params: TwoBodyParams) -> np.ndarray:
    roots = np.sqrt(np.array([params.m1, params.m2]) * params.reference_frequency)
    return np.stack([roots, 1.0 / roots], axis=1).ravel()


def _scaled_to_com_rel(params: TwoBodyParams) -> np.ndarray:
    """``com_rel_transform`` after undoing the mass scaling, as a plain array."""
    return _com_rel_matrix(params.m1, params.m2) / _mass_scaling_diagonal(params)


def build_hamiltonian_matrix(params: TwoBodyParams) -> QuadraticHamiltonian:
    """Hamiltonian matrix in unscaled particle coordinates (x1, p1, x2, p2)."""
    m1, m2 = params.m1, params.m2
    w2, kappa = params.omega_trap**2, params.kappa
    mat = np.array(
        [
            [m1 * w2 + kappa, 0.0, -kappa, 0.0],
            [0.0, 1.0 / m1, 0.0, 0.0],
            [-kappa, 0.0, m2 * w2 + kappa, 0.0],
            [0.0, 0.0, 0.0, 1.0 / m2],
        ]
    )
    return QuadraticHamiltonian(2, mat)


def transform_quadratic_hamiltonian(
    ham: QuadraticHamiltonian, s: SymplecticMatrix
) -> QuadraticHamiltonian:
    """Hamiltonian matrix in the coordinates ``xi' = S xi``.

    ``M' = S^-T M S^-1``, with the exact symplectic inverse ``S^-1 =
    -Omega S^T Omega``: nothing is inverted numerically.
    """
    if ham.n_modes != s.n_modes:
        raise ValueError(f"mode mismatch: {ham.n_modes} != {s.n_modes}")
    inv = symplectic_inverse(s.matrix)
    return QuadraticHamiltonian(ham.n_modes, _congruence(inv.T, ham.matrix))


def scaled_hamiltonian(params: TwoBodyParams) -> QuadraticHamiltonian:
    """The two-body Hamiltonian in mass-scaled particle quadratures."""
    scaling = SymplecticMatrix(2, np.diag(_mass_scaling_diagonal(params)))
    return transform_quadratic_hamiltonian(build_hamiltonian_matrix(params), scaling)


@np.errstate(all="ignore")  # each overflow is refused below, before any of it is used
def _ground_state_sigmas(params: TwoBodyParams, kappas: np.ndarray) -> np.ndarray:
    """Closed-form ground-state covariances (N, 4, 4), one per coupling in ``kappas``.

    ``params`` supplies the masses and the trap; its own ``kappa`` is not
    read.  Each row is checked for an overflowing mode frequency, for a
    zero or relatively vanishing one and for an overflowing covariance, and
    the first such row raises ``ValueError``.  NumPy warns of none of them.
    """
    mu = params.reduced_mass
    omega = np.float64(params.omega_trap)  # NumPy squares to inf where Python raises OverflowError
    freqs = np.stack([np.full(kappas.shape, omega), np.sqrt(omega**2 + kappas / mu)], axis=1)
    overflow = ~np.isfinite(freqs).all(axis=1)
    if overflow.any():
        raise ValueError(f"normal-mode frequencies {freqs[np.argmax(overflow)]} overflow")
    highest = freqs.max(axis=1)
    unbound = (highest == 0.0) | (freqs.min(axis=1) < UNBOUND_FREQUENCY_RATIO * highest)
    if unbound.any():
        raise ValueError(
            f"system is unbound: normal-mode frequencies {freqs[np.argmax(unbound)]} "
            "include a zero mode"
        )
    mass_freq = np.array([params.total_mass, mu]) * freqs
    vacua = np.stack([1.0 / mass_freq, mass_freq], axis=2).reshape(-1, 1, 4)
    sigma = _congruence(symplectic_inverse(_scaled_to_com_rel(params)), vacua * np.eye(4))
    overflow = ~np.isfinite(sigma).all(axis=(1, 2))
    if overflow.any():
        raise ValueError(
            f"ground-state covariance overflows for masses {params.m1!r}, {params.m2!r} "
            f"and normal-mode frequencies {freqs[np.argmax(overflow)]}"
        )
    return sigma


def ground_state_covariance(params: TwoBodyParams) -> GaussianState:
    """Gaussian ground state in mass-scaled particle quadratures, in closed form.

    The normal modes are the center of mass (mass M, frequency w) and the
    relative coordinate (mass mu, frequency W = sqrt(w^2 + kappa/mu)); each
    sits in its vacuum ``diag(1/(m f), m f)``.  The map B to those modes is
    symplectic, so the state reaches the particles through ``B^-1 = -Omega
    B^T Omega``, a signed permutation of B^T: nothing is inverted.  The
    result is pure; with coupling it is entangled across the particles and
    a product across center of mass and relative motion.  A zero or
    relatively vanishing mode frequency (no trap), an overflowing one or an
    overflowing covariance raises ``ValueError``.
    """
    sigma = _ground_state_sigmas(params, np.array([params.kappa], dtype=float))[0]
    return GaussianState(CovarianceMatrix(2, sigma), np.zeros(4))


def _first_mode_entropies(sigma: np.ndarray) -> np.ndarray:
    """Mode-0 entropies of a stack (N, 4, 4), checked as ``gaussian_entropy_across`` checks one."""
    return _cut_entropies(sigma, _validated_spectra(sigma), (0,))[:, 0]


def _stacked_sweep(m1, m2, omega_trap, kappas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``coupling_sweep``'s one pass; a failing check raises for the whole stack."""
    # the masses and the trap are shared, so checking the first coupling that
    # TwoBodyParams rejects (or the first one, when it rejects none) checks all
    bad = ~np.isfinite(kappas) | (kappas < 0.0) | ((kappas == 0.0) & (omega_trap == 0.0))
    params = TwoBodyParams(m1, m2, omega_trap, float(kappas[np.argmax(bad)]))
    sigma = _ground_state_sigmas(params, kappas)
    particles = _first_mode_entropies(sigma)
    return particles, _first_mode_entropies(_congruence(_scaled_to_com_rel(params), sigma))


def coupling_sweep(
    m1: float, m2: float, omega_trap: float, kappas
) -> tuple[np.ndarray, np.ndarray]:
    """Ground-state entropies (nats) along a sweep of the coupling, in one stacked pass.

    Returns ``(interparticle, internal_external)``, one float array each,
    entry i for ``TwoBodyParams(m1, m2, omega_trap, kappas[i])``: the
    entropy across the particle split and across the center-of-mass/
    relative split.  All ground states are built as one (N, 4, 4) stack.
    The stack is validated and diagonalized in one call, then cut by the
    function ``gaussian_entropy_across`` cuts one state with, which checks
    purity and its mode-0 marginals as one stack; its image in
    center-of-mass/relative coordinates goes the same way.  Every entry
    equals the per-state route (``ground_state_covariance``, then
    ``gaussian_entropy_across`` and ``internal_external_entropy``) bit for
    bit.  Memory grows linearly with the number of couplings.

    Raises
    ------
    ValueError
        Whatever the first failing coupling raises on its own, as a loop
        over the couplings would: its ``TwoBodyParams`` check, an
        overflowing frequency or covariance, an unbound system, or an
        ``InvalidCovarianceError``.  It is found by halving
        the sweep, about one more pass, then run alone.  An empty or
        multi-dimensional ``kappas`` is rejected.
    """
    kappas = np.array(kappas, dtype=float)
    if kappas.ndim != 1 or kappas.size == 0:
        raise ValueError(f"kappas must be a nonempty 1-D sequence, got shape {kappas.shape}")
    try:
        return _stacked_sweep(m1, m2, omega_trap, kappas)
    except ValueError:
        # a stack fails exactly when one of its couplings fails alone, so halving
        # [lo, hi) keeps the first failing one in it; that one alone names the error
        lo, hi = 0, kappas.size
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                _stacked_sweep(m1, m2, omega_trap, kappas[lo:mid])
                lo = mid
            except ValueError:
                hi = mid
        _stacked_sweep(m1, m2, omega_trap, kappas[lo:hi])
        raise


def interparticle_entanglement(params: TwoBodyParams) -> float:
    """Ground-state entanglement entropy (nats) across the particle split.

    A one-coupling ``coupling_sweep``; equal to ``gaussian_entropy_across(
    ground_state_covariance(params), (0,))`` bit for bit.
    """
    return float(coupling_sweep(params.m1, params.m2, params.omega_trap, [params.kappa])[0][0])


def internal_external_entropy(state: GaussianState, params: TwoBodyParams) -> float:
    """Entropy (nats) across the center-of-mass/relative split of a pure state.

    The state is expected in mass-scaled particle quadratures; it is
    moved to center-of-mass/relative coordinates by one closed-form map
    (``com_rel_transform`` after undoing the mass scaling) and cut between
    the two modes.
    """
    if state.n_modes != 2:
        raise ValueError(f"expected a two-mode state, got {state.n_modes}")
    return gaussian_entropy_across(apply_symplectic(state, _scaled_to_com_rel(params)), (0,))


def internal_external_entanglement(params: TwoBodyParams) -> float:
    """Ground-state entropy across the center-of-mass/relative split.

    Zero for this Hamiltonian family: a common-frequency trap separates in
    center-of-mass/relative coordinates for every mass pair.  A
    one-coupling ``coupling_sweep``; equal to ``internal_external_entropy(
    ground_state_covariance(params), params)`` bit for bit.
    """
    return float(coupling_sweep(params.m1, params.m2, params.omega_trap, [params.kappa])[1][0])


def evolve_gaussian(state: GaussianState, ham: QuadraticHamiltonian, t: float) -> GaussianState:
    """Evolve a Gaussian state under a quadratic Hamiltonian for time t.

    The flow is the symplectic map ``S_t = exp(t Omega M)``; covariance
    and mean transform as ``S_t sigma S_t^T`` and ``S_t mean``.
    Symplectic eigenvalues, and with them purity, are preserved.
    """
    # imported here: SciPy is the library's slowest import and nothing else uses it
    from scipy.linalg import expm
    if state.n_modes != ham.n_modes:
        raise ValueError(f"mode mismatch: {state.n_modes} != {ham.n_modes}")
    # Omega M = -(M^T Omega)^T, exact for any M
    return apply_symplectic(state, expm(t * -times_omega(ham.matrix.T).T))


def galilean_boost(state: GaussianState, velocity: float, params: TwoBodyParams) -> GaussianState:
    """Boost both particles by a common velocity.

    Adds ``m_i v`` to each particle's momentum mean (expressed in the
    module's scaled quadratures) and leaves the covariance untouched, so
    every entanglement quantity is exactly invariant.
    """
    if state.n_modes != 2:
        raise ValueError(f"expected a two-mode state, got {state.n_modes}")
    shift = np.zeros(4)
    shift[1::2] = np.array([params.m1, params.m2]) * velocity / _mass_scaling_diagonal(params)[0::2]
    return GaussianState(state.cov, state.mean + shift)
