"""Tests for the Gaussian covariance formalism.

The two-mode squeezed checks run against explicitly written 4x4 matrices,
and the entropy formula is cross-checked by building the same state in a
truncated number basis and pushing it through the finite-dimensional
Schmidt machinery, a path that shares no code with the covariance one.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, schur

import tpslab as tl
from tpslab import gaussian, twobody
from tpslab._checks import symplectic_defect, symplectic_inverse, times_omega, williamson_residual
from tpslab.gaussian import InvalidCovarianceError, _random_symplectic

OMEGA4 = np.array(
    [
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, -1, 0],
    ],
    dtype=float,
)


def tms_sigma(r: float) -> np.ndarray:
    """Two-mode squeezed covariance written out by hand."""
    c, s = np.cosh(2 * r), np.sinh(2 * r)
    return np.array(
        [
            [c, 0, s, 0],
            [0, c, 0, -s],
            [s, 0, c, 0],
            [0, -s, 0, c],
        ]
    )


def vacuum(n: int) -> tl.GaussianState:
    """The product vacuum: identity covariance, zero mean."""
    return tl.GaussianState(tl.CovarianceMatrix(n, np.eye(2 * n)), np.zeros(2 * n))


def gaussian_purity(cov: tl.CovarianceMatrix) -> float:
    """``Tr(rho^2) = prod 1 / nu`` from the spectrum the constructor kept."""
    return float(np.exp(-np.sum(np.log(cov.nu))))


def mode_rows(modes) -> np.ndarray:
    """The quadrature rows (x_i, p_i) of each listed mode, in order."""
    return np.array([2 * i + off for i in modes for off in (0, 1)])


def dense_omega(n: int) -> np.ndarray:
    """Oracle: Omega filled entry by entry."""
    omega = np.zeros((2 * n, 2 * n))
    for i in range(n):
        omega[2 * i, 2 * i + 1] = 1.0
        omega[2 * i + 1, 2 * i] = -1.0
    return omega


def dense_random_symplectic(n: int, seed, max_squeeze: float = 0.8) -> np.ndarray:
    """Oracle: ``_random_symplectic`` through the xxpp block form, an index gather and a dense Z."""
    rng = np.random.default_rng(seed)
    order = np.empty(2 * n, dtype=int)
    order[0::2] = np.arange(n)
    order[1::2] = np.arange(n) + n

    def orthogonal():
        u = tl.random_unitary(n, rng)
        xxpp = np.block([[u.real, -u.imag], [u.imag, u.real]])
        return xxpp[np.ix_(order, order)]

    o1 = orthogonal()
    o2 = orthogonal()
    r = rng.uniform(-max_squeeze, max_squeeze, n)
    z = np.diag(np.repeat(np.exp(r), 2) ** np.tile([1.0, -1.0], n))
    return o1 @ z @ o2


def tms_number_basis(r: float, cutoff: int) -> tl.PureState:
    """Two-mode squeezed state built from its generator in a truncated ladder.

    The squeezing generator acts within the |n, n> subspace, where it is the
    antisymmetric matrix K[n+1, n] = r (n+1); exponentiating it on the
    vacuum gives the state without using any closed-form amplitude.
    """
    ladder = np.zeros((cutoff, cutoff))
    for n in range(cutoff - 1):
        ladder[n + 1, n] = r * (n + 1)
        ladder[n, n + 1] = -r * (n + 1)
    weights = expm(ladder)[:, 0]
    psi = np.zeros(cutoff * cutoff, dtype=complex)
    psi[np.arange(cutoff) * cutoff + np.arange(cutoff)] = weights
    return tl.PureState(cutoff**2, psi / np.linalg.norm(psi))


class TestSymplecticForm:
    def test_squares_to_minus_identity(self):
        for n in (1, 2, 3):
            omega = tl.symplectic_form(n)
            np.testing.assert_allclose(omega @ omega, -np.eye(2 * n))

    def test_matches_hand_written_form(self):
        np.testing.assert_array_equal(tl.symplectic_form(2), OMEGA4)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_the_dense_oracle_bit_for_bit(self, n):
        omega = tl.symplectic_form(n)
        assert omega.tobytes() == dense_omega(n).tobytes()
        assert not omega.flags.writeable

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("seed", range(5))
    def test_symplectic_inverse_is_the_dense_product(self, n, seed):
        omega = dense_omega(n)
        s = _random_symplectic(n, seed, max_squeeze=2.0).matrix
        inv = symplectic_inverse(s)
        assert np.array_equal(inv, -omega @ s.T @ omega)
        np.testing.assert_allclose(inv @ s, np.eye(2 * n), atol=1e-12)
        # the identity holds for any matrix, symplectic or not
        m = np.random.default_rng(seed).standard_normal((2 * n, 2 * n))
        assert np.array_equal(symplectic_inverse(m), -omega @ m.T @ omega)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("max_squeeze", [0.8, 2.5])
    def test_random_symplectic_matches_the_block_oracle(self, n, seed, max_squeeze):
        s = _random_symplectic(n, seed, max_squeeze).matrix
        assert np.array_equal(s, dense_random_symplectic(n, seed, max_squeeze))

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("seed", range(5))
    def test_omega_times_any_matrix(self, n, seed):
        # evolve_gaussian's Omega M, exact also for a matrix that is not symmetric
        m = np.random.default_rng(seed).standard_normal((2 * n, 2 * n))
        assert np.array_equal(-times_omega(m.T).T, dense_omega(n) @ m)


class TestValidation:
    def test_symplectic_matrix_rejects_non_symplectic(self):
        with pytest.raises(ValueError, match="symplectic"):
            tl.SymplecticMatrix(1, np.diag([2.0, 2.0]))

    def test_covariance_rejects_asymmetric(self):
        sigma = np.eye(2)
        sigma[0, 1] = 1e-6
        with pytest.raises(InvalidCovarianceError, match="symmetric"):
            tl.CovarianceMatrix(1, sigma)

    def test_covariance_rejects_uncertainty_violation(self):
        with pytest.raises(InvalidCovarianceError, match="uncertainty"):
            tl.CovarianceMatrix(1, 0.5 * np.eye(2))

    def test_symplectic_matrix_keeps_the_defect_it_checked(self):
        # the williamson command prints this value in place of a second measurement
        s_random = _random_symplectic(3, 5)
        s_williamson = tl.williamson(tl.random_covariance(4, 2))[0]
        for s in (s_random, s_williamson):
            assert type(s.defect) is float
            assert s.defect == float(symplectic_defect(s.matrix))
            omega = dense_omega(s.n_modes)
            assert s.defect == pytest.approx(np.linalg.norm(s.matrix.T @ omega @ s.matrix - omega))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_symplectic_matrix_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            tl.SymplecticMatrix(1, np.array([[1.0, bad], [0.0, 1.0]]))

    @pytest.mark.parametrize("sigma", [np.eye(3), np.eye(4)[:, :2], np.eye(2)])
    def test_covariance_rejects_a_wrong_shape(self, sigma):
        message = r"^expected covariance matrix of shape \(4, 4\), got "
        with pytest.raises(InvalidCovarianceError, match=message):
            tl.CovarianceMatrix(2, sigma)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_covariance_rejects_non_finite(self, bad):
        with pytest.raises(InvalidCovarianceError, match="finite"):
            tl.CovarianceMatrix(1, np.array([[1.0, 0.0], [0.0, bad]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_mean_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            tl.GaussianState(tl.CovarianceMatrix(1, np.eye(2)), np.array([0.0, bad]))

    def test_random_covariances_always_valid(self):
        for seed in range(10):
            cov = tl.random_covariance(3, seed)
            assert cov.nu[-1] >= 1 - 1e-8


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        cov = tl.CovarianceMatrix(3, np.eye(6))
        np.testing.assert_allclose(cov.nu, np.ones(3))

    def test_pure_squeezed_single_mode(self):
        for a in (0.3, 1.0, 4.2):
            cov = tl.CovarianceMatrix(1, np.diag([a, 1 / a]))
            np.testing.assert_allclose(cov.nu, [1.0], atol=1e-12)

    def test_two_mode_squeezed_against_explicit_matrix(self):
        sigma = tms_sigma(0.7)
        oracle = np.abs(np.linalg.eigvals(1j * OMEGA4 @ sigma))
        oracle = np.sort(oracle)[::-1][::2]
        nu = tl.CovarianceMatrix(2, sigma).nu
        np.testing.assert_allclose(nu, oracle, atol=1e-12)
        np.testing.assert_allclose(nu, [1.0, 1.0], atol=1e-10)

    def test_descending_order(self):
        cov = tl.random_covariance(4, 17)
        nu = cov.nu
        assert np.all(np.diff(nu) <= 1e-12)

    def test_invariance_under_random_symplectic(self):
        for seed in range(8):
            cov = tl.random_covariance(3, seed)
            s = _random_symplectic(3, 100 + seed).matrix
            moved = tl.CovarianceMatrix(3, s @ cov.sigma @ s.T)
            np.testing.assert_allclose(moved.nu, cov.nu, atol=1e-9)


class TestWilliamson:
    def test_vacuum_reconstruction(self):
        cov = tl.CovarianceMatrix(2, np.eye(4))
        s, nu = tl.williamson(cov)
        np.testing.assert_allclose(nu, [1.0, 1.0])
        np.testing.assert_allclose(s.matrix @ cov.sigma @ s.matrix.T, np.eye(4), atol=1e-10)

    def test_single_mode_squeezer(self):
        r = 0.9
        cov = tl.CovarianceMatrix(1, np.diag([np.exp(2 * r), np.exp(-2 * r)]))
        s, nu = tl.williamson(cov)
        np.testing.assert_allclose(nu, [1.0], atol=1e-12)
        np.testing.assert_allclose(s.matrix @ cov.sigma @ s.matrix.T, np.eye(2), atol=1e-10)

    def test_random_covariances_reconstruct(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            cov = tl.random_covariance(n, rng)
            s, nu = tl.williamson(cov)
            normal_form = np.diag(np.repeat(nu, 2))
            residual = np.linalg.norm(s.matrix @ cov.sigma @ s.matrix.T - normal_form)
            assert residual / np.linalg.norm(cov.sigma) < 1e-8
            omega = tl.symplectic_form(n)
            assert np.linalg.norm(s.matrix.T @ omega @ s.matrix - omega) < 1e-10

    @pytest.mark.parametrize("n", [1, 6, 200])
    def test_residual_matches_the_dense_difference(self, n):
        # nu is taken off the diagonal in place; the dense diag(nu) gives the same bits
        cov = tl.random_covariance(n, 40 + n)
        s, nu = tl.williamson(cov)
        dense = s.matrix @ cov.sigma @ s.matrix.T - np.diag(np.repeat(nu, 2))
        want = np.linalg.norm(dense) / np.linalg.norm(cov.sigma)
        assert williamson_residual(s.matrix, cov.sigma, nu) == want

    def test_recovers_generator_spectrum(self):
        # the random covariance is built as S diag(nu) S^T, so the intended
        # spectrum is known exactly and doubles as the oracle
        rng = np.random.default_rng(4)
        for _ in range(10):
            s = _random_symplectic(2, rng).matrix
            planted = np.sort(rng.uniform(1.0, 2.5, 2))[::-1]
            sigma = s @ np.diag(np.repeat(planted, 2)) @ s.T
            cov = tl.CovarianceMatrix(2, 0.5 * (sigma + sigma.T))
            _, nu = tl.williamson(cov)
            np.testing.assert_allclose(nu, planted, atol=1e-9)

    def test_degenerate_spectrum_reconstructs(self):
        s = _random_symplectic(2, 55).matrix
        sigma = s @ (1.5 * np.eye(4)) @ s.T
        cov = tl.CovarianceMatrix(2, 0.5 * (sigma + sigma.T))
        smat, nu = tl.williamson(cov)
        np.testing.assert_allclose(nu, [1.5, 1.5], atol=1e-9)
        np.testing.assert_allclose(
            smat.matrix @ cov.sigma @ smat.matrix.T, 1.5 * np.eye(4), atol=1e-8
        )

    @pytest.mark.parametrize(
        "tol_name, message",
        [("SYMPLECTIC_TOL", "not symplectic"), ("WILLIAMSON_RESIDUAL_TOL", "residual")],
    )
    def test_failed_check_raises_williamson_error(self, monkeypatch, tol_name, message):
        # with a zero tolerance the roundoff of any real decomposition fails
        # the check; the symplecticity check is SymplecticMatrix's own
        cov = tl.random_covariance(3, 12)
        monkeypatch.setattr(gaussian, tol_name, 0.0)
        with pytest.raises(tl.WilliamsonError, match=message):
            tl.williamson(cov)

    def test_returns_the_kept_spectrum(self):
        # one state reports one spectrum: the constructor's, bit for bit, as a fresh copy
        cov = tl.random_covariance(200, 3)
        s, nu = tl.williamson(cov)
        np.testing.assert_array_equal(nu, cov.nu)
        assert nu.flags.writeable and not np.shares_memory(nu, cov.nu)
        normal = s.matrix @ cov.sigma @ s.matrix.T
        np.testing.assert_allclose(np.diag(normal), np.repeat(cov.nu, 2), rtol=1e-10)


class TestPurity:
    """The purity ``gaussian_purity`` above reads off the kept spectrum, against det sigma."""

    def test_vacuum_is_pure(self):
        cov = tl.CovarianceMatrix(2, np.eye(4))
        assert tl.is_pure(cov)
        assert abs(gaussian_purity(cov) - 1.0) < 1e-12

    def test_thermal_mode_purity(self):
        nu = 1.7
        cov = tl.CovarianceMatrix(1, nu * np.eye(2))
        assert not tl.is_pure(cov)
        assert abs(gaussian_purity(cov) - 1 / nu) < 1e-12

    def test_two_mode_squeezed_is_pure(self):
        sigma = tms_sigma(1.0)
        det = np.linalg.det(sigma)
        assert abs(det - 1.0) < 1e-8
        assert abs(gaussian_purity(tl.CovarianceMatrix(2, sigma)) - 1.0) < 1e-10

    def test_purity_is_product_of_inverse_eigenvalues(self):
        for seed in range(8):
            cov = tl.random_covariance(3, seed)
            nu = cov.nu
            assert abs(gaussian_purity(cov) - np.prod(1.0 / nu)) < 1e-9

    @pytest.mark.parametrize("n_modes", [1, 3, 200])
    @pytest.mark.parametrize("pure", [True, False])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_slogdet_oracle(self, n_modes, pure, seed):
        # 1/sqrt(det sigma) through an LU log-determinant, apart from the kept spectrum
        cov = tl.random_covariance(n_modes, seed, pure=pure)
        sign, logdet = np.linalg.slogdet(cov.sigma)
        assert sign > 0.0
        oracle = np.exp(-0.5 * logdet)
        assert abs(gaussian_purity(cov) - oracle) <= 1e-12 * oracle


class TestReduceModes:
    """The marginal ``gaussian_entropy_across`` reads: the listed modes' rows and columns."""

    def test_product_vacuum_marginal(self):
        # a two-mode squeezed pair on modes 0 and 2, vacuum on mode 1
        sigma = np.eye(6)
        sigma[np.ix_(mode_rows([0, 2]), mode_rows([0, 2]))] = tms_sigma(0.8)
        state = tl.GaussianState(tl.CovarianceMatrix(3, sigma), np.zeros(6))
        assert tl.gaussian_entropy_across(state, [1]) < 1e-15
        thermal = tl.thermal_entropy(np.cosh(1.6))
        for side in ([0], [2], [0, 1], [1, 2], [2, 1]):
            assert abs(tl.gaussian_entropy_across(state, side) - thermal) < 1e-12

    def test_two_mode_squeezed_marginal_is_thermal(self):
        r = 0.8
        for side in ([0], [1]):
            entropy = tl.gaussian_entropy_across(tl.two_mode_squeezed(r), side)
            assert abs(entropy - tl.thermal_entropy(np.cosh(2 * r))) < 1e-12

    def test_invalid_indices(self):
        refused = {
            (): "^bipartition must be a proper nonempty subset of the modes$",
            (3,): r"^mode indices \[3\] out of range for 3 modes$",
            # a negative index must not wrap round to the last mode
            (-1,): r"^mode indices \[-1\] out of range for 3 modes$",
            (0, -1): r"^mode indices \[-1, 0\] out of range for 3 modes$",
        }
        for side, message in refused.items():
            with pytest.raises(ValueError, match=message):
                tl.gaussian_entropy_across(vacuum(3), side)

    @pytest.mark.parametrize("bad", [0.7, 1.0, "0", None])
    def test_non_integer_index_is_rejected(self, bad):
        # a fractional index used to be truncated, silently keeping mode 0
        with pytest.raises(ValueError, match="integers"):
            tl.gaussian_entropy_across(tl.two_mode_squeezed(0.5), [bad])

    def test_numpy_integer_index_is_accepted(self):
        state = tl.GaussianState(tl.random_covariance(3, 4, pure=True), np.zeros(6))
        for side in ([0], [2], [0, 2]):
            expected = tl.gaussian_entropy_across(state, side)
            assert tl.gaussian_entropy_across(state, np.array(side)) == expected
            assert tl.gaussian_entropy_across(state, [np.int64(i) for i in side]) == expected

    def test_local_symplectic_keeps_the_entropy_at_200_modes(self):
        # side A is the even modes, not a leading block; S_A (+) S_B acts within each side
        n = 200
        state = tl.GaussianState(tl.random_covariance(n, 21, pure=True), np.zeros(2 * n))
        sides = [list(range(0, n, 2)), list(range(1, n, 2))]
        local = np.zeros((2 * n, 2 * n))
        for side, seed in zip(sides, (22, 23)):
            local[np.ix_(mode_rows(side), mode_rows(side))] = _random_symplectic(n // 2, seed).matrix
        before = tl.gaussian_entropy_across(state, sides[0])
        after = tl.gaussian_entropy_across(tl.apply_symplectic(state, local), sides[0])
        assert before > 1.0
        assert abs(after - before) <= 1e-12 * before


class TestEntropyAcross:
    def test_product_vacuum_zero(self):
        assert tl.gaussian_entropy_across(vacuum(2), [0]) == 0.0

    def test_unsqueezed_zero(self):
        assert tl.gaussian_entropy_across(tl.two_mode_squeezed(0.0), [0]) < 1e-12

    def test_two_mode_squeezed_closed_form(self):
        r = 1.0
        entropy = tl.gaussian_entropy_across(tl.two_mode_squeezed(r), [0])
        c2, s2 = np.cosh(r) ** 2, np.sinh(r) ** 2
        closed = c2 * np.log(c2) - s2 * np.log(s2)
        assert abs(entropy - closed) < 1e-10
        assert abs(entropy - tl.thermal_entropy(np.cosh(2 * r))) < 1e-12

    @pytest.mark.parametrize("r", [0.3, 1.0])
    def test_cross_oracle_truncated_number_basis(self, r):
        cutoff = 60
        psi = tms_number_basis(r, cutoff)
        frame = tl.TpsFrame.identity(tl.Factorization(cutoff**2, (cutoff, cutoff)))
        discrete = tl.entanglement_entropy(psi, frame)
        continuous = tl.gaussian_entropy_across(tl.two_mode_squeezed(r), [0])
        assert abs(discrete - continuous) < 1e-6

    def test_mixed_state_raises_towards_log_negativity(self):
        mixed = tl.GaussianState(tl.CovarianceMatrix(2, 1.5 * np.eye(4)), np.zeros(4))
        with pytest.raises(ValueError, match="log_negativity"):
            tl.gaussian_entropy_across(mixed, [0])

    def test_bad_partition(self):
        with pytest.raises(ValueError, match="bipartition"):
            tl.gaussian_entropy_across(vacuum(2), [0, 1])


def scalar_thermal_entropy(nu: float) -> float:
    """Oracle: one mode's entropy by the scalar branch and formula, a Python float."""
    if nu <= 1.0:
        return 0.0
    plus = 0.5 * (nu + 1.0)
    minus = 0.5 * (nu - 1.0)
    return float(plus * np.log(plus) - minus * np.log(minus))


# nu = 1, below 1, the doubles next to 1, ordinary values, the largest magnitudes, NaN and inf
THERMAL_EDGES = [1.0, 0.5, 0.0, -2.0, 1.0 + 1e-16, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0),
                 1.5, np.cosh(2.0), 1e300, 1.7e308, np.nan, np.inf, -np.inf]


class TestThermalEntropyArrays:
    @pytest.mark.parametrize("shape", [(14,), (2, 7), (7, 1, 2)])
    def test_elementwise_equals_the_scalar_rule_bit_for_bit(self, shape):
        values = np.array(THERMAL_EDGES).reshape(shape)
        with np.errstate(over="ignore", invalid="ignore"):  # the formula's inf - inf, either way
            got = tl.thermal_entropy(values)
            want = np.array([scalar_thermal_entropy(nu) for nu in values.ravel().tolist()])
        assert got.shape == shape
        assert got.tobytes() == want.reshape(shape).tobytes()

    def test_long_array_equals_the_scalar_rule_bit_for_bit(self):
        # long enough for NumPy's vectorized log loops, up to where the formula would overflow
        values = 10.0 ** np.random.default_rng(8).uniform(-1.0, 305.0, 4001)
        want = np.array([scalar_thermal_entropy(nu) for nu in values.tolist()])
        assert tl.thermal_entropy(values).tobytes() == want.tobytes()

    @pytest.mark.parametrize("nu", [1.0, 0.5, 2.0, 3, np.float64(2.0), np.array(2.0), np.nan])
    def test_a_scalar_gives_a_float(self, nu):
        got = tl.thermal_entropy(nu)
        assert type(got) is float
        assert np.array(got).tobytes() == np.array(scalar_thermal_entropy(float(nu))).tobytes()


class TestLogNegativity:
    def test_vacuum_zero(self):
        assert tl.log_negativity_two_mode(vacuum(2)) == 0.0

    @pytest.mark.parametrize("r", [0.2, 0.7, 1.3])
    def test_two_mode_squeezed_is_2r(self, r):
        # oracle: flip p2 by hand and take the explicit spectrum
        flip = np.diag([1.0, 1.0, 1.0, -1.0])
        transposed = flip @ tms_sigma(r) @ flip
        moduli = np.sort(np.abs(np.linalg.eigvals(1j * OMEGA4 @ transposed)))
        assert abs(moduli[0] - np.exp(-2 * r)) < 1e-10
        value = tl.log_negativity_two_mode(tl.two_mode_squeezed(r))
        assert abs(value - 2 * r) < 1e-10

    @pytest.mark.parametrize(
        "state",
        [tl.two_mode_squeezed(r) for r in (0.0, 0.2, 0.7, 1.3, 3.0)]
        + [
            tl.GaussianState(tl.random_covariance(2, seed, pure=seed % 2 == 0), np.zeros(4))
            for seed in range(8)
        ],
    )
    def test_sign_flip_matches_the_dense_flip(self, monkeypatch, state):
        seen = []

        def spectrum(sigma):
            seen.append(sigma)
            return spectrum_of(sigma)

        spectrum_of = gaussian._spectrum_of
        monkeypatch.setattr(gaussian, "_spectrum_of", spectrum)
        value = tl.log_negativity_two_mode(state)
        flip = np.diag([1.0, 1.0, 1.0, -1.0])
        transposed = flip @ state.cov.sigma @ flip
        assert len(seen) == 1 and np.array_equal(seen[0], transposed)
        nu_minus = spectrum_of(transposed)[-1]
        separable = nu_minus >= 1.0 - gaussian.SEPARABLE_NU_GUARD
        assert value == (0.0 if separable else float(-np.log(nu_minus)))

    def test_thermal_product_zero(self):
        sigma = np.diag([1.3, 1.3, 2.0, 2.0])
        state = tl.GaussianState(tl.CovarianceMatrix(2, sigma), np.zeros(4))
        assert tl.log_negativity_two_mode(state) == 0.0

    def test_wrong_mode_count(self):
        with pytest.raises(ValueError, match="two modes"):
            tl.log_negativity_two_mode(vacuum(3))


class TestModeSeparation:
    def test_two_mode_squeezed_becomes_separable(self):
        state = tl.two_mode_squeezed(1.0)
        _, moved = tl.mode_separating_transform(state)
        off = moved.cov.sigma[:2, 2:]
        assert np.abs(off).max() < 1e-8
        assert tl.gaussian_entropy_across(moved, [0]) < 1e-8
        assert tl.log_negativity_two_mode(moved) == 0.0

    def test_already_diagonal_state(self):
        state = tl.GaussianState(tl.CovarianceMatrix(2, np.diag([2, 2, 1.2, 1.2])), np.zeros(4))
        s, moved = tl.mode_separating_transform(state)
        normal_form = np.diag(np.repeat(state.cov.nu, 2))
        assert np.linalg.norm(moved.cov.sigma - normal_form) < 1e-8

    def test_random_mixed_two_mode_state(self):
        for seed in range(6):
            cov = tl.random_covariance(2, seed)
            state = tl.GaussianState(cov, np.zeros(4))
            _, moved = tl.mode_separating_transform(state)
            assert np.abs(moved.cov.sigma[:2, 2:]).max() < 1e-8
            assert tl.log_negativity_two_mode(moved) == 0.0

    def test_mean_transforms_along(self):
        state = tl.GaussianState(tl.two_mode_squeezed(0.6).cov, np.array([1.0, 0.0, -2.0, 0.5]))
        s, moved = tl.mode_separating_transform(state)
        np.testing.assert_allclose(moved.mean, s.matrix @ state.mean)


class TestApplySymplectic:
    def test_matches_explicit_congruence(self):
        state = tl.GaussianState(tl.random_covariance(3, 4), np.arange(6.0))
        s = _random_symplectic(3, 5).matrix
        out = tl.apply_symplectic(state, s)
        sigma = s @ state.cov.sigma @ s.T
        np.testing.assert_array_equal(out.cov.sigma, 0.5 * (sigma + sigma.T))
        np.testing.assert_array_equal(out.mean, s @ state.mean)

    def test_keeps_symplectic_spectrum(self):
        for seed in range(5):
            cov = tl.random_covariance(2, seed)
            s = _random_symplectic(2, seed + 50).matrix
            out = tl.apply_symplectic(tl.GaussianState(cov, np.zeros(4)), s)
            np.testing.assert_allclose(out.cov.nu, cov.nu, atol=1e-9)

    def test_output_is_symmetric(self):
        state = tl.GaussianState(tl.random_covariance(2, 1), np.zeros(4))
        out = tl.apply_symplectic(state, _random_symplectic(2, 2).matrix)
        np.testing.assert_array_equal(out.cov.sigma, out.cov.sigma.T)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="4x4"):
            tl.apply_symplectic(tl.two_mode_squeezed(0.3), np.eye(2))


class TestDisplacementInvariance:
    def test_measures_ignore_the_mean(self):
        cov = tl.two_mode_squeezed(0.9).cov
        displaced = tl.GaussianState(cov, np.array([3.0, -1.0, 0.2, 5.0]))
        centered = tl.GaussianState(cov, np.zeros(4))
        assert tl.gaussian_entropy_across(displaced, [0]) == tl.gaussian_entropy_across(
            centered, [0]
        )
        assert tl.log_negativity_two_mode(displaced) == tl.log_negativity_two_mode(centered)


def eigvals_spectrum(sigma: np.ndarray) -> np.ndarray:
    """Symplectic spectrum as the moduli of the non-Hermitian eigvals of i Omega sigma.

    The 2n moduli come in equal pairs; every other one, descending, is the
    spectrum.  No Cholesky factor and no Hermitian solver is involved, so
    it shares nothing with the library's route.
    """
    omega = tl.symplectic_form(sigma.shape[0] // 2)
    return np.sort(np.abs(np.linalg.eigvals(1j * omega @ sigma)))[::-1][::2]


@pytest.fixture
def spectrum_calls(monkeypatch):
    """Counts the symplectic diagonalizations made through gaussian._spectrum_of."""
    calls = []
    original = gaussian._spectrum_of

    def counted(sigma):
        calls.append(sigma.shape[0] // 2)
        return original(sigma)

    monkeypatch.setattr(gaussian, "_spectrum_of", counted)
    return calls


class TestSpectrumKeptOnce:
    def test_reading_the_spectrum_diagonalizes_nothing(self, spectrum_calls):
        cov = tl.random_covariance(3, 9)
        spectrum_calls.clear()
        cov.nu
        tl.is_pure(cov)
        assert spectrum_calls == []

    def test_entropy_across_diagonalizes_only_the_marginal(self, spectrum_calls):
        state = tl.GaussianState(tl.random_covariance(4, 3, pure=True), np.zeros(8))
        spectrum_calls.clear()
        tl.gaussian_entropy_across(state, [0, 2])
        assert spectrum_calls == [2]

    def test_one_sweep_kappa_costs_four_spectra(self, spectrum_calls):
        params = tl.TwoBodyParams(1.0, 3.0, 1.0, 0.7)
        state = twobody.ground_state_covariance(params)
        tl.gaussian_entropy_across(state, (0,))
        twobody.internal_external_entropy(state, params)
        assert len(spectrum_calls) == 4

    def test_nu_is_read_only(self):
        cov = tl.two_mode_squeezed(0.4).cov
        assert not cov.nu.flags.writeable
        with pytest.raises(ValueError):
            cov.nu[0] = 2.0

    def test_replace_carries_the_new_spectrum(self):
        cov = tl.random_covariance(2, 6)
        doubled = dataclasses.replace(cov, sigma=2.0 * cov.sigma)
        np.testing.assert_array_equal(doubled.nu, gaussian._spectrum_of(doubled.sigma))
        np.testing.assert_allclose(doubled.nu, 2.0 * cov.nu, rtol=1e-12)

    def test_replace_still_validates(self):
        cov = tl.random_covariance(2, 6)
        with pytest.raises(InvalidCovarianceError, match="uncertainty"):
            dataclasses.replace(cov, sigma=0.25 * cov.sigma)

    def test_two_hundred_modes_match_hermitian_oracle(self):
        # the kept (Hermitian-route) spectrum against the independent eigvals oracle
        cov = tl.random_covariance(200, 11, max_squeeze=1.5)
        np.testing.assert_allclose(cov.nu, eigvals_spectrum(cov.sigma), rtol=1e-12, atol=0)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    kind=st.sampled_from(["pure", "mixed", "near-degenerate", "near-pure"]),
    max_squeeze=st.floats(min_value=0.0, max_value=1.5),
    gap_exponent=st.floats(min_value=-9.0, max_value=-3.0),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_kept_spectrum_matches_hermitian_oracle(n, kind, max_squeeze, gap_exponent, seed):
    """cov.nu, kept from the Hermitian route, agrees with the independent eigvals oracle
    to 1e-12 relative, degenerate spectra included."""
    rng = np.random.default_rng(seed)
    s = _random_symplectic(n, rng, max_squeeze).matrix
    steps = 10.0**gap_exponent * np.arange(n)
    planted = {
        "pure": np.ones(n),
        "mixed": rng.uniform(1.0, 3.0, n),
        "near-degenerate": rng.uniform(1.0, 3.0) + steps,
        "near-pure": 1.0 + steps,
    }[kind]
    sigma = s @ np.diag(np.repeat(planted, 2)) @ s.T
    cov = tl.CovarianceMatrix(n, 0.5 * (sigma + sigma.T))
    np.testing.assert_allclose(cov.nu, eigvals_spectrum(cov.sigma), rtol=1e-12, atol=0)


def schur_williamson(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Williamson transform from the real Schur form of sigma^(-1/2) Omega sigma^(-1/2).

    The Schur form of that antisymmetric matrix is block diagonal in
    [[0, mu], [-mu, 0]] with nu = 1/|mu|; a block with mu < 0 takes its two
    columns swapped, and blocks are ordered by descending nu.
    """
    evals, evecs = np.linalg.eigh(sigma)
    inv_sqrt = evecs @ np.diag(evals**-0.5) @ evecs.T
    skew = inv_sqrt @ tl.symplectic_form(sigma.shape[0] // 2) @ inv_sqrt
    t, k = schur(0.5 * (skew - skew.T))
    entry = np.diagonal(t, 1)[::2]
    nu = 1.0 / np.abs(entry)
    order = np.argsort(-nu, kind="stable")
    columns = 2 * order[:, None] + np.where(entry[order, None] < 0.0, [1, 0], [0, 1])
    k = k[:, columns.ravel()]
    nu = nu[order]
    return np.sqrt(np.repeat(nu, 2))[:, None] * (k.T @ inv_sqrt), nu


def williamson_errors(s: np.ndarray, sigma: np.ndarray, nu: np.ndarray) -> tuple[float, float]:
    """Relative reconstruction residual and symplectic defect, as the CLI reports them."""
    omega = tl.symplectic_form(sigma.shape[0] // 2)
    residual = np.linalg.norm(s @ sigma @ s.T - np.diag(np.repeat(nu, 2))) / np.linalg.norm(sigma)
    return residual, np.linalg.norm(s.T @ omega @ s - omega)


@st.composite
def planted_covariances(draw, kinds=("pure", "mixed", "near-degenerate", "near-pure")):
    """Covariance S diag(nu) S^T with a planted spectrum and squeezing <= 1.5."""
    n = draw(st.integers(min_value=1, max_value=6))
    kind = draw(st.sampled_from(kinds))
    max_squeeze = draw(st.floats(min_value=0.0, max_value=1.5))
    steps = 10.0 ** draw(st.floats(min_value=-9.0, max_value=-3.0)) * np.arange(n)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=10**6)))
    s = _random_symplectic(n, rng, max_squeeze).matrix
    planted = {
        "pure": np.ones(n),
        "mixed": rng.uniform(1.0, 3.0, n),
        "near-degenerate": rng.uniform(1.0, 3.0) + steps,
        "near-pure": 1.0 + steps,
        # gaps of at least 0.2, so each mode of the normal form is fixed up
        # to a rotation within it
        "separated": 1.0 + 0.2 * np.arange(1, n + 1) + rng.uniform(0.0, 0.1, n),
    }[kind]
    sigma = s @ np.diag(np.repeat(planted, 2)) @ s.T
    return tl.CovarianceMatrix(n, 0.5 * (sigma + sigma.T))


class TestHermitianCore:
    """The Cholesky-based spectrum and Williamson transform against the older routes."""

    @settings(max_examples=80, deadline=None)
    @given(cov=planted_covariances())
    def test_spectrum_matches_eigvals_oracle(self, cov):
        np.testing.assert_allclose(cov.nu, eigvals_spectrum(cov.sigma), rtol=1e-12, atol=0)

    @settings(max_examples=80, deadline=None)
    @given(cov=planted_covariances())
    def test_williamson_matches_schur_oracle(self, cov):
        s, nu = tl.williamson(cov)
        _, nu_schur = schur_williamson(cov.sigma)
        np.testing.assert_allclose(nu, nu_schur, rtol=1e-12, atol=0)
        residual, defect = williamson_errors(s.matrix, cov.sigma, nu)
        assert residual <= 1e-12
        assert defect <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(cov=planted_covariances(kinds=("separated",)))
    def test_transform_differs_from_schur_by_mode_rotations(self, cov):
        # two diagonalizers of a non-degenerate spectrum differ by a
        # rotation within each mode: S_new S_old^-1 is block-diagonal orthogonal
        s, _ = tl.williamson(cov)
        s_old, _ = schur_williamson(cov.sigma)
        omega = tl.symplectic_form(cov.n_modes)
        relative = s.matrix @ (-omega @ s_old.T @ omega)
        blocks = np.kron(np.eye(cov.n_modes), np.ones((2, 2))).astype(bool)
        assert np.abs(relative[~blocks]).max(initial=0.0) <= 1e-9
        for i in range(cov.n_modes):
            block = relative[2 * i : 2 * i + 2, 2 * i : 2 * i + 2]
            np.testing.assert_allclose(block @ block.T, np.eye(2), atol=1e-9)

    def test_two_hundred_modes(self):
        cov = tl.random_covariance(200, 21, max_squeeze=1.5)
        np.testing.assert_allclose(cov.nu, eigvals_spectrum(cov.sigma), rtol=1e-12, atol=0)
        s, nu = tl.williamson(cov)
        np.testing.assert_allclose(nu, schur_williamson(cov.sigma)[1], rtol=1e-12, atol=0)
        residual, defect = williamson_errors(s.matrix, cov.sigma, nu)
        assert residual <= 1e-12
        assert defect <= 1e-10

    @pytest.mark.parametrize(
        "diagonal", [[-1.0, -1.0], [1.0, -1.0], [2.0, -3.0, 1.0, 1.0]], ids=str
    )
    def test_rejects_matrices_that_are_not_positive_definite(self, diagonal):
        # the moduli of a non-Hermitian spectrum are blind to these signs
        with pytest.raises(InvalidCovarianceError, match="not positive definite"):
            tl.CovarianceMatrix(len(diagonal) // 2, np.diag(diagonal))


class TestStackedValidation:
    """The constructor's checks and spectrum applied to a stack (..., 2n, 2n) at once."""

    @pytest.mark.parametrize("n_modes", [1, 2, 5])
    def test_stacked_spectrum_equals_per_matrix_calls(self, n_modes):
        stack = np.stack(
            [tl.random_covariance(n_modes, seed, pure=seed % 2 == 0).sigma for seed in range(12)]
        )
        stacked = gaussian._spectrum_of(stack)
        assert stacked.shape == (12, n_modes)
        for row, sigma in zip(stacked, stack):
            np.testing.assert_array_equal(row, gaussian._spectrum_of(sigma))
        nested = gaussian._spectrum_of(stack.reshape((3, 4) + stack.shape[1:]))
        np.testing.assert_array_equal(nested.reshape(stacked.shape), stacked)

    def test_stacked_validation_keeps_the_constructor_spectra(self):
        stack = np.stack([tl.random_covariance(2, seed).sigma for seed in range(6)])
        spectra = gaussian._validated_spectra(stack)
        for row, sigma in zip(spectra, stack):
            np.testing.assert_array_equal(row, tl.CovarianceMatrix(2, sigma).nu)

    @pytest.mark.parametrize(
        "bad",
        [
            np.diag([1.0, np.nan, 1.0, 1.0]),
            np.eye(4) + 1e-9 * np.eye(4, k=1),
            np.diag([-1.0, -1.0, 1.0, 1.0]),
            0.5 * np.eye(4),
        ],
        ids=["non-finite", "asymmetric", "not-positive-definite", "below-bound"],
    )
    @pytest.mark.parametrize("position", [0, 3, 6])
    def test_one_bad_member_raises_as_it_would_alone(self, bad, position):
        members = [tl.random_covariance(2, seed).sigma for seed in range(6)]
        members.insert(position, bad)
        with pytest.raises(InvalidCovarianceError) as alone:
            tl.CovarianceMatrix(2, bad)
        with pytest.raises(InvalidCovarianceError) as stacked:
            gaussian._validated_spectra(np.stack(members))
        assert type(stacked.value) is type(alone.value)
        assert str(stacked.value) == str(alone.value)
