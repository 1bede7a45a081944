"""Tests for the coupled two-body oscillator module."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import tpslab as tl
from tpslab import cli, gaussian, twobody
from tpslab.gaussian import thermal_entropy

EQUAL = tl.TwoBodyParams(1.0, 1.0, 1.0, 1.0)


def vacuum(n: int) -> tl.GaussianState:
    """The product vacuum: identity covariance, zero mean."""
    return tl.GaussianState(tl.CovarianceMatrix(n, np.eye(2 * n)), np.zeros(2 * n))


def mass_scaling(params: tl.TwoBodyParams) -> np.ndarray:
    """Oracle: ``diag(sqrt(m w), 1 / sqrt(m w))`` per particle, w the reference frequency."""
    roots = [np.sqrt(m * params.reference_frequency) for m in (params.m1, params.m2)]
    return np.diag([roots[0], 1.0 / roots[0], roots[1], 1.0 / roots[1]])


def random_params(rng, equal_masses=False) -> tl.TwoBodyParams:
    m1 = float(rng.uniform(0.5, 3.0))
    m2 = m1 if equal_masses else float(rng.uniform(0.5, 3.0))
    return tl.TwoBodyParams(m1, m2, float(rng.uniform(0.3, 2.5)), float(rng.uniform(0.0, 3.0)))


class TestParams:
    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError, match="masses"):
            tl.TwoBodyParams(0.0, 1.0, 1.0, 1.0)

    def test_rejects_fully_free_system(self):
        with pytest.raises(ValueError, match="bound"):
            tl.TwoBodyParams(1.0, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("field", range(4))
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, field, bad):
        values = [1.0, 1.0, 1.0, 1.0]
        values[field] = bad
        with pytest.raises(ValueError, match="finite"):
            tl.TwoBodyParams(*values)

    def test_quadratic_hamiltonian_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            tl.QuadraticHamiltonian(1, np.array([[1.0, 0.0], [0.0, np.nan]]))

    def test_reduced_mass(self):
        assert abs(tl.TwoBodyParams(2.0, 1.0, 1.0, 0.0).reduced_mass - 2.0 / 3.0) < 1e-15


class TestComRelTransform:
    def test_equal_mass_entries(self):
        s = tl.com_rel_transform(1.0, 1.0).matrix
        expected = np.array(
            [
                [0.5, 0.0, 0.5, 0.0],
                [0.0, 1.0, 0.0, 1.0],
                [1.0, 0.0, -1.0, 0.0],
                [0.0, 0.5, 0.0, -0.5],
            ]
        )
        np.testing.assert_array_equal(s, expected)

    def test_unequal_mass_com_row(self):
        s = tl.com_rel_transform(2.0, 1.0).matrix
        np.testing.assert_allclose(s[0], [2.0 / 3.0, 0.0, 1.0 / 3.0, 0.0])

    def test_symplectic_for_random_masses(self):
        rng = np.random.default_rng(1)
        omega = tl.symplectic_form(2)
        for _ in range(10):
            s = tl.com_rel_transform(float(rng.uniform(0.1, 9)), float(rng.uniform(0.1, 9))).matrix
            assert np.linalg.norm(s.T @ omega @ s - omega) < 1e-12

    def test_rejects_bad_masses(self):
        with pytest.raises(ValueError):
            tl.com_rel_transform(-1.0, 1.0)


class TestHamiltonianMatrix:
    def test_uncoupled_is_block_diagonal_per_particle(self):
        h = tl.build_hamiltonian_matrix(tl.TwoBodyParams(1.0, 2.0, 1.3, 0.0)).matrix
        assert np.abs(h[:2, 2:]).max() == 0.0

    def test_equal_mass_separation(self):
        rng = np.random.default_rng(2)
        s = tl.com_rel_transform(1.0, 1.0)
        for _ in range(10):
            params = tl.TwoBodyParams(1.0, 1.0, float(rng.uniform(0.2, 3)), float(rng.uniform(0, 4)))
            h_cr = tl.transform_quadratic_hamiltonian(tl.build_hamiltonian_matrix(params), s)
            assert np.abs(h_cr.matrix[:2, 2:]).max() < 1e-12

    def test_relative_block_frequency(self):
        # m1 = m2 = 1, w = 1, kappa = 1: the relative block is diag(mu w^2 +
        # kappa, 1/mu) with mu = 1/2, so its eigenfrequency is sqrt(3)
        params = tl.TwoBodyParams(1.0, 1.0, 1.0, 1.0)
        h_cr = tl.transform_quadratic_hamiltonian(
            tl.build_hamiltonian_matrix(params), tl.com_rel_transform(1.0, 1.0)
        ).matrix
        freq = np.sqrt(h_cr[2, 2] * h_cr[3, 3])
        assert abs(freq - np.sqrt(3.0)) < 1e-12

    def test_transform_needs_as_many_modes(self):
        ham = tl.build_hamiltonian_matrix(EQUAL)
        with pytest.raises(ValueError, match="^mode mismatch: 2 != 1$"):
            tl.transform_quadratic_hamiltonian(ham, gaussian._random_symplectic(1, 0))

    def test_matches_energy_function(self):
        params = tl.TwoBodyParams(2.0, 0.7, 1.1, 0.9)
        h = tl.build_hamiltonian_matrix(params).matrix
        rng = np.random.default_rng(3)
        for _ in range(5):
            x1, p1, x2, p2 = rng.standard_normal(4)
            direct = (
                p1**2 / (2 * params.m1)
                + p2**2 / (2 * params.m2)
                + 0.5 * params.omega_trap**2 * (params.m1 * x1**2 + params.m2 * x2**2)
                + 0.5 * params.kappa * (x1 - x2) ** 2
            )
            xi = np.array([x1, p1, x2, p2])
            assert abs(0.5 * xi @ h @ xi - direct) < 1e-12


class TestGroundState:
    def test_uncoupled_equal_mass_is_identity(self):
        gs = tl.ground_state_covariance(tl.TwoBodyParams(1.0, 1.0, 1.0, 0.0))
        np.testing.assert_allclose(gs.cov.sigma, np.eye(4), atol=1e-12)
        assert tl.interparticle_entanglement(tl.TwoBodyParams(1.0, 1.0, 1.0, 0.0)) == 0.0

    def test_coupling_entangles_particles(self):
        assert tl.interparticle_entanglement(EQUAL) > 0.0

    def test_ground_state_is_pure(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            gs = tl.ground_state_covariance(random_params(rng))
            nu = gs.cov.nu
            np.testing.assert_allclose(nu, np.ones(2), atol=1e-8)

    def test_product_across_com_rel_split(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            params = random_params(rng, equal_masses=True)
            assert tl.internal_external_entanglement(params) < 1e-8

    def test_unbound_trap_raises(self):
        with pytest.raises(ValueError, match="unbound"):
            tl.ground_state_covariance(tl.TwoBodyParams(1.0, 1.0, 0.0, 1.0))

    @pytest.mark.parametrize("ratio", [0.5, 0.99])
    def test_relatively_vanishing_trap_raises(self, ratio):
        # m1 = m2 = 1, kappa = 2: mu = 1/2, so W = sqrt(w^2 + 4) > 2
        omega = ratio * twobody.UNBOUND_FREQUENCY_RATIO * 2.0
        with pytest.raises(ValueError, match="unbound"):
            tl.ground_state_covariance(tl.TwoBodyParams(1.0, 1.0, omega, 2.0))


    @pytest.mark.parametrize(
        "m1, m2, omega, kappa, message",
        [
            # w^2 overflows; kappa / mu overflows; the reduced mass m1 m2 / M overflows
            (1.0, 1.0, 1e200, 1.0, r"^normal-mode frequencies \[.*inf\] overflow$"),
            (1.0, 1.0, 1.0, 1e308, r"^normal-mode frequencies \[.*inf\] overflow$"),
            (1e300, 1e300, 1.0, 1.0, r"^ground-state covariance overflows for masses 1e\+300, 1e\+300 "),
        ],
    )
    def test_overflow_is_refused_before_numpy_warns(self, m1, m2, omega, kappa, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                tl.ground_state_covariance(tl.TwoBodyParams(m1, m2, omega, kappa))


class TestInterparticleEntanglement:
    def test_uncoupled_is_zero(self):
        assert tl.interparticle_entanglement(tl.TwoBodyParams(1.0, 1.0, 1.2, 0.0)) == 0.0

    def test_dual_path_oracle(self):
        # path 1: symplectic eigenvalue of the reduced covariance via the
        # explicit determinant; path 2: the Williamson decomposition
        gs = tl.ground_state_covariance(EQUAL)
        reduced = tl.CovarianceMatrix(1, gs.cov.sigma[:2, :2])
        sigma = reduced.sigma
        assert abs(sigma[0, 1]) < 1e-12
        nu_direct = np.sqrt(sigma[0, 0] * sigma[1, 1])
        _, nu_williamson = tl.williamson(reduced)
        assert abs(nu_direct - nu_williamson[0]) < 1e-9
        entropy = tl.interparticle_entanglement(EQUAL)
        assert abs(entropy - thermal_entropy(nu_direct)) < 1e-9

    def test_monotone_in_coupling(self):
        values = [
            tl.interparticle_entanglement(tl.TwoBodyParams(1.0, 1.0, 1.0, k))
            for k in (0.0, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_dual_path_on_random_params(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            params = random_params(rng)
            gs = tl.ground_state_covariance(params)
            reduced = tl.CovarianceMatrix(1, gs.cov.sigma[:2, :2])
            via_spectrum = sum(thermal_entropy(nu) for nu in reduced.nu)
            _, nu_w = tl.williamson(reduced)
            via_williamson = sum(thermal_entropy(nu) for nu in nu_w)
            assert abs(via_spectrum - via_williamson) < 1e-9
            assert abs(tl.interparticle_entanglement(params) - via_spectrum) < 1e-9


class TestInternalExternalEntanglement:
    def test_matches_explicit_transform(self):
        # reference: unscale, move to COM/relative by hand, cut between the modes
        params = tl.TwoBodyParams(1.0, 3.0, 1.0, 0.7)
        state = tl.GaussianState(tl.two_mode_squeezed(0.4).cov, np.zeros(4))
        to_cr = tl.com_rel_transform(1.0, 3.0).matrix @ np.linalg.inv(mass_scaling(params))
        sigma = to_cr @ state.cov.sigma @ to_cr.T
        moved = tl.GaussianState(tl.CovarianceMatrix(2, 0.5 * (sigma + sigma.T)), np.zeros(4))
        expected = tl.gaussian_entropy_across(moved, (0,))
        # the hand-built map differs from the library's by roundoff, so the
        # two covariances (and entropies) agree to roundoff, not bit for bit
        assert abs(tl.internal_external_entropy(state, params) - expected) <= 1e-14 * expected
        assert expected > 0.01

    @pytest.mark.parametrize("n_modes", [1, 3])
    def test_needs_two_modes(self, n_modes):
        with pytest.raises(ValueError, match=f"^expected a two-mode state, got {n_modes}$"):
            tl.internal_external_entropy(vacuum(n_modes), EQUAL)

    def test_equal_masses_zero(self):
        assert tl.internal_external_entanglement(EQUAL) < 1e-10

    def test_uncoupled_equal_masses_zero(self):
        assert tl.internal_external_entanglement(tl.TwoBodyParams(1.0, 1.0, 1.0, 0.0)) < 1e-10

    def test_unequal_masses_still_separate_for_common_frequency_trap(self):
        # With the trap potential (w^2/2)(m1 x1^2 + m2 x2^2) the
        # center-of-mass/relative conjugation block-diagonalizes for every
        # mass pair, so the ground state stays a product across that split;
        # the computed value is the oracle and it is zero.
        params = tl.TwoBodyParams(2.0, 1.0, 1.0, 1.0)
        h_cr = tl.transform_quadratic_hamiltonian(
            tl.build_hamiltonian_matrix(params), tl.com_rel_transform(2.0, 1.0)
        )
        assert np.abs(h_cr.matrix[:2, 2:]).max() < 1e-12
        value = tl.internal_external_entanglement(params)
        assert 0.0 <= value < 1e-10


class TestEvolution:
    def test_time_zero_is_identity(self):
        gs = tl.ground_state_covariance(EQUAL)
        out = twobody.evolve_gaussian(gs, tl.scaled_hamiltonian(EQUAL), 0.0)
        np.testing.assert_allclose(out.cov.sigma, gs.cov.sigma, atol=1e-14)
        np.testing.assert_allclose(out.mean, gs.mean)

    def test_purity_preserved(self):
        rng = np.random.default_rng(7)
        state = tl.GaussianState(tl.random_covariance(2, 8), np.zeros(4))
        ham = tl.scaled_hamiltonian(EQUAL)
        # Tr(rho^2) = prod 1 / nu
        before = np.prod(1.0 / state.cov.nu)
        for t in (0.5, 1.7, 4.0):
            after = np.prod(1.0 / twobody.evolve_gaussian(state, ham, t).cov.nu)
            assert abs(after - before) < 1e-8

    def test_symplectic_spectrum_preserved(self):
        state = tl.GaussianState(tl.random_covariance(2, 9), np.zeros(4))
        ham = tl.scaled_hamiltonian(EQUAL)
        before = state.cov.nu
        out = twobody.evolve_gaussian(state, ham, 2.3)
        np.testing.assert_allclose(out.cov.nu, before, atol=1e-8)

    def test_internal_external_entropy_is_dynamically_invariant(self):
        gs = tl.ground_state_covariance(EQUAL)
        ham = tl.scaled_hamiltonian(EQUAL)
        for t in (0.5, 1.0, 2.0):
            moved = twobody.evolve_gaussian(gs, ham, t)
            assert tl.internal_external_entropy(moved, EQUAL) < 1e-7

    def test_interparticle_entropy_is_not_invariant(self):
        # a particle-product squeezed state is not stationary: the particle
        # split entanglement must move under coupling
        r = 0.5
        squeezed = np.diag([np.exp(2 * r), np.exp(-2 * r), np.exp(2 * r), np.exp(-2 * r)])
        state = tl.GaussianState(tl.CovarianceMatrix(2, squeezed), np.zeros(4))
        ham = tl.scaled_hamiltonian(EQUAL)
        series = [
            tl.gaussian_entropy_across(twobody.evolve_gaussian(state, ham, t), [0])
            for t in np.linspace(0.0, 5.0, 21)
        ]
        assert max(series) - min(series) > 1e-3

    def test_matches_explicit_flow(self):
        # reference: S_t = exp(t Omega M) applied to covariance and mean by hand
        state = tl.GaussianState(tl.random_covariance(2, 11), np.array([0.3, -1.0, 2.0, 0.5]))
        ham = tl.scaled_hamiltonian(EQUAL)
        s_t = expm(1.3 * tl.symplectic_form(2) @ ham.matrix)
        sigma = s_t @ state.cov.sigma @ s_t.T
        out = twobody.evolve_gaussian(state, ham, 1.3)
        np.testing.assert_array_equal(out.cov.sigma, 0.5 * (sigma + sigma.T))
        np.testing.assert_array_equal(out.mean, s_t @ state.mean)

    def test_mode_mismatch(self):
        with pytest.raises(ValueError, match="mode"):
            twobody.evolve_gaussian(vacuum(3), tl.scaled_hamiltonian(EQUAL), 1.0)


class TestGalileanBoost:
    @pytest.mark.parametrize("n_modes", [1, 3])
    def test_needs_two_modes(self, n_modes):
        with pytest.raises(ValueError, match=f"^expected a two-mode state, got {n_modes}$"):
            tl.galilean_boost(vacuum(n_modes), 1.0, EQUAL)

    def test_zero_velocity_is_identity(self):
        gs = tl.ground_state_covariance(EQUAL)
        out = tl.galilean_boost(gs, 0.0, EQUAL)
        np.testing.assert_array_equal(out.mean, gs.mean)
        np.testing.assert_array_equal(out.cov.sigma, gs.cov.sigma)

    def test_boost_shifts_only_momentum_means(self):
        params = tl.TwoBodyParams(2.0, 1.0, 1.5, 0.5)
        gs = tl.ground_state_covariance(params)
        out = tl.galilean_boost(gs, 0.7, params)
        assert out.mean[0] == 0.0 and out.mean[2] == 0.0
        assert out.mean[1] > 0.0 and out.mean[3] > 0.0
        np.testing.assert_array_equal(out.cov.sigma, gs.cov.sigma)

    def test_all_measures_exactly_invariant(self):
        params = tl.TwoBodyParams(1.5, 0.8, 1.0, 2.0)
        gs = tl.ground_state_covariance(params)
        for v in (-3.0, 0.4, 10.0):
            boosted = tl.galilean_boost(gs, v, params)
            assert tl.gaussian_entropy_across(boosted, [0]) == tl.gaussian_entropy_across(gs, [0])
            assert tl.internal_external_entropy(boosted, params) == tl.internal_external_entropy(
                gs, params
            )
            assert tl.log_negativity_two_mode(boosted) == tl.log_negativity_two_mode(gs)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("velocity", [-3.0, 0.4, 10.0])
    def test_mean_matches_the_per_particle_formula(self, seed, velocity):
        params = random_params(np.random.default_rng(seed))
        mean = np.array([0.3, -1.0, 2.0, 0.5])
        state = tl.GaussianState(tl.random_covariance(2, seed), mean)
        w = params.reference_frequency
        expected = mean.copy()
        expected[1] += params.m1 * velocity / np.sqrt(params.m1 * w)
        expected[3] += params.m2 * velocity / np.sqrt(params.m2 * w)
        assert np.array_equal(tl.galilean_boost(state, velocity, params).mean, expected)

    def test_mixed_state_log_negativity_invariant(self):
        state = tl.GaussianState(tl.random_covariance(2, 10), np.zeros(4))
        boosted = tl.galilean_boost(state, 2.2, EQUAL)
        assert tl.log_negativity_two_mode(boosted) == tl.log_negativity_two_mode(state)


class TestScaledCoordinates:
    def test_mass_scaling_is_symplectic(self):
        params = tl.TwoBodyParams(2.0, 0.3, 1.7, 0.4)
        omega = tl.symplectic_form(2)
        s = mass_scaling(params)
        assert np.linalg.norm(s.T @ omega @ s - omega) < 1e-12
        # the scaled Hamiltonian is the bare one in the coordinates S xi
        inv = np.linalg.inv(s)
        bare = tl.build_hamiltonian_matrix(params).matrix
        np.testing.assert_allclose(tl.scaled_hamiltonian(params).matrix, inv.T @ bare @ inv, rtol=1e-14, atol=1e-14)

    def test_scaled_hamiltonian_consistent_with_unscaled_evolution(self):
        # evolving the scaled state with the scaled Hamiltonian must equal
        # scaling after evolving the unscaled state with the bare one
        params = tl.TwoBodyParams(2.0, 1.0, 1.0, 1.0)
        scale = mass_scaling(params)
        gs = tl.ground_state_covariance(params)
        unscaled_sigma = np.linalg.inv(scale) @ gs.cov.sigma @ np.linalg.inv(scale).T
        unscaled = tl.GaussianState(tl.CovarianceMatrix(2, unscaled_sigma), np.zeros(4))
        t = 1.3
        moved_scaled = twobody.evolve_gaussian(gs, tl.scaled_hamiltonian(params), t)
        moved_unscaled = twobody.evolve_gaussian(unscaled, tl.build_hamiltonian_matrix(params), t)
        rescaled = scale @ moved_unscaled.cov.sigma @ scale.T
        np.testing.assert_allclose(moved_scaled.cov.sigma, rescaled, atol=1e-10)


def normal_mode_sigma(params: tl.TwoBodyParams) -> np.ndarray:
    """Ground-state covariance the long way: normal modes read off the
    conjugated Hamiltonian, then two congruences back to scaled particles."""
    s_cr = tl.com_rel_transform(params.m1, params.m2).matrix
    inv = np.linalg.inv(s_cr)
    h_cr = inv.T @ tl.build_hamiltonian_matrix(params).matrix @ inv
    h_cr = 0.5 * (h_cr + h_cr.T)
    ratio = np.sqrt(np.diag(h_cr)[1::2] / np.diag(h_cr)[0::2])
    sigma_cr = np.diag(np.stack([ratio, 1.0 / ratio], axis=1).ravel())
    sigma_particle = inv @ sigma_cr @ inv.T
    scale = mass_scaling(params)
    sigma = scale @ sigma_particle @ scale.T
    return 0.5 * (sigma + sigma.T)


def closed_form_entropy(params: tl.TwoBodyParams) -> float:
    """f(2 sqrt(<x1^2><p1^2>)) with x1 = X + (m2/M) r and p1 = (m1/M) P + p_r,
    the center of mass and relative coordinate in independent vacua."""
    m1, m2, w = params.m1, params.m2, params.omega_trap
    total, mu = params.total_mass, params.reduced_mass
    rel = np.sqrt(w**2 + params.kappa / mu)
    x2 = 1.0 / (2.0 * total * w) + (m2 / total) ** 2 / (2.0 * mu * rel)
    p2 = (m1 / total) ** 2 * total * w / 2.0 + mu * rel / 2.0
    return thermal_entropy(2.0 * np.sqrt(x2 * p2))


def spread(low: float, high: float):
    """Floats in [low, high], drawn uniformly or log-uniformly."""
    logs = st.floats(min_value=np.log10(low), max_value=np.log10(high))
    return st.floats(min_value=low, max_value=high) | logs.map(lambda e: 10.0**e)


bound_params = st.builds(
    tl.TwoBodyParams,
    spread(1e-3, 1e3),
    spread(1e-3, 1e3),
    spread(1e-2, 10.0),
    st.just(0.0) | spread(1e-3, 1e3),
)


@settings(max_examples=200, deadline=None)
@given(params=bound_params)
def test_closed_form_matches_normal_mode_route(params):
    sigma = tl.ground_state_covariance(params).cov.sigma
    oracle = normal_mode_sigma(params)
    assert np.abs(sigma - oracle).max() <= 1e-11 * np.abs(oracle).max()


@settings(max_examples=200, deadline=None)
@given(params=bound_params)
def test_interparticle_entropy_matches_closed_form(params):
    expected = closed_form_entropy(params)
    assert abs(tl.interparticle_entanglement(params) - expected) <= 1e-10 * max(expected, 1e-3)


@settings(max_examples=300, deadline=None)
@given(
    m1=spread(1e-3, 1e3),
    m2=spread(1e-3, 1e3),
    kappa=spread(1e-3, 1e3),
    ratio_exponent=st.floats(min_value=-11.0, max_value=-6.0),
)
def test_weak_trap_is_a_state_or_unbound(m1, m2, kappa, ratio_exponent):
    # w is chosen so that w / W = ratio with W = sqrt(w^2 + kappa/mu); a
    # trap too weak for the covariance check must be reported as unbound,
    # never as an invalid covariance
    ratio = 10.0**ratio_exponent
    omega = ratio * np.sqrt(kappa * (m1 + m2) / (m1 * m2)) / np.sqrt(1.0 - ratio**2)
    try:
        state = tl.ground_state_covariance(tl.TwoBodyParams(m1, m2, omega, kappa))
    except tl.InvalidCovarianceError as err:
        raise AssertionError(f"ratio {ratio:.3g}: {err}") from err
    except ValueError as err:
        assert "unbound" in str(err)
    else:
        np.testing.assert_allclose(state.cov.nu, np.ones(2), atol=1e-8)


@pytest.mark.parametrize(
    "params",
    [
        # light, unequal masses in a weak trap with strong coupling: the
        # normal-mode route was off here by about 2e-9 relative
        tl.TwoBodyParams(0.00425, 0.00126, 0.012, 454.6),
        tl.TwoBodyParams(1e-3, 1e3, 1e-2, 1e3),
        tl.TwoBodyParams(1.0, 3.0, 1.0, 4.0),
    ],
)
def test_interparticle_entropy_at_fixed_extremes(params):
    expected = closed_form_entropy(params)
    assert abs(tl.interparticle_entanglement(params) - expected) <= 1e-10 * max(expected, 1e-3)


@pytest.mark.parametrize("kappa", [0.0, 0.7, 400.0])
def test_entanglement_functions_are_the_sweep_compositions(kappa):
    # twobody sweep computes both columns from one ground state; the
    # one-call functions must give the same floats
    params = tl.TwoBodyParams(1.0, 3.0, 1.0, kappa)
    state = tl.ground_state_covariance(params)
    assert tl.interparticle_entanglement(params) == tl.gaussian_entropy_across(state, (0,))
    assert tl.internal_external_entanglement(params) == tl.internal_external_entropy(state, params)


# coupling lists with zero, log-spread values and repeats, in any order
kappa_lists = st.lists(st.just(0.0) | spread(1e-3, 1e3), min_size=1, max_size=10).flatmap(
    lambda kappas: st.permutations(kappas + kappas[:3])
)


@settings(max_examples=150, deadline=None)
@given(
    m1=spread(1e-3, 1e3),
    m2=spread(1e-3, 1e3),
    omega=spread(1e-2, 10.0),
    kappas=kappa_lists,
)
def test_coupling_sweep_equals_the_per_kappa_route(m1, m2, omega, kappas):
    interparticle, internal_external = tl.coupling_sweep(m1, m2, omega, kappas)
    assert interparticle.shape == internal_external.shape == (len(kappas),)
    for kappa, inter, internal in zip(kappas, interparticle, internal_external):
        params = tl.TwoBodyParams(m1, m2, omega, kappa)
        state = tl.ground_state_covariance(params)
        assert inter == tl.gaussian_entropy_across(state, (0,))
        assert internal == tl.internal_external_entropy(state, params)
        expected = closed_form_entropy(params)
        assert abs(inter - expected) <= 1e-10 * max(expected, 1e-3)


def test_one_coupling_equals_its_place_in_a_long_sweep():
    kappas = [i * 0.001 for i in range(4001)]
    interparticle, internal_external = tl.coupling_sweep(1.0, 3.0, 1.0, kappas)
    for i in (0, 1, 700, 2999, 4000):
        one = tl.coupling_sweep(1.0, 3.0, 1.0, [kappas[i]])
        assert one[0][0] == interparticle[i]
        assert one[1][0] == internal_external[i]


@pytest.mark.parametrize(
    "kappas, message",
    [
        # a loop over the couplings stops at the first failing one
        ([0.5, 1.0, -1.0], "unbound"),
        ([-1.0, 1.0], "nonnegative"),
        ([np.nan, -1.0], "finite"),
    ],
)
def test_coupling_sweep_raises_for_the_first_failing_kappa(kappas, message):
    # m1 = m2 = 1, w = 1.2e-7: w / W is 1.2e-7 at kappa = 0.5 (bound) and
    # 8.5e-8 at kappa = 1, below UNBOUND_FREQUENCY_RATIO
    with pytest.raises(ValueError, match=message):
        tl.coupling_sweep(1.0, 1.0, 1.2e-7, kappas)


@pytest.mark.parametrize(
    "kappas, message",
    [
        # -1 fails the whole-stack pass first; the loop stops at 1e308, whose W overflows
        ([0.5, 1e308, -1.0], "overflow"),
        # W is 1.4e153 at 1e306, finite but unbound, before 1e308 overflows
        ([0.5, 1e306, 1e308], "unbound"),
    ],
)
def test_coupling_sweep_names_the_first_overflowing_kappa(kappas, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            tl.coupling_sweep(1.0, 1.0, 1.0, kappas)


def first_failure_by_loop(kappas):
    """The error of the first coupling that fails alone, found by a loop over the couplings."""
    for i in range(len(kappas)):
        try:
            twobody._stacked_sweep(1.0, 1.0, 1.2e-7, kappas[i : i + 1])
        except ValueError as err:
            return type(err), str(err)


@pytest.mark.parametrize("size", [1, 2, 3, 7, 64, 1000])
@pytest.mark.parametrize("seed", range(3))
def test_coupling_sweep_search_finds_the_loops_failure(monkeypatch, size, seed):
    # bound couplings (w / W >= 1.2e-7 up to kappa = 0.5) with one to three failing ones
    # among them: negative, non-finite, or unbound with a message that names the coupling
    rng = np.random.default_rng(seed)
    kappas = rng.uniform(0.0, 0.5, size)
    bad = rng.choice(size, size=min(size, rng.integers(1, 4)), replace=False)
    kappas[bad] = rng.choice([-1.0, np.nan, np.inf, 1.0, 5.0, 40.0], size=len(bad))
    expected = first_failure_by_loop(kappas)
    calls = []
    stacked = twobody._stacked_sweep

    def counted(*args):
        calls.append(len(args[-1]))
        return stacked(*args)

    monkeypatch.setattr(twobody, "_stacked_sweep", counted)
    with pytest.raises(ValueError) as swept:
        tl.coupling_sweep(1.0, 1.0, 1.2e-7, kappas)
    assert (type(swept.value), str(swept.value)) == expected
    assert len(calls) <= int(np.ceil(np.log2(size))) + 2
    assert calls[0] == size and calls[-1] == 1


@pytest.mark.parametrize("tolerance", ["NU_CONSTRUCTOR_TOL", "PURITY_NU_TOL"])
def test_coupling_sweep_keeps_the_per_state_checks(monkeypatch, tolerance):
    # with a tolerance no state can meet, the sweep fails as the per-state route does
    monkeypatch.setattr(gaussian, tolerance, -1.0)
    params = tl.TwoBodyParams(1.0, 3.0, 1.0, 0.7)
    with pytest.raises(ValueError) as per_state:
        tl.gaussian_entropy_across(tl.ground_state_covariance(params), (0,))
    with pytest.raises(ValueError) as swept:
        tl.coupling_sweep(1.0, 3.0, 1.0, [0.7, 0.0])
    assert type(swept.value) is type(per_state.value)
    assert str(swept.value) == str(per_state.value)


@pytest.mark.parametrize("kappas", [[], [[1.0, 2.0]]])
def test_coupling_sweep_rejects_empty_or_nested_couplings(kappas):
    with pytest.raises(ValueError, match="1-D"):
        tl.coupling_sweep(1.0, 1.0, 1.0, kappas)


@pytest.fixture
def construction_calls(monkeypatch):
    """Counts matrix inversions, validated-map constructions and symplectic spectra."""
    calls = {"inv": 0, "SymplecticMatrix": 0, "QuadraticHamiltonian": 0, "_spectrum_of": 0}

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    monkeypatch.setattr(np.linalg, "inv", counting("inv", np.linalg.inv))
    for cls in (tl.SymplecticMatrix, tl.QuadraticHamiltonian):
        monkeypatch.setattr(cls, "__post_init__", counting(cls.__name__, cls.__post_init__))
    monkeypatch.setattr(gaussian, "_spectrum_of", counting("_spectrum_of", gaussian._spectrum_of))
    return calls


def test_one_sweep_kappa_builds_no_map(construction_calls):
    params = tl.TwoBodyParams(1.0, 3.0, 1.0, 0.7)
    state = tl.ground_state_covariance(params)
    tl.gaussian_entropy_across(state, (0,))
    tl.internal_external_entropy(state, params)
    assert construction_calls == {
        "inv": 0, "SymplecticMatrix": 0, "QuadraticHamiltonian": 0, "_spectrum_of": 4
    }


def test_construction_counter_sees_the_public_maps(construction_calls):
    # the transform uses the exact symplectic inverse, so nothing is inverted
    tl.scaled_hamiltonian(EQUAL)
    assert construction_calls == {
        "inv": 0, "SymplecticMatrix": 1, "QuadraticHamiltonian": 2, "_spectrum_of": 0
    }


def test_cli_sweep_makes_four_spectra_for_all_kappas(construction_calls, tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ["twobody", "sweep", "--m1", "1", "--m2", "3", "--omega", "1", "--kappa", "0:4:0.001"]
    assert cli.run(argv + ["--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4002
    assert construction_calls == {
        "inv": 0, "SymplecticMatrix": 0, "QuadraticHamiltonian": 0, "_spectrum_of": 4
    }


def dense_symplectic_inverse(s: np.ndarray) -> np.ndarray:
    """Oracle: ``-Omega S^T Omega`` as two dense products."""
    omega = np.kron(np.eye(len(s) // 2), [[0.0, 1.0], [-1.0, 0.0]])
    return -omega @ s.T @ omega


@pytest.mark.parametrize("seed", range(6))
def test_exact_inverse_matches_the_dense_products(monkeypatch, seed):
    params = random_params(np.random.default_rng(seed))
    kappas = np.linspace(0.0, 3.0, 7)
    s = gaussian._random_symplectic(2, seed, max_squeeze=1.5)
    ham = tl.build_hamiltonian_matrix(params)
    runs = []
    for inverse in (twobody.symplectic_inverse, dense_symplectic_inverse):
        monkeypatch.setattr(twobody, "symplectic_inverse", inverse)
        runs.append(
            (
                tl.ground_state_covariance(params).cov.sigma,
                *tl.coupling_sweep(params.m1, params.m2, params.omega_trap, kappas),
                tl.transform_quadratic_hamiltonian(ham, s).matrix,
                tl.scaled_hamiltonian(params).matrix,
            )
        )
    for fast, dense in zip(*runs):
        assert np.array_equal(fast, dense)


def test_no_dense_omega_is_built(monkeypatch):
    def refuse(n_modes):
        raise AssertionError("the library applies Omega through times_omega")

    monkeypatch.setattr(gaussian, "symplectic_form", refuse)
    monkeypatch.setattr(tl, "symplectic_form", refuse)
    params = tl.TwoBodyParams(1.0, 3.0, 1.0, 0.7)
    tl.coupling_sweep(1.0, 3.0, 1.0, [0.0, 0.7, 4.0])
    state = tl.ground_state_covariance(params)
    ham = tl.scaled_hamiltonian(params)
    tl.transform_quadratic_hamiltonian(ham, gaussian._random_symplectic(2, 3))
    twobody.evolve_gaussian(state, ham, 1.3)
    assert not hasattr(twobody, "_OMEGA") and not hasattr(twobody, "symplectic_form")
