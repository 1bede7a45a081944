"""Acceptance suite: one test per claim, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines and timings.  Tolerances are fixed here, not configurable.
"""

import time
from contextlib import contextmanager

import numpy as np
from scipy.linalg import expm

import tpslab as tl
from tpslab import twobody

from test_findim import partial_trace_loops, schmidt_rank_loops

LN2 = np.log(2.0)


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s > {budget_seconds}s"
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s]")


def random_target(rng, length):
    return tl.TargetSpectrum(np.sort(rng.dirichlet(np.ones(length)))[::-1])


def test_criterion_1_bell_state_relativity():
    with criterion(1, "Bell-state relativity", 1.0):
        fac = tl.Factorization(4, (2, 2))
        identity = tl.TpsFrame.identity(fac)
        bell = tl.bell_state("phi+")
        assert abs(tl.entanglement_entropy(bell, identity) - LN2) < 1e-10
        assert tl.entanglement_entropy(bell, tl.min_frame(bell, fac)) < 1e-10
        ground = tl.PureState(4, np.array([1, 0, 0, 0], dtype=complex))
        assert abs(tl.entanglement_entropy(ground, tl.max_frame(ground, fac)) - LN2) < 1e-10


def test_criterion_2_tailored_observables_round_trip():
    with criterion(2, "Tailored observables round-trip", 10.0):
        cases = [
            (4, (2, 2)),
            (6, (2, 3)),
            (6, (3, 2)),
            (8, (2, 4)),
            (8, (4, 2)),
            (12, (2, 6)),
            (12, (3, 4)),
            (12, (4, 3)),
        ]
        rng = np.random.default_rng(20260809)
        for trial in range(50):
            d, factors = cases[rng.integers(len(cases))]
            fac = tl.Factorization(d, factors)
            psi = tl.random_pure(d, rng)
            target = random_target(rng, min(factors))
            frame = tl.tailor_frame(psi, fac, target)
            recovered = tl.schmidt_decompose(psi, frame).coefficients
            np.testing.assert_allclose(recovered, target.probabilities, atol=1e-9)


def test_criterion_3_zanardi_checker():
    with criterion(3, "Zanardi criteria checker", 5.0):
        fac = tl.Factorization(4, (2, 2))
        identity = tl.TpsFrame.identity(fac)
        pauli_a = tl.subalgebra_generators(identity, "A")
        pauli_b = tl.subalgebra_generators(identity, "B")
        report = tl.check_zanardi(pauli_a, pauli_b)
        assert report.independence and report.completeness

        rng = np.random.default_rng(33)
        for d, factors in ((4, (2, 2)), (6, (2, 3)), (8, (2, 4)), (12, (3, 4))):
            f = tl.Factorization(d, factors)
            psi = tl.random_pure(d, rng)
            frame = tl.tailor_frame(psi, f, random_target(rng, min(factors)))
            tailored = tl.check_zanardi(
                tl.subalgebra_generators(frame, "A"), tl.subalgebra_generators(frame, "B")
            )
            assert tailored.independence and tailored.completeness

        same_side = tl.check_zanardi(pauli_a, pauli_a)
        assert not same_side.independence


def test_criterion_4_totally_mixed_invariance():
    with criterion(4, "Totally mixed invariance", 2.0):
        rho = tl.DensityMatrix(4, np.eye(4) / 4)
        fac = tl.Factorization(4, (2, 2))
        for seed in range(20):
            frame = tl.TpsFrame(fac, tl.random_unitary(4, seed))
            assert tl.negativity(rho, frame) < 1e-10


def test_criterion_5_williamson_and_separation():
    with criterion(5, "Williamson decomposition and mode separation", 10.0):
        rng = np.random.default_rng(5)
        for trial in range(100):
            n = int(rng.integers(1, 5))
            cov = tl.random_covariance(n, rng, pure=bool(rng.integers(2)))
            s, nu = tl.williamson(cov)
            normal_form = np.diag(np.repeat(nu, 2))
            residual = np.linalg.norm(s.matrix @ cov.sigma @ s.matrix.T - normal_form)
            assert residual / np.linalg.norm(cov.sigma) < 1e-8
            omega = tl.symplectic_form(n)
            assert np.linalg.norm(s.matrix.T @ omega @ s.matrix - omega) < 1e-10

        targets = [tl.two_mode_squeezed(1.0)]
        targets += [tl.GaussianState(tl.random_covariance(2, 100 + k), np.zeros(4)) for k in range(5)]
        for state in targets:
            _, moved = tl.mode_separating_transform(state)
            assert np.abs(moved.cov.sigma[:2, 2:]).max() < 1e-8
            assert tl.log_negativity_two_mode(moved) == 0.0


def test_criterion_6_gaussian_finite_dimensional_cross_oracle():
    with criterion(6, "Gaussian vs truncated number-basis entropy", 30.0):
        cutoff = 60
        for r in (0.3, 0.7, 1.0):
            # independent construction: exponentiate the squeezing generator
            # on the |n, n> ladder, then reuse the finite-dimensional Schmidt
            # path on the resulting vector
            ladder = np.zeros((cutoff, cutoff))
            for n in range(cutoff - 1):
                ladder[n + 1, n] = r * (n + 1)
                ladder[n, n + 1] = -r * (n + 1)
            weights = expm(ladder)[:, 0]
            psi = np.zeros(cutoff * cutoff, dtype=complex)
            psi[np.arange(cutoff) * cutoff + np.arange(cutoff)] = weights
            state = tl.PureState(cutoff**2, psi / np.linalg.norm(psi))
            frame = tl.TpsFrame.identity(tl.Factorization(cutoff**2, (cutoff, cutoff)))
            discrete = tl.entanglement_entropy(state, frame)
            continuous = tl.gaussian_entropy_across(tl.two_mode_squeezed(r), [0])
            assert abs(discrete - continuous) < 1e-6


def test_criterion_7_two_body_invariances():
    with criterion(7, "Two-body separation and invariances", 10.0):
        rng = np.random.default_rng(7)
        s_cr = tl.com_rel_transform(1.0, 1.0)
        for _ in range(20):
            params = tl.TwoBodyParams(
                1.0, 1.0, float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.0, 4.0))
            )
            h_cr = tl.transform_quadratic_hamiltonian(tl.build_hamiltonian_matrix(params), s_cr)
            assert np.abs(h_cr.matrix[:2, 2:]).max() < 1e-12

        params = tl.TwoBodyParams(1.0, 1.0, 1.0, 1.0)
        assert tl.internal_external_entanglement(params) < 1e-8
        gs = tl.ground_state_covariance(params)
        ham = tl.scaled_hamiltonian(params)
        for t in np.linspace(0.0, 5.0, 11):
            moved = twobody.evolve_gaussian(gs, ham, float(t))
            assert tl.internal_external_entropy(moved, params) < 1e-7

        sweep = [
            tl.interparticle_entanglement(tl.TwoBodyParams(1.0, 1.0, 1.0, k))
            for k in (0.0, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(b > a for a, b in zip(sweep, sweep[1:]))

        boost_params = tl.TwoBodyParams(2.0, 1.0, 1.0, 1.5)
        state = tl.ground_state_covariance(boost_params)
        for v in (-1.0, 0.3, 7.0):
            boosted = tl.galilean_boost(state, v, boost_params)
            assert tl.gaussian_entropy_across(boosted, [0]) == tl.gaussian_entropy_across(state, [0])
            assert tl.internal_external_entropy(boosted, boost_params) == tl.internal_external_entropy(
                state, boost_params
            )
            assert tl.log_negativity_two_mode(boosted) == tl.log_negativity_two_mode(state)


def test_criterion_8_scattering_growth():
    with criterion(8, "Scattering entanglement growth", 120.0):
        config = tl.LatticeConfig(
            n_sites=24,
            hopping=1.0,
            interaction=2.0,
            packet_a=tl.WavePacket(6.0, 2.0, np.pi / 2),
            packet_b=tl.WavePacket(18.0, 2.0, -np.pi / 2),
        )
        # Threshold frozen from a calibration run of this simulation
        # (2026-08-09, this exact config): entropy 0.5165 nats at t = 6.0,
        # plateau 0.52-0.62 over t in [4, 8].  0.25 is half the plateau
        # floor and far above the in-state bound.
        history = dict(tl.entanglement_history(config, [0.0, 6.0]))
        assert history[0.0] < 1e-10
        assert history[6.0] > 0.25

        control = tl.LatticeConfig(
            n_sites=24,
            hopping=1.0,
            interaction=0.0,
            packet_a=tl.WavePacket(6.0, 2.0, np.pi / 2),
            packet_b=tl.WavePacket(18.0, 2.0, -np.pi / 2),
        )
        flat = tl.entanglement_history(control, np.arange(0.0, 8.1, 1.0))
        assert max(s for _, s in flat) < 1e-8


def test_criterion_9_dual_implementation_oracles():
    with criterion(9, "Dual-implementation oracles", 5.0):
        rho = tl.random_density(6, 4, 99)
        frame = tl.TpsFrame.identity(tl.Factorization(6, (2, 3)))
        for side in ("A", "B"):
            fast = tl.partial_trace(rho, frame, side).matrix
            slow = partial_trace_loops(rho.matrix, 2, 3, side)
            assert np.abs(fast - slow).max() < 1e-12

        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        product = np.kron(tl.random_unitary(2, 1), tl.random_unitary(2, 2))
        fac = tl.Factorization(4, (2, 2))
        for op, expected in ((cnot, 2), (swap, 4), (product, 1)):
            assert schmidt_rank_loops(op, 2, 2) == expected
            assert tl.operator_schmidt_rank(op, fac) == expected
