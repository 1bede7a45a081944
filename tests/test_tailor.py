"""Tests for frame tailoring and the subsystem-criteria checker."""

import numpy as np
import pytest

import tpslab as tl

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)

FAC22 = tl.Factorization(4, (2, 2))


def random_target(rng, length: int) -> tl.TargetSpectrum:
    probs = np.sort(rng.dirichlet(np.ones(length)))[::-1]
    return tl.TargetSpectrum(probs)


class TestTargetSpectrum:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="descending"):
            tl.TargetSpectrum(np.array([0.3, 0.7]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            tl.TargetSpectrum(np.array([0.7, 0.2]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            tl.TargetSpectrum(np.array([1.2, -0.2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            tl.TargetSpectrum(np.array([bad, 0.0]))


class TestTailorFrame:
    def test_product_state_to_maximal(self):
        psi = tl.PureState(4, np.array([1, 0, 0, 0], dtype=complex))
        frame = tl.tailor_frame(psi, FAC22, tl.TargetSpectrum(np.array([0.5, 0.5])))
        assert abs(tl.entanglement_entropy(psi, frame) - np.log(2)) < 1e-10

    def test_bell_state_to_none(self):
        psi = tl.bell_state("phi+")
        frame = tl.tailor_frame(psi, FAC22, tl.TargetSpectrum(np.array([1.0, 0.0])))
        assert tl.entanglement_entropy(psi, frame) < 1e-10

    def test_partial_spectrum_recovered_through_schmidt(self):
        psi = tl.random_pure(8, 12)
        fac = tl.Factorization(8, (2, 4))
        frame = tl.tailor_frame(psi, fac, tl.TargetSpectrum(np.array([0.7, 0.3])))
        sd = tl.schmidt_decompose(psi, frame)
        np.testing.assert_allclose(sd.coefficients, [0.7, 0.3], atol=1e-10)

    def test_round_trip_many(self):
        rng = np.random.default_rng(2024)
        cases = [(4, (2, 2)), (6, (2, 3)), (8, (2, 4)), (8, (4, 2)), (12, (3, 4))]
        for _ in range(10):
            d, factors = cases[rng.integers(len(cases))]
            fac = tl.Factorization(d, factors)
            psi = tl.random_pure(d, rng)
            target = random_target(rng, min(factors))
            frame = tl.tailor_frame(psi, fac, target)
            sd = tl.schmidt_decompose(psi, frame)
            np.testing.assert_allclose(sd.coefficients, target.probabilities, atol=1e-9)

    def test_frames_are_unitary(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            psi = tl.random_pure(6, rng)
            fac = tl.Factorization(6, (2, 3))
            frame = tl.tailor_frame(psi, fac, random_target(rng, 2))
            defect = np.linalg.norm(frame.frame.conj().T @ frame.frame - np.eye(6))
            assert defect < 1e-10

    def test_target_length_mismatch(self):
        psi = tl.random_pure(4, 0)
        with pytest.raises(ValueError, match="length"):
            tl.tailor_frame(psi, FAC22, tl.TargetSpectrum(np.array([0.5, 0.3, 0.2])))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            tl.tailor_frame(tl.random_pure(6, 0), FAC22, tl.TargetSpectrum(np.array([1.0, 0.0])))

    def test_totally_mixed_negativity_zero_in_tailored_frames(self):
        rho = tl.DensityMatrix(4, np.eye(4) / 4)
        rng = np.random.default_rng(77)
        for _ in range(5):
            frame = tl.tailor_frame(tl.random_pure(4, rng), FAC22, random_target(rng, 2))
            assert tl.negativity(rho, frame) < 1e-10


class TestMinMaxFrames:
    def test_min_frame_kills_entanglement(self):
        for seed in range(4):
            psi = tl.random_pure(4, seed)
            assert tl.entanglement_entropy(psi, tl.min_frame(psi, FAC22)) < 1e-10

    def test_max_frame_is_maximal(self):
        for seed in range(4):
            psi = tl.random_pure(4, seed)
            entropy = tl.entanglement_entropy(psi, tl.max_frame(psi, FAC22))
            assert abs(entropy - np.log(2)) < 1e-10

    def test_already_product_state(self):
        psi = tl.PureState(4, np.array([0, 1, 0, 0], dtype=complex))
        assert tl.entanglement_entropy(psi, tl.min_frame(psi, FAC22)) < 1e-10

    def test_max_frame_rectangular(self):
        psi = tl.random_pure(6, 3)
        fac = tl.Factorization(6, (2, 3))
        entropy = tl.entanglement_entropy(psi, tl.max_frame(psi, fac))
        assert abs(entropy - np.log(2)) < 1e-10


class TestSubalgebraGenerators:
    def test_identity_frame_side_a_is_pauli_basis(self):
        gens = tl.subalgebra_generators(tl.TpsFrame.identity(FAC22), "A")
        eye = np.eye(2)
        expected = [np.kron(m, eye) for m in (np.eye(2), SX, SY, SZ)]
        assert len(gens.generators) == 4
        for got, want in zip(gens.generators, expected):
            np.testing.assert_allclose(got, want, atol=1e-14)

    def test_identity_frame_side_b_is_pauli_basis(self):
        gens = tl.subalgebra_generators(tl.TpsFrame.identity(FAC22), "B")
        eye = np.eye(2)
        expected = [np.kron(eye, m) for m in (np.eye(2), SX, SY, SZ)]
        for got, want in zip(gens.generators, expected):
            np.testing.assert_allclose(got, want, atol=1e-14)

    def test_generators_hermitian_for_random_frame(self):
        frame = tl.TpsFrame(tl.Factorization(6, (2, 3)), tl.random_unitary(6, 9))
        for side in ("A", "B"):
            for g in tl.subalgebra_generators(frame, side).generators:
                assert np.abs(g - g.conj().T).max() < 1e-12

    def test_generator_count_matches_factor(self):
        frame = tl.TpsFrame.identity(tl.Factorization(6, (2, 3)))
        assert len(tl.subalgebra_generators(frame, "A").generators) == 4
        assert len(tl.subalgebra_generators(frame, "B").generators) == 9

    def test_expectation_values_match_product_basis(self):
        # <psi| G |psi> = <U psi| A (x) I |U psi> is the defining property
        frame = tl.TpsFrame(FAC22, tl.random_unitary(4, 31))
        psi = tl.random_pure(4, 32)
        rotated = frame.frame @ psi.amplitudes
        gens = tl.subalgebra_generators(frame, "A")
        for g, a in zip(gens.generators, tl.hermitian_basis(2)):
            native = np.vdot(psi.amplitudes, g @ psi.amplitudes)
            product = np.vdot(rotated, np.kron(a, np.eye(2)) @ rotated)
            assert abs(native - product) < 1e-12


class TestCheckZanardi:
    def test_pauli_subalgebras_pass(self):
        frame = tl.TpsFrame.identity(FAC22)
        report = tl.check_zanardi(
            tl.subalgebra_generators(frame, "A"), tl.subalgebra_generators(frame, "B")
        )
        assert report.independence and report.completeness
        assert report.max_commutator_norm < 1e-12
        assert report.span_dimension == report.full_dimension == 16

    def test_same_side_fails_independence(self):
        gens = tl.subalgebra_generators(tl.TpsFrame.identity(FAC22), "A")
        report = tl.check_zanardi(gens, gens)
        assert not report.independence
        assert report.max_commutator_norm > 1.0

    def test_degenerate_algebra_fails_completeness(self):
        report = tl.check_zanardi([np.eye(4)], [np.eye(4)])
        assert report.independence
        assert not report.completeness
        assert report.span_dimension == 1

    def test_tailored_frames_pass(self):
        rng = np.random.default_rng(8)
        for d, factors in ((4, (2, 2)), (6, (2, 3)), (8, (2, 4))):
            fac = tl.Factorization(d, factors)
            psi = tl.random_pure(d, rng)
            frame = tl.tailor_frame(psi, fac, random_target(rng, min(factors)))
            report = tl.check_zanardi(
                tl.subalgebra_generators(frame, "A"), tl.subalgebra_generators(frame, "B")
            )
            assert report.independence and report.completeness

    def test_local_accessibility_is_flagged_not_assessed(self):
        frame = tl.TpsFrame.identity(FAC22)
        report = tl.check_zanardi(
            tl.subalgebra_generators(frame, "A"), tl.subalgebra_generators(frame, "B")
        )
        assert "not assessed" in report.local_accessibility


class TestConjugateSubalgebra:
    def test_identity_leaves_generators(self):
        gens = tl.subalgebra_generators(tl.TpsFrame.identity(FAC22), "A")
        out = tl.conjugate_subalgebra(gens, np.eye(4))
        for got, want in zip(out.generators, gens.generators):
            np.testing.assert_allclose(got, want, atol=1e-14)

    def test_report_invariant_under_conjugation(self):
        frame = tl.TpsFrame.identity(FAC22)
        gens_a = tl.subalgebra_generators(frame, "A")
        gens_b = tl.subalgebra_generators(frame, "B")
        base = tl.check_zanardi(gens_a, gens_b)
        for seed in range(10):
            u = tl.random_unitary(4, seed)
            report = tl.check_zanardi(
                tl.conjugate_subalgebra(gens_a, u), tl.conjugate_subalgebra(gens_b, u)
            )
            assert report.independence == base.independence
            assert report.completeness == base.completeness

    def test_cnot_maps_pauli_onto_product_pauli(self):
        # CNOT is Clifford: the conjugated generator X (x) I becomes X (x) X,
        # which is still a product operator (operator Schmidt rank 1) but no
        # longer lives in the A-side algebra M_2 (x) I.
        gens = tl.subalgebra_generators(tl.TpsFrame.identity(FAC22), "A")
        out = tl.conjugate_subalgebra(gens, CNOT)
        conj_x = out.generators[1]
        np.testing.assert_allclose(conj_x, np.kron(SX, SX), atol=1e-14)
        assert tl.operator_schmidt_rank(conj_x, FAC22) == 1
        reduced = np.einsum("abcb->ac", conj_x.reshape(2, 2, 2, 2)) / 2
        residual = np.linalg.norm(conj_x - np.kron(reduced, np.eye(2)))
        assert residual > 1.0  # far from every A-side operator

    def test_generic_conjugation_leaves_product_form(self):
        # a non-Clifford unitary turns A-side generators into genuinely
        # non-product operators
        gens = tl.subalgebra_generators(tl.TpsFrame.identity(FAC22), "A")
        out = tl.conjugate_subalgebra(gens, tl.random_unitary(4, 99))
        ranks = [tl.operator_schmidt_rank(g, FAC22) for g in out.generators[1:]]
        assert max(ranks) > 1

    def test_frame_updated_consistently(self):
        frame = tl.TpsFrame(FAC22, tl.random_unitary(4, 40))
        gens = tl.subalgebra_generators(frame, "A")
        u = tl.random_unitary(4, 41)
        out = tl.conjugate_subalgebra(gens, u)
        rebuilt = tl.subalgebra_generators(out.frame, "A")
        for got, want in zip(out.generators, rebuilt.generators):
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_rejects_non_unitary(self):
        gens = tl.subalgebra_generators(tl.TpsFrame.identity(FAC22), "A")
        with pytest.raises(ValueError, match="unitary"):
            tl.conjugate_subalgebra(gens, np.diag([1.0, 2.0, 1.0, 1.0]))
