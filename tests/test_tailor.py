"""Tests for frame tailoring and the subsystem-criteria checker."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import tpslab as tl
from tpslab import tailor

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


def reference_state(factors, probs) -> np.ndarray:
    """``sum_i sqrt(p_i) |i i>``, the state a tailored frame maps psi onto."""
    phi = np.zeros(factors[0] * factors[1], dtype=complex)
    for i, p in enumerate(probs):
        phi[i * factors[1] + i] = np.sqrt(p)
    return phi


def assert_reflects_onto_reference(psi, factors, target):
    d = psi.dim
    frame = tl.tailor_frame(psi, tl.Factorization(d, factors), target)
    u = frame.frame
    phi = reference_state(factors, target.probabilities)
    assert np.linalg.norm(u @ psi.amplitudes - phi) <= 1e-13
    assert np.linalg.norm(u.conj().T @ u - np.eye(d)) <= 1e-12
    coefficients = tl.schmidt_decompose(psi, frame).coefficients
    assert np.abs(coefficients - target.probabilities).max() <= 1e-12


TAILOR_FACTORS = [(k1, k2) for k1 in range(2, 33) for k2 in range(2, 33) if k1 * k2 <= 64]
PSI_KINDS = ["random", "orthogonal", "phase", "near parallel", "near antiparallel"]


@settings(max_examples=60, deadline=None)
@given(
    factors=st.sampled_from(TAILOR_FACTORS),
    target_kind=st.sampled_from(["separable", "uniform", "random"]),
    psi_kind=st.sampled_from(PSI_KINDS),
    seed=st.integers(0, 2**32 - 1),
    theta=st.floats(0.0, 2 * np.pi),
)
def test_tailored_frame_maps_psi_onto_reference(factors, target_kind, psi_kind, seed, theta):
    rng = np.random.default_rng(seed)
    d, width = factors[0] * factors[1], min(factors)
    if target_kind == "separable":
        target = tl.TargetSpectrum.separable(width)
    elif target_kind == "uniform":
        target = tl.TargetSpectrum.uniform(width)
    else:
        target = random_target(rng, width)
    phi = reference_state(factors, target.probabilities)
    r = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    if psi_kind == "random":
        amps = r
    elif psi_kind == "orthogonal":
        # zero on the support of phi, so the overlap is exactly zero
        amps = r.copy()
        amps[np.arange(width) * (factors[1] + 1)] = 0.0
    elif psi_kind == "phase":
        amps = np.exp(1j * theta) * phi
    elif psi_kind == "near parallel":
        amps = phi + 1e-9 * r
    else:
        amps = -phi + 1e-9 * r
    psi = tl.PureState(d, amps / np.linalg.norm(amps))
    assert_reflects_onto_reference(psi, factors, target)
    event(psi_kind)


def test_tailored_frame_at_dimension_256():
    rng = np.random.default_rng(256)
    assert_reflects_onto_reference(tl.random_pure(256, rng), (16, 16), random_target(rng, 16))


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


def dense_span_oracle(gens_a, gens_b) -> tuple[int, bool]:
    """Span dimension and completeness from the SVD of the full product matrix.

    This is the d^6 count ``check_zanardi`` made before its certificate:
    singular values above 1e-8 of the largest.
    """
    list_a = [np.asarray(g, dtype=complex) for g in getattr(gens_a, "generators", gens_a)]
    list_b = [np.asarray(g, dtype=complex) for g in getattr(gens_b, "generators", gens_b)]
    d = list_a[0].shape[0]
    products = np.column_stack([(a @ b).reshape(-1) for a in list_a for b in list_b])
    singular = np.linalg.svd(products, compute_uv=False)
    span = int(np.count_nonzero(singular > 1e-8 * singular[0])) if singular[0] > 0 else 0
    return span, span == d * d


def frame_sides(frame: tl.TpsFrame):
    return tl.subalgebra_generators(frame, "A"), tl.subalgebra_generators(frame, "B")


def assert_matches_oracle(gens_a, gens_b) -> tl.ZanardiReport:
    report = tl.check_zanardi(gens_a, gens_b)
    assert (report.span_dimension, report.completeness) == dense_span_oracle(gens_a, gens_b)
    return report


@pytest.fixture
def dense_calls(monkeypatch):
    """Record each run of the dense product-matrix SVD inside check_zanardi."""
    calls = []
    dense = tailor._dense_span_dimension

    def counting(list_a, list_b):
        calls.append((len(list_a), len(list_b)))
        return dense(list_a, list_b)

    monkeypatch.setattr(tailor, "_dense_span_dimension", counting)
    return calls


def random_hermitian(rng, d: int) -> np.ndarray:
    """A Hermitian d x d matrix of unit Frobenius norm."""
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = m + m.conj().T
    return h / np.linalg.norm(h)


def with_anti_hermitian_defect(gens, size: float, rng) -> list[np.ndarray]:
    """Each generator plus ``i size H`` for its own random unit Hermitian H."""
    return [g + 1j * size * random_hermitian(rng, g.shape[0]) for g in gens]


def pauli_sides(scale_z: float = 1.0):
    """Side A = {I, X, Y, scale_z Z} (x) I and side B = I (x) {I, X, Y, Z} at d = 4."""
    eye = np.eye(2, dtype=complex)
    side_a = [np.kron(m, eye) for m in (eye, SX, SY, scale_z * SZ)]
    side_b = [np.kron(eye, m) for m in (eye, SX, SY, SZ)]
    return side_a, side_b


FACTOR_CASES = [(4, (2, 2)), (6, (2, 3)), (8, (2, 4)), (12, (3, 4))]


class TestCertifiedCompleteness:
    @pytest.mark.parametrize("d, factors", FACTOR_CASES)
    def test_identity_frames_certified(self, d, factors, dense_calls):
        frame = tl.TpsFrame.identity(tl.Factorization(d, factors))
        report = assert_matches_oracle(*frame_sides(frame))
        assert report.completeness and report.span_dimension == d * d
        assert dense_calls == []

    @pytest.mark.parametrize("d, factors", FACTOR_CASES)
    def test_tailored_frames_certified(self, d, factors, dense_calls):
        rng = np.random.default_rng(d)
        fac = tl.Factorization(d, factors)
        frame = tl.tailor_frame(tl.random_pure(d, rng), fac, random_target(rng, min(factors)))
        assert assert_matches_oracle(*frame_sides(frame)).completeness
        assert dense_calls == []

    def test_haar_frame_at_d36_certified(self, dense_calls):
        frame = tl.TpsFrame(tl.Factorization(36, (6, 6)), tl.random_unitary(36, 2024))
        report = assert_matches_oracle(*frame_sides(frame))
        assert report.span_dimension == 1296
        assert dense_calls == []

    @pytest.mark.parametrize("target", ["separable", "uniform", "random"])
    def test_tailored_frames_at_d36_certified(self, target, dense_calls):
        rng = np.random.default_rng(36)
        psi = tl.random_pure(36, rng)
        if target == "separable":
            spectrum = tl.TargetSpectrum.separable(6)
        elif target == "uniform":
            spectrum = tl.TargetSpectrum.uniform(6)
        else:
            spectrum = random_target(rng, 6)
        frame = tl.tailor_frame(psi, tl.Factorization(36, (6, 6)), spectrum)
        report = assert_matches_oracle(*frame_sides(frame))
        assert report.completeness and report.span_dimension == 1296
        assert dense_calls == []

    @pytest.mark.parametrize("factors", [(4, 9), (9, 4)], ids=["4x9", "9x4"])
    def test_unequal_haar_split_at_d36_certified(self, factors, dense_calls):
        frame = tl.TpsFrame(tl.Factorization(36, factors), tl.random_unitary(36, 49))
        report = assert_matches_oracle(*frame_sides(frame))
        assert report.completeness and report.span_dimension == 1296
        assert dense_calls == []

    def test_ladder_operators_take_the_dense_svd(self, dense_calls):
        # {I, sigma_+, sigma_-, Z} spans M_2 but is not Hermitian: the
        # Hermitian-defect term widens the certificate's band past the
        # products, so the dense SVD settles the count
        eye = np.eye(2, dtype=complex)
        raising = np.array([[0, 1], [0, 0]], dtype=complex)
        side_a = [np.kron(m, eye) for m in (eye, raising, raising.T, SZ)]
        side_b = [np.kron(eye, m) for m in (eye, SX, SY, SZ)]
        report = assert_matches_oracle(side_a, side_b)
        assert report.completeness and report.span_dimension == 16
        assert dense_calls == [(4, 4)]

    def test_parallel_products_of_anticommuting_sides_take_the_dense_svd(self, dense_calls):
        # X P0 and Y P0 = i X P0 (P0 = I + Z) are parallel, so the span is 1,
        # while their Jordan products X and Y are orthogonal; only the
        # commutator term keeps the certificate from counting 2
        report = assert_matches_oracle([SX, SY], [np.eye(2) + SZ])
        assert report.span_dimension == 1
        assert dense_calls == [(2, 1)]

    def test_small_anti_hermitian_defect_certified(self, dense_calls):
        rng = np.random.default_rng(11)
        frame = tl.TpsFrame(tl.Factorization(12, (3, 4)), tl.random_unitary(12, rng))
        gens_a, gens_b = frame_sides(frame)
        side_a = with_anti_hermitian_defect(gens_a.generators, 1e-11, rng)
        side_b = with_anti_hermitian_defect(gens_b.generators, 1e-11, rng)
        assert max(np.abs(g - g.conj().T).max() for g in side_a + side_b) > 1e-13
        report = assert_matches_oracle(side_a, side_b)
        assert report.completeness and report.span_dimension == 144
        assert dense_calls == []

    def test_same_side_pair_falls_back(self, dense_calls):
        gens = tl.subalgebra_generators(tl.TpsFrame.identity(FAC22), "A")
        report = assert_matches_oracle(gens, gens)
        assert report.span_dimension == 4
        assert dense_calls == [(4, 4)]

    def test_identity_against_identity(self, dense_calls):
        report = assert_matches_oracle([np.eye(4)], [np.eye(4)])
        assert report.span_dimension == 1
        assert dense_calls == []

    def test_cnot_conjugated_sides(self):
        gens_a, gens_b = frame_sides(tl.TpsFrame.identity(FAC22))
        both = assert_matches_oracle(
            tl.conjugate_subalgebra(gens_a, CNOT), tl.conjugate_subalgebra(gens_b, CNOT)
        )
        assert both.completeness
        assert_matches_oracle(tl.conjugate_subalgebra(gens_a, CNOT), gens_b)

    def test_duplicated_generator(self):
        gens_a, gens_b = frame_sides(tl.TpsFrame.identity(FAC22))
        side_a = list(gens_a.generators[:3]) + [gens_a.generators[2]]
        report = assert_matches_oracle(side_a, gens_b)
        assert report.span_dimension == 12 and not report.completeness

    def test_too_many_products_fall_back(self, dense_calls):
        gens_a, gens_b = frame_sides(tl.TpsFrame.identity(FAC22))
        side_a = list(gens_a.generators) + [gens_a.generators[1]]
        assert assert_matches_oracle(side_a, gens_b).completeness
        assert dense_calls == [(5, 4)]

    def test_product_on_rank_threshold_falls_back(self, dense_calls):
        # the four products with the scaled Z sit at exactly RANK_TOL times
        # the largest, inside the certificate's band
        assert_matches_oracle(*pauli_sides(tailor.RANK_TOL))
        assert dense_calls == [(4, 4)]

    @pytest.mark.parametrize("scale, span", [(1e-6, 16), (1e-10, 12)])
    def test_products_off_the_threshold_certified(self, scale, span, dense_calls):
        report = assert_matches_oracle(*pauli_sides(scale))
        assert report.span_dimension == span
        assert dense_calls == []

    def test_zero_generators_fall_back(self, dense_calls):
        report = assert_matches_oracle([np.zeros((4, 4))], [np.eye(4)])
        assert report.span_dimension == 0
        assert dense_calls == [(1, 1)]


FACTOR_PAIRS = [(k1, k2) for k1 in range(2, 7) for k2 in range(2, 7) if k1 * k2 <= 12]


@settings(max_examples=40, deadline=None)
@given(
    factors=st.sampled_from(FACTOR_PAIRS),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, 1e-4, 1e-8, 1e-12, 0.0]),
    drop=st.integers(0, 3),
    duplicate=st.booleans(),
    scramble_b=st.booleans(),
    hermitian_defect=st.sampled_from([0.0, 1e-11, 1e-6, 1e-2, 1.0]),
)
def test_certified_count_matches_dense_oracle(
    factors, seed, scale, drop, duplicate, scramble_b, hermitian_defect
):
    rng = np.random.default_rng(seed)
    d = factors[0] * factors[1]
    frame = tl.TpsFrame(tl.Factorization(d, factors), tl.random_unitary(d, rng))
    gens_a, gens_b = frame_sides(frame)
    side_a = list(gens_a.generators)
    i = int(rng.integers(len(side_a)))
    side_a[i] = scale * side_a[i]
    if duplicate:
        side_a.append(side_a[-1])
    side_b = list(gens_b.generators)[: max(1, len(gens_b.generators) - drop)]
    if scramble_b:
        u = tl.random_unitary(d, rng)
        side_b = [u @ g @ u.conj().T for g in side_b]
    if hermitian_defect:
        side_a = with_anti_hermitian_defect(side_a, hermitian_defect, rng)
        side_b = with_anti_hermitian_defect(side_b, hermitian_defect, rng)
    with mock.patch.object(
        tailor, "_dense_span_dimension", wraps=tailor._dense_span_dimension
    ) as dense:
        assert_matches_oracle(side_a, side_b)
    # the dense SVD runs exactly when the certificate cannot settle the count
    certified = tailor._certified_span_dimension(side_a, side_b) is not None
    assert dense.called != certified
    event("certified" if certified else "dense fallback")


class TestNonFiniteGenerators:
    def test_subalgebra_basis_rejects_nan(self):
        frame = tl.TpsFrame.identity(FAC22)
        gens = list(tl.subalgebra_generators(frame, "A").generators)
        gens[1] = gens[1].copy()
        gens[1][0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            tl.SubalgebraBasis(4, tuple(gens), "A", frame)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_check_zanardi_rejects_non_finite_sequence(self, bad):
        gen = np.eye(4, dtype=complex)
        gen[2, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            tl.check_zanardi([np.eye(4)], [gen])


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
