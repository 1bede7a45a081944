"""Tests for frame tailoring and the subsystem-criteria checker."""

import tracemalloc

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


def conjugate_subalgebra(gens: tl.SubalgebraBasis, u: np.ndarray) -> tl.SubalgebraBasis:
    """The side rebuilt in the frame ``V U^dag`` of its frame V: generators ``U G U^dag``."""
    frame = tl.TpsFrame(gens.frame.factorization, gens.frame.frame @ np.conj(u).T)
    return tl.subalgebra_generators(frame, gens.side)


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


def loop_hermitian_basis(k: int) -> list[np.ndarray]:
    """The generalized Gell-Mann basis built one matrix at a time."""
    mats = [np.eye(k, dtype=complex)]
    for a in range(k):
        for b in range(a + 1, k):
            sym = np.zeros((k, k), dtype=complex)
            sym[a, b] = sym[b, a] = 1.0
            antisym = np.zeros((k, k), dtype=complex)
            antisym[a, b], antisym[b, a] = -1.0j, 1.0j
            mats += [sym, antisym]
    for level in range(1, k):
        diag = np.zeros(k)
        diag[:level], diag[level] = 1.0, -level
        mats.append(np.sqrt(2.0 / (level * (level + 1))) * np.diag(diag).astype(complex))
    return mats


@pytest.mark.parametrize("k", range(1, 8))
def test_hermitian_basis_matches_loop(k):
    basis = tailor._hermitian_basis(k)
    assert basis.shape == (k * k, k, k)
    assert np.array_equal(basis, np.array(loop_hermitian_basis(k)))


def kron_generators(frame: tl.TpsFrame, side: str) -> np.ndarray:
    """``F^dag (X (x) I) F`` or ``F^dag (I (x) X) F`` over the Gell-Mann loop, with np.kron."""
    f, (k1, k2) = frame.frame, frame.factorization.factors
    if side == "A":
        ops = [np.kron(x, np.eye(k2)) for x in loop_hermitian_basis(k1)]
    else:
        ops = [np.kron(np.eye(k1), x) for x in loop_hermitian_basis(k2)]
    return np.array([f.conj().T @ op @ f for op in ops])


def oracle_frame(kind: str, factors) -> tl.TpsFrame:
    fac = tl.Factorization(factors[0] * factors[1], factors)
    if kind == "identity":
        return tl.TpsFrame.identity(fac)
    if kind == "haar":
        return tl.TpsFrame(fac, tl.random_unitary(fac.d, 41))
    target = random_target(np.random.default_rng(43), min(factors))
    return tl.tailor_frame(tl.random_pure(fac.d, 42), fac, target)


@pytest.mark.parametrize("factors", [(2, 3), (3, 2), (4, 9), (6, 6)])
@pytest.mark.parametrize("kind", ["identity", "haar", "tailored"])
@pytest.mark.parametrize("side", ["A", "B"])
def test_generators_match_the_kron_oracle(factors, kind, side):
    frame = oracle_frame(kind, factors)
    got = tl.subalgebra_generators(frame, side).generators
    want = kron_generators(frame, side)
    if kind == "identity":
        # the Pauli and Gell-Mann stacks themselves, bit for bit
        assert np.array_equal(got, want)
    assert np.abs(got - want).max() <= 1e-12


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

    @pytest.mark.parametrize("d, factors", [(4, (2, 2)), (6, (2, 3)), (12, (4, 3))])
    def test_generators_are_one_read_only_stack(self, d, factors):
        frame = tl.TpsFrame(tl.Factorization(d, factors), tl.random_unitary(d, 3))
        for side, k in zip("AB", factors):
            gens = tl.subalgebra_generators(frame, side).generators
            assert isinstance(gens, np.ndarray) and gens.dtype == complex
            assert gens.shape == (k * k, d, d)
            assert not gens.flags.writeable
            with pytest.raises(ValueError):
                gens[0, 0, 0] = 2.0

    def test_unknown_side_is_rejected(self):
        frame = tl.TpsFrame.identity(FAC22)
        gens = tl.subalgebra_generators(frame, "A").generators
        with pytest.raises(ValueError, match="^side must be 'A' or 'B', got 'C'$"):
            tl.subalgebra_generators(frame, "C")
        with pytest.raises(ValueError, match="^side must be 'A' or 'B', got 'C'$"):
            tl.SubalgebraBasis(gens, "C", frame)

    def test_generator_count_keeps_its_message(self):
        frame = tl.TpsFrame.identity(FAC22)
        gens = tl.subalgebra_generators(frame, "A").generators
        with pytest.raises(ValueError, match="expected 4 generators for factor 2, got 3"):
            tl.SubalgebraBasis(gens[:3], "A", frame)

    def test_non_array_generators_are_rejected(self):
        frame = tl.TpsFrame.identity(FAC22)
        with pytest.raises(ValueError, match="expected 4 generators for factor 2, got 0"):
            tl.SubalgebraBasis(5, "A", frame)

    def test_basis_of_another_dimension_is_rejected(self):
        # the frame factors d = 4, while the generators act on dimension 6
        frame = tl.TpsFrame.identity(FAC22)
        rng = np.random.default_rng(7)
        gens = [random_hermitian(rng, 6) for _ in range(4)]
        with pytest.raises(ValueError, match="dimension 6 for a frame of dimension 4"):
            tl.SubalgebraBasis(gens, "A", frame)

    def test_peak_memory_at_d144_stays_below_two_and_a_half_stacks(self):
        # the conjugation holds at most two stacks and the Hermitian check walks
        # the copy in bounded pieces; four stacks were held before (192 MB)
        frame = tl.TpsFrame.identity(tl.Factorization(144, (12, 12)))
        tracemalloc.start()
        try:
            gens = tl.subalgebra_generators(frame, "A").generators
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gens.shape == (144, 144, 144)
        assert peak <= 2.5 * gens.nbytes, peak / gens.nbytes

    def test_expectation_values_match_product_basis(self):
        # <psi| G |psi> = <U psi| A (x) I |U psi> is the defining property
        frame = tl.TpsFrame(FAC22, tl.random_unitary(4, 31))
        psi = tl.random_pure(4, 32)
        rotated = frame.frame @ psi.amplitudes
        gens = tl.subalgebra_generators(frame, "A")
        for g, a in zip(gens.generators, tailor._hermitian_basis(2)):
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
        assert report.commutator_route == "measured"

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

    def test_peak_memory_at_d144_stays_below_two_and_a_half_stacks(self):
        # both SubalgebraBasis stacks are used as they are, and the witness pulls back
        # one side at a time; holding both pullbacks took four stacks at the peak
        frame = tl.TpsFrame(tl.Factorization(144, (12, 12)), tl.random_unitary(144, 11))
        gens_a, gens_b = frame_sides(frame)
        tracemalloc.start()
        try:
            report = tl.check_zanardi(gens_a, gens_b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.commutator_route == "frame" and report.completeness
        assert peak <= 2.5 * gens_a.generators.nbytes, peak / gens_a.generators.nbytes

    def test_local_accessibility_is_flagged_not_assessed(self):
        frame = tl.TpsFrame.identity(FAC22)
        report = tl.check_zanardi(
            tl.subalgebra_generators(frame, "A"), tl.subalgebra_generators(frame, "B")
        )
        assert "not assessed" in report.local_accessibility


def dense_span_oracle(gens_a, gens_b) -> tuple[int, bool]:
    """Span dimension and completeness from the SVD of the full product matrix.

    The count of ``check_zanardi``'s dense route, built here pair by pair:
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


def frame_stacks(frame: tl.TpsFrame):
    """The two sides as plain arrays, which skip the frame witness for the dense SVD."""
    return tuple(side.generators for side in frame_sides(frame))


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
    """Counts of inputs the frame witness does not take, certified against the oracle.

    Plain sequences and arrays, and sides that are not A and B of one frame, take
    the dense SVD inside ``check_zanardi``.
    """

    @pytest.mark.parametrize("d, factors", FACTOR_CASES)
    def test_identity_frames_certified(self, d, factors, dense_calls):
        frame = tl.TpsFrame.identity(tl.Factorization(d, factors))
        report = assert_matches_oracle(*frame_stacks(frame))
        assert report.completeness and report.span_dimension == d * d
        assert dense_calls == [(factors[0] ** 2, factors[1] ** 2)]

    @pytest.mark.parametrize("d, factors", FACTOR_CASES)
    def test_tailored_frames_certified(self, d, factors, dense_calls):
        rng = np.random.default_rng(d)
        fac = tl.Factorization(d, factors)
        frame = tl.tailor_frame(tl.random_pure(d, rng), fac, random_target(rng, min(factors)))
        assert assert_matches_oracle(*frame_stacks(frame)).completeness
        assert dense_calls == [(factors[0] ** 2, factors[1] ** 2)]

    def test_haar_frame_at_d36_certified(self, dense_calls):
        frame = tl.TpsFrame(tl.Factorization(36, (6, 6)), tl.random_unitary(36, 2024))
        report = assert_matches_oracle(*frame_stacks(frame))
        assert report.span_dimension == 1296
        assert dense_calls == [(36, 36)]

    # the separable and uniform targets, and the 9 x 4 split, are frame witness cases
    @pytest.mark.parametrize("target", ["random"])
    def test_tailored_frames_at_d36_certified(self, target, dense_calls):
        rng = np.random.default_rng(36)
        psi = tl.random_pure(36, rng)
        frame = tl.tailor_frame(psi, tl.Factorization(36, (6, 6)), random_target(rng, 6))
        report = assert_matches_oracle(*frame_stacks(frame))
        assert report.completeness and report.span_dimension == 1296
        assert dense_calls == [(36, 36)]

    @pytest.mark.parametrize("factors", [(4, 9)], ids=["4x9"])
    def test_unequal_haar_split_at_d36_certified(self, factors, dense_calls):
        frame = tl.TpsFrame(tl.Factorization(36, factors), tl.random_unitary(36, 49))
        report = assert_matches_oracle(*frame_stacks(frame))
        assert report.completeness and report.span_dimension == 1296
        assert dense_calls == [(16, 81)]

    def test_ladder_operators_take_the_dense_svd(self, dense_calls):
        # {I, sigma_+, sigma_-, Z} spans M_2 but is not Hermitian
        eye = np.eye(2, dtype=complex)
        raising = np.array([[0, 1], [0, 0]], dtype=complex)
        side_a = [np.kron(m, eye) for m in (eye, raising, raising.T, SZ)]
        side_b = [np.kron(eye, m) for m in (eye, SX, SY, SZ)]
        report = assert_matches_oracle(side_a, side_b)
        assert report.completeness and report.span_dimension == 16
        assert dense_calls == [(4, 4)]

    def test_parallel_products_of_anticommuting_sides_take_the_dense_svd(self, dense_calls):
        # X P0 and Y P0 = i X P0 (P0 = I + Z) are parallel, so the span is 1
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
        assert dense_calls == [(9, 16)]

    def test_same_side_pair_falls_back(self, dense_calls):
        gens = tl.subalgebra_generators(tl.TpsFrame.identity(FAC22), "A")
        report = assert_matches_oracle(gens, gens)
        assert report.span_dimension == 4
        assert dense_calls == [(4, 4)]

    def test_identity_against_identity(self, dense_calls):
        report = assert_matches_oracle([np.eye(4)], [np.eye(4)])
        assert report.span_dimension == 1
        assert dense_calls == [(1, 1)]

    def test_cnot_conjugated_sides(self):
        gens_a, gens_b = frame_sides(tl.TpsFrame.identity(FAC22))
        both = assert_matches_oracle(
            conjugate_subalgebra(gens_a, CNOT), conjugate_subalgebra(gens_b, CNOT)
        )
        assert both.completeness
        assert_matches_oracle(conjugate_subalgebra(gens_a, CNOT), gens_b)

    def test_duplicated_generator(self):
        gens_a, gens_b = frame_sides(tl.TpsFrame.identity(FAC22))
        side_a = list(gens_a.generators[:3]) + [gens_a.generators[2]]
        report = assert_matches_oracle(side_a, gens_b)
        assert report.span_dimension == 12 and not report.completeness

    @pytest.mark.parametrize("seed", range(5))
    def test_duplicated_generator_of_haar_frame_certified(self, seed, dense_calls):
        frame = tl.TpsFrame(tl.Factorization(12, (3, 4)), tl.random_unitary(12, seed))
        gens_a, gens_b = frame_sides(frame)
        side_a = np.concatenate([gens_a.generators[:5], gens_a.generators[4:5]])
        report = assert_matches_oracle(side_a, gens_b)
        assert report.span_dimension == 80 and not report.completeness
        assert dense_calls == [(6, 16)]

    def test_too_many_products_fall_back(self, dense_calls):
        gens_a, gens_b = frame_sides(tl.TpsFrame.identity(FAC22))
        side_a = list(gens_a.generators) + [gens_a.generators[1]]
        assert assert_matches_oracle(side_a, gens_b).completeness
        assert dense_calls == [(5, 4)]

    def test_product_on_rank_threshold_falls_back(self, dense_calls):
        # the four products with the scaled Z sit at exactly RANK_TOL times the largest
        assert_matches_oracle(*pauli_sides(tailor.RANK_TOL))
        assert dense_calls == [(4, 4)]

    @pytest.mark.parametrize("scale, span", [(1e-6, 16), (1e-10, 12)])
    def test_products_off_the_threshold_certified(self, scale, span, dense_calls):
        report = assert_matches_oracle(*pauli_sides(scale))
        assert report.span_dimension == span
        assert dense_calls == [(4, 4)]

    def test_zero_generators_fall_back(self, dense_calls):
        report = assert_matches_oracle([np.zeros((4, 4))], [np.eye(4)])
        assert report.span_dimension == 0
        assert dense_calls == [(1, 1)]


FACTOR_PAIRS = [(k1, k2) for k1 in range(2, 7) for k2 in range(2, 7) if k1 * k2 <= 12]


def test_two_span_routes(dense_calls):
    # the frame witness and the dense SVD are the only routes to the span count
    assert not hasattr(tailor, "_certified_span_dimension")
    tl.check_zanardi(*frame_stacks(tl.TpsFrame.identity(FAC22)))
    assert dense_calls == [(4, 4)]


def witness_matches_oracle(gens_a, gens_b) -> int | None:
    """The frame witness's count, after checking it and the report against the oracle."""
    span, _ = dense_span_oracle(gens_a, gens_b)
    witnessed, _ = tailor._frame_witness(gens_a, gens_b)
    assert witnessed is None or witnessed == span
    assert tl.check_zanardi(gens_a, gens_b).span_dimension == span
    return witnessed


def embedded(frame: tl.TpsFrame, product_operator: np.ndarray) -> np.ndarray:
    """A product-basis operator moved to the native basis, ``U^dag M U``."""
    u = frame.frame
    return u.conj().T @ product_operator @ u


def with_duplicate(gens: tl.SubalgebraBasis, replaced: int, kept: int, extra=None):
    """The basis with generator ``replaced`` swapped for a copy of ``kept``, plus ``extra``."""
    stack = np.array(gens.generators)
    stack[replaced] = stack[kept] if extra is None else stack[kept] + extra
    return tl.SubalgebraBasis(stack, gens.side, gens.frame)


WITNESS_FRAMES = [
    ("identity", 4, (2, 2)),
    ("identity", 12, (3, 4)),
    ("haar", 6, (2, 3)),
    ("haar", 12, (4, 3)),
    ("haar", 36, (4, 9)),
    ("haar", 36, (6, 6)),
    ("tailored", 8, (2, 4)),
    ("tailored", 36, (6, 6)),
    ("haar", 36, (9, 4)),
    ("separable", 36, (6, 6)),
    ("uniform", 36, (6, 6)),
]
SMALL_WITNESS_FRAMES = [case for case in WITNESS_FRAMES if case[1] <= 12]


def witness_frame(kind: str, d: int, factors) -> tl.TpsFrame:
    fac = tl.Factorization(d, factors)
    if kind == "identity":
        return tl.TpsFrame.identity(fac)
    if kind == "haar":
        return tl.TpsFrame(fac, tl.random_unitary(d, d + factors[0]))
    rng = np.random.default_rng(d)
    psi, width = tl.random_pure(d, rng), min(factors)
    if kind == "separable":
        return tl.tailor_frame(psi, fac, tl.TargetSpectrum.separable(width))
    if kind == "uniform":
        return tl.tailor_frame(psi, fac, tl.TargetSpectrum.uniform(width))
    return tl.tailor_frame(psi, fac, random_target(rng, width))


class TestFrameWitness:
    @pytest.mark.parametrize("kind, d, factors", WITNESS_FRAMES)
    def test_counts_the_full_span_through_the_frame(self, kind, d, factors, dense_calls):
        frame = witness_frame(kind, d, factors)
        assert witness_matches_oracle(*frame_sides(frame)) == d * d
        assert dense_calls == []

    @pytest.mark.parametrize("kind, d, factors", SMALL_WITNESS_FRAMES)
    def test_duplicated_generator(self, kind, d, factors, dense_calls):
        gens_a, gens_b = frame_sides(witness_frame(kind, d, factors))
        side_a = with_duplicate(gens_a, replaced=1, kept=2)
        k2 = factors[1]
        assert witness_matches_oracle(side_a, gens_b) == d * d - k2 * k2
        assert dense_calls == []

    @pytest.mark.parametrize("kind, d, factors", WITNESS_FRAMES)
    def test_frame_keeps_the_defect_it_measured(self, kind, d, factors):
        frame = witness_frame(kind, d, factors)
        gens = tl.subalgebra_generators(frame, "A")
        conjugated = conjugate_subalgebra(gens, tl.random_unitary(d, 9)).frame
        for f in (frame, conjugated):
            u = f.frame
            assert type(f.defect) is float
            assert f.defect == np.linalg.norm(u.conj().T @ u - np.eye(d))
        if kind == "identity":
            assert frame.defect == 0.0

    def test_witness_reads_the_kept_defect(self, dense_calls):
        frame = tl.TpsFrame(tl.Factorization(12, (3, 4)), tl.random_unitary(12, 7))
        gens_a, gens_b = frame_sides(frame)
        assert tl.check_zanardi(gens_a, gens_b).commutator_route == "frame"
        assert dense_calls == []
        # a defect of 2 leaves the witness no bound, so both routes fall back
        object.__setattr__(frame, "defect", 2.0)
        report = tl.check_zanardi(gens_a, gens_b)
        assert report.commutator_route == "measured" and len(dense_calls) == 1
        assert report.independence and report.completeness

    def test_sides_of_equal_frames_take_it(self, dense_calls):
        # two TpsFrame objects made from one matrix: equal factorizations and equal arrays
        fac, u = tl.Factorization(12, (3, 4)), tl.random_unitary(12, 7)
        gens_a = tl.subalgebra_generators(tl.TpsFrame(fac, u), "A")
        gens_b = tl.subalgebra_generators(tl.TpsFrame(fac, u), "B")
        assert gens_a.frame is not gens_b.frame
        report = tl.check_zanardi(gens_a, gens_b)
        assert report.commutator_route == "frame" and report.completeness
        assert dense_calls == []

    def test_sides_of_two_frames_skip_it(self):
        fac = tl.Factorization(12, (3, 4))
        gens_a = tl.subalgebra_generators(tl.TpsFrame(fac, tl.random_unitary(12, 1)), "A")
        gens_b = tl.subalgebra_generators(tl.TpsFrame(fac, tl.random_unitary(12, 2)), "B")
        assert witness_matches_oracle(gens_a, gens_b) is None

    def test_one_conjugated_side_skips_it(self):
        frame = tl.TpsFrame(tl.Factorization(12, (3, 4)), tl.random_unitary(12, 3))
        gens_a, gens_b = frame_sides(frame)
        u = tl.random_unitary(12, 4)
        assert witness_matches_oracle(conjugate_subalgebra(gens_a, u), gens_b) is None
        assert witness_matches_oracle(gens_a, conjugate_subalgebra(gens_b, u)) is None

    def test_same_side_twice_skips_it(self):
        gens_a, gens_b = frame_sides(tl.TpsFrame.identity(FAC22))
        assert witness_matches_oracle(gens_a, gens_a) is None
        assert witness_matches_oracle(gens_b, gens_a) is None

    @pytest.mark.parametrize("d, factors", [(4, (2, 2)), (12, (3, 4)), (36, (6, 6))])
    def test_frame_its_generators_do_not_match_falls_back(self, d, factors):
        # both sides carry one frame, but their generators come from another:
        # the residuals are of the generators' own size and the band fails
        fac = tl.Factorization(d, factors)
        gens_a, gens_b = frame_sides(tl.TpsFrame(fac, tl.random_unitary(d, 5)))
        wrong = tl.TpsFrame(fac, tl.random_unitary(d, 6))
        side_a, side_b = (
            tl.SubalgebraBasis(g.generators, g.side, wrong) for g in (gens_a, gens_b)
        )
        assert witness_matches_oracle(side_a, side_b) is None

    @pytest.mark.parametrize("kind, d, factors", SMALL_WITNESS_FRAMES)
    def test_non_product_perturbation_moves_the_count_or_falls_back(self, kind, d, factors):
        # generator 1 is replaced by a copy of generator 2 plus 1e-6 (lambda_1 (x) Y)
        # for the traceless, invertible Y = diag(1, ..., 1, 1 - k2): the partial
        # trace leaves the duplicate's model unchanged, while the products regain
        # the lost lambda_1 (x) M_k2 directions at about 1e-6 of the largest
        frame = witness_frame(kind, d, factors)
        gens_a, gens_b = frame_sides(frame)
        k1, k2 = factors
        y = np.diag(np.append(np.ones(k2 - 1), 1 - k2))
        extra = 1e-6 * embedded(frame, np.kron(tailor._hermitian_basis(k1)[1], y))
        before = witness_matches_oracle(with_duplicate(gens_a, replaced=1, kept=2), gens_b)
        assert before == d * d - k2 * k2
        perturbed = with_duplicate(gens_a, replaced=1, kept=2, extra=extra)
        after = witness_matches_oracle(perturbed, gens_b)
        assert after is None or after != before
        assert tl.check_zanardi(perturbed, gens_b).completeness

    def test_generator_scaled_onto_the_threshold_falls_back(self):
        gens_a, gens_b = frame_sides(tl.TpsFrame.identity(FAC22))
        stack = np.array(gens_a.generators)
        stack[3] *= tailor.RANK_TOL
        side_a = tl.SubalgebraBasis(stack, "A", gens_a.frame)
        assert witness_matches_oracle(side_a, gens_b) is None


@settings(max_examples=40, deadline=None)
@given(
    factors=st.sampled_from(FACTOR_PAIRS),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, 1e-4, 1e-8, 1e-12, 0.0]),
    duplicate=st.booleans(),
    perturbation=st.sampled_from([0.0, 1e-12, 1e-6, 1e-2]),
)
def test_witness_count_matches_dense_oracle(factors, seed, scale, duplicate, perturbation):
    rng = np.random.default_rng(seed)
    d = factors[0] * factors[1]
    frame = tl.TpsFrame(tl.Factorization(d, factors), tl.random_unitary(d, rng))
    gens_a, gens_b = frame_sides(frame)
    stack = np.array(gens_a.generators)
    i, j = rng.choice(len(stack), 2, replace=False)
    stack[i] *= scale
    if duplicate:
        stack[j] = stack[i]
    if perturbation:
        stack[j] += perturbation * random_hermitian(rng, d)
    side_a = tl.SubalgebraBasis(stack, "A", frame)
    witnessed = witness_matches_oracle(side_a, gens_b)
    event("witnessed" if witnessed is not None else "fallback")


def measured_commutator(gens_a, gens_b) -> float:
    """The largest cross-commutator Frobenius norm, formed pair by pair."""
    pairs = ((a, b) for a in gens_a.generators for b in gens_b.generators)
    return max(np.linalg.norm(a @ b - b @ a) for a, b in pairs)


def perturbed_side(gens: tl.SubalgebraBasis, size: float, rng, count=None):
    """The basis with ``size`` times its own random unit Hermitian added to generators."""
    stack = np.array(gens.generators)
    for i in range(len(stack) if count is None else count):
        stack[i] += size * random_hermitian(rng, gens.frame.d)
    return tl.SubalgebraBasis(stack, gens.side, gens.frame)


BOUND_FRAMES = [
    ("identity", 4, (2, 2)),
    ("identity", 12, (3, 4)),
    ("haar", 12, (3, 4)),
    ("tailored", 36, (6, 6)),
    ("haar", 36, (6, 6)),
    ("haar", 36, (4, 9)),
    ("haar", 64, (8, 8)),
]


class TestCommutatorBound:
    @pytest.mark.parametrize("kind, d, factors", BOUND_FRAMES)
    def test_bound_covers_the_measured_maximum(self, kind, d, factors):
        gens_a, gens_b = frame_sides(witness_frame(kind, d, factors))
        report = tl.check_zanardi(gens_a, gens_b)
        assert report.commutator_route == "frame" and report.independence
        bound = report.max_commutator_norm
        assert measured_commutator(gens_a, gens_b) <= bound < tailor.COMMUTATOR_TOL

    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("d, factors", [(12, (3, 4)), (36, (4, 9))])
    def test_bound_covers_a_perturbed_side(self, side, d, factors):
        # each generator of one side moves by 1e-10 off its algebra, so the
        # commutators are about 1e-10 and only that side's residual terms cover them
        rng = np.random.default_rng(d)
        gens_a, gens_b = frame_sides(witness_frame("haar", d, factors))
        if side == "A":
            gens_a = perturbed_side(gens_a, 1e-10, rng)
        else:
            gens_b = perturbed_side(gens_b, 1e-10, rng)
        report = tl.check_zanardi(gens_a, gens_b)
        measured = measured_commutator(gens_a, gens_b)
        assert measured > 1e-11
        assert report.commutator_route == "frame"
        assert measured <= report.max_commutator_norm < tailor.COMMUTATOR_TOL

    @pytest.mark.parametrize("d, factors", [(4, (2, 2)), (12, (3, 4))])
    def test_bound_covers_a_frame_defect(self, d, factors):
        # F = U (I + 2e-11 H) passes the unitarity check; the generators
        # F^-1 (A (x) I) F^-dag pull back to the algebra exactly, so only the
        # frame-defect term covers their commutators of about 5e-11
        rng = np.random.default_rng(3)
        f = tl.random_unitary(d, rng) @ (np.eye(d) + 2e-11 * random_hermitian(rng, d))
        frame = tl.TpsFrame(tl.Factorization(d, factors), f)
        inverse = np.linalg.inv(f)
        product_frame = tl.TpsFrame.identity(frame.factorization)
        sides = []
        for side in ("A", "B"):
            product = tl.subalgebra_generators(product_frame, side).generators
            stack = inverse @ product @ inverse.conj().T
            stack = 0.5 * (stack + np.swapaxes(stack, 1, 2).conj())
            sides.append(tl.SubalgebraBasis(stack, side, frame))
        report = tl.check_zanardi(*sides)
        measured = measured_commutator(*sides)
        assert measured > 1e-11
        assert report.commutator_route == "frame"
        assert measured <= report.max_commutator_norm < tailor.COMMUTATOR_TOL

    def test_perturbed_generator_takes_the_measured_loop(self):
        rng = np.random.default_rng(7)
        gens_a, gens_b = frame_sides(witness_frame("haar", 12, (3, 4)))
        side_a = perturbed_side(gens_a, 1e-6, rng, count=1)
        report = tl.check_zanardi(side_a, gens_b)
        assert report.commutator_route == "measured" and not report.independence
        plain = tl.check_zanardi(side_a.generators, gens_b.generators)
        assert report.max_commutator_norm == plain.max_commutator_norm

    def test_sides_of_two_frames_take_the_measured_loop(self):
        fac = tl.Factorization(12, (3, 4))
        gens_a = tl.subalgebra_generators(tl.TpsFrame(fac, tl.random_unitary(12, 1)), "A")
        gens_b = tl.subalgebra_generators(tl.TpsFrame(fac, tl.random_unitary(12, 2)), "B")
        report = tl.check_zanardi(gens_a, gens_b)
        assert report.commutator_route == "measured" and not report.independence
        assert report.max_commutator_norm == pytest.approx(measured_commutator(gens_a, gens_b))

    def test_same_side_pairs_take_the_measured_loop(self):
        gens_a, gens_b = frame_sides(witness_frame("haar", 12, (3, 4)))
        for pair in ((gens_a, gens_a), (gens_b, gens_b), (gens_b, gens_a)):
            report = tl.check_zanardi(*pair)
            assert report.commutator_route == "measured"
        assert tl.check_zanardi(gens_a, gens_a).max_commutator_norm > 1.0


@settings(max_examples=40, deadline=None)
@given(
    factors=st.sampled_from(FACTOR_PAIRS),
    seed=st.integers(0, 2**32 - 1),
    side=st.sampled_from("AB"),
    size=st.sampled_from([0.0, 1e-12, 1e-10, 3e-9, 1e-6]),
)
def test_commutator_route_matches_the_pair_loop(factors, seed, side, size):
    # the frame route bounds the pair loop from above; the measured route is the loop
    rng = np.random.default_rng(seed)
    d = factors[0] * factors[1]
    frame = tl.TpsFrame(tl.Factorization(d, factors), tl.random_unitary(d, rng))
    gens_a, gens_b = frame_sides(frame)
    if side == "A":
        gens_a = perturbed_side(gens_a, size, rng)
    else:
        gens_b = perturbed_side(gens_b, size, rng)
    report = tl.check_zanardi(gens_a, gens_b)
    measured = measured_commutator(gens_a, gens_b)
    event(report.commutator_route)
    assert report.commutator_route == "frame" or size > 1e-10
    if report.commutator_route == "frame":
        assert measured <= report.max_commutator_norm < tailor.COMMUTATOR_TOL
    else:
        assert abs(report.max_commutator_norm - measured) <= 1e-14 * measured
    assert report.independence == (report.max_commutator_norm < tailor.COMMUTATOR_TOL)


class TestGeneratorStacks:
    def test_three_dimensional_array_equals_list(self):
        frame = tl.TpsFrame(tl.Factorization(12, (3, 4)), tl.random_unitary(12, 21))
        gens_a, gens_b = frame_sides(frame)
        stacked = tl.check_zanardi(np.array(gens_a.generators), np.array(gens_b.generators))
        listed = tl.check_zanardi(list(gens_a.generators), list(gens_b.generators))
        assert stacked == listed
        # the bases take the frame bound in place of the measured maximum
        framed = tl.check_zanardi(gens_a, gens_b)
        assert framed.commutator_route == "frame" and listed.commutator_route == "measured"
        assert listed.max_commutator_norm <= framed.max_commutator_norm < tailor.COMMUTATOR_TOL
        assert (framed.independence, framed.completeness, framed.span_dimension) == (
            listed.independence, listed.completeness, listed.span_dimension
        )

    def test_empty_set_is_rejected(self):
        for side_a, side_b in (([], [np.eye(4)]), ([np.eye(4)], np.zeros((0, 4, 4)))):
            with pytest.raises(ValueError, match="nonempty"):
                tl.check_zanardi(side_a, side_b)

    @pytest.mark.parametrize(
        "side_a, side_b",
        [
            ([np.ones((4, 3))], [np.ones((4, 3))]),
            ([np.eye(4)], [np.eye(3)]),
            (np.eye(4), [np.eye(4)]),
        ],
        ids=["non-square", "mismatched-d", "single-matrix"],
    )
    def test_bad_shapes_are_rejected(self, side_a, side_b):
        with pytest.raises(ValueError, match="does not match"):
            tl.check_zanardi(side_a, side_b)

    def test_commutator_norm_matches_pair_loop(self):
        # the stacked norms sum in another order: equal to a few ulps of the largest
        rng = np.random.default_rng(6)
        side_a = [random_hermitian(rng, 6) for _ in range(5)]
        side_b = [random_hermitian(rng, 6) for _ in range(7)]
        want = max(np.linalg.norm(a @ b - b @ a) for a in side_a for b in side_b)
        got = tl.check_zanardi(side_a, side_b).max_commutator_norm
        assert abs(got - want) <= 1e-14 * want

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_stack_is_rejected(self, bad):
        stack = np.array([np.eye(4), np.eye(4)], dtype=complex)
        stack[1, 0, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            tl.check_zanardi(stack, [np.eye(4)])


class TestNonFiniteGenerators:
    def test_subalgebra_basis_rejects_nan(self):
        frame = tl.TpsFrame.identity(FAC22)
        gens = list(tl.subalgebra_generators(frame, "A").generators)
        gens[1] = gens[1].copy()
        gens[1][0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            tl.SubalgebraBasis(tuple(gens), "A", frame)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_check_zanardi_rejects_non_finite_sequence(self, bad):
        gen = np.eye(4, dtype=complex)
        gen[2, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            tl.check_zanardi([np.eye(4)], [gen])


class TestConjugateSubalgebra:
    """A side rebuilt in a composed frame, through ``conjugate_subalgebra`` above."""

    def test_identity_leaves_generators(self):
        gens = tl.subalgebra_generators(tl.TpsFrame.identity(FAC22), "A")
        out = conjugate_subalgebra(gens, np.eye(4))
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
                conjugate_subalgebra(gens_a, u), conjugate_subalgebra(gens_b, u)
            )
            assert report.independence == base.independence
            assert report.completeness == base.completeness

    def test_cnot_maps_pauli_onto_product_pauli(self):
        # CNOT is Clifford: the conjugated generator X (x) I becomes X (x) X,
        # which is still a product operator (operator Schmidt rank 1) but no
        # longer lives in the A-side algebra M_2 (x) I.
        gens = tl.subalgebra_generators(tl.TpsFrame.identity(FAC22), "A")
        out = conjugate_subalgebra(gens, CNOT)
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
        out = conjugate_subalgebra(gens, tl.random_unitary(4, 99))
        ranks = [tl.operator_schmidt_rank(g, FAC22) for g in out.generators[1:]]
        assert max(ranks) > 1

    def test_frame_updated_consistently(self):
        frame = tl.TpsFrame(FAC22, tl.random_unitary(4, 40))
        gens = tl.subalgebra_generators(frame, "A")
        u = tl.random_unitary(4, 41)
        out = conjugate_subalgebra(gens, u)
        assert out.side == "A"
        for got, g in zip(out.generators, gens.generators):
            np.testing.assert_allclose(got, u @ g @ u.conj().T, atol=1e-12)

    def test_rejects_non_unitary(self):
        gens = tl.subalgebra_generators(tl.TpsFrame.identity(FAC22), "A")
        with pytest.raises(ValueError, match="unitary"):
            conjugate_subalgebra(gens, np.diag([1.0, 2.0, 1.0, 1.0]))
