"""Tests for finite-dimensional states, frames and measures.

The reduced-state, partial-transpose and reshuffling oracles below are
independent loop implementations kept deliberately naive; the library must
agree with them, not the other way around.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tpslab as tl
from tpslab.findim import spectrum

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)

FRAME22 = tl.TpsFrame.identity(tl.Factorization(4, (2, 2)))


def partial_trace_loops(mat: np.ndarray, k1: int, k2: int, side: str) -> np.ndarray:
    """Index-summation oracle for the reduced state, written as bare loops."""
    if side == "A":
        out = np.zeros((k1, k1), dtype=complex)
        for a in range(k1):
            for c in range(k1):
                for b in range(k2):
                    out[a, c] += mat[a * k2 + b, c * k2 + b]
    else:
        out = np.zeros((k2, k2), dtype=complex)
        for b in range(k2):
            for c in range(k2):
                for a in range(k1):
                    out[b, c] += mat[a * k2 + b, a * k2 + c]
    return out


def partial_transpose_loops(mat: np.ndarray, k1: int, k2: int) -> np.ndarray:
    """Brute-force partial transpose on the second factor."""
    out = np.zeros_like(mat)
    for a in range(k1):
        for b in range(k2):
            for c in range(k1):
                for e in range(k2):
                    out[a * k2 + b, c * k2 + e] = mat[a * k2 + e, c * k2 + b]
    return out


def schmidt_rank_loops(mat: np.ndarray, k1: int, k2: int, tol: float = 1e-10) -> int:
    """Brute-force reshuffle plus SVD, nothing shared with the library path."""
    resh = np.zeros((k1 * k1, k2 * k2), dtype=complex)
    for a in range(k1):
        for ap in range(k1):
            for b in range(k2):
                for bp in range(k2):
                    resh[a * k1 + ap, b * k2 + bp] = mat[a * k2 + b, ap * k2 + bp]
    s = np.linalg.svd(resh, compute_uv=False)
    return int(np.count_nonzero(s > tol * s[0]))


class TestTypes:
    def test_pure_state_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            tl.PureState(2, np.array([1.0, 1.0]))

    def test_density_matrix_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            tl.DensityMatrix(2, np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_matrix_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            tl.DensityMatrix(2, np.diag([1.5, -0.5]))

    def test_factorization_rejects_trivial_factor(self):
        with pytest.raises(ValueError):
            tl.Factorization(4, (1, 4))
        with pytest.raises(ValueError):
            tl.Factorization(6, (2, 2))

    @pytest.mark.parametrize(
        "d, factors, shown",
        [
            (5, (2.5, 2), "2.5"),
            (4.0, (2, 2), "4.0"),
            (4, (2.0, 2), "2.0"),
            (6, (2, 3.0), "3.0"),
            (4, ("2", 2), "'2'"),
            (4, (None, 2), "None"),
        ],
    )
    def test_factorization_rejects_non_integers(self, d, factors, shown):
        with pytest.raises(ValueError, match=f"must be integers, got {shown}"):
            tl.Factorization(d, factors)

    def test_factorization_accepts_numpy_integers(self):
        fac = tl.Factorization(np.int64(6), (np.int32(2), np.int64(3)))
        assert (fac.d, fac.factors) == (6, (2, 3))
        assert all(type(v) is int for v in (fac.d, *fac.factors))

    def test_frame_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            tl.TpsFrame(tl.Factorization(4, (2, 2)), 2.0 * np.eye(4))

    def test_frame_with_nan_defect_is_not_unitary(self):
        # finite entries whose U^dag U overflows to inf + nan i: a NaN defect
        # passes "defect > tol", so the check must read "not defect <= tol"
        u = np.kron([[1e200, 1e200], [1e200, -1e200]], np.eye(2))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=r"frame is not unitary: .* = nan"):
                tl.TpsFrame(tl.Factorization(4, (2, 2)), u)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pure_state_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            tl.PureState(2, np.array([bad, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_density_matrix_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            tl.DensityMatrix(2, np.array([[1.0, 0.0], [0.0, bad]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_frame_rejects_non_finite(self, bad):
        u = np.eye(4, dtype=complex)
        u[3, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            tl.TpsFrame(tl.Factorization(4, (2, 2)), u)

    def test_types_are_immutable(self):
        psi = tl.bell_state("phi+")
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


class TestBellStates:
    def test_phi_plus_vector(self):
        expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
        np.testing.assert_allclose(tl.bell_state("phi+").amplitudes, expected)

    def test_psi_minus_vector(self):
        expected = np.array([0, 1, -1, 0]) / np.sqrt(2)
        np.testing.assert_allclose(tl.bell_state("psi-").amplitudes, expected)
        np.testing.assert_allclose(tl.bell_state("Ψ-").amplitudes, expected)

    @pytest.mark.parametrize("label", ["phi+", "phi-", "psi+", "psi-"])
    def test_unit_norm(self, label):
        assert abs(np.linalg.norm(tl.bell_state(label).amplitudes) - 1) < 1e-15

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="Bell"):
            tl.bell_state("sigma+")


class TestApplyFrame:
    def test_identity_frame_is_noop(self):
        psi = tl.random_pure(4, 3)
        out = tl.apply_frame(psi, FRAME22)
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes)

    def test_frame_then_inverse_restores(self):
        psi = tl.random_pure(4, 5)
        u = tl.random_unitary(4, 6)
        fac = tl.Factorization(4, (2, 2))
        forward = tl.apply_frame(psi, tl.TpsFrame(fac, u))
        back = tl.apply_frame(forward, tl.TpsFrame(fac, u.conj().T))
        np.testing.assert_allclose(back.amplitudes, psi.amplitudes, atol=1e-12)

    def test_totally_mixed_state_is_fixed_point(self):
        rho = tl.DensityMatrix(4, np.eye(4) / 4)
        frame = tl.TpsFrame(tl.Factorization(4, (2, 2)), tl.random_unitary(4, 8))
        out = tl.apply_frame(rho, frame)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_dimension_mismatch(self):
        for state in (tl.random_pure(6, 0), tl.random_density(6, 2, 0)):
            with pytest.raises(ValueError, match="^state dimension 6 != frame dimension 4$"):
                tl.apply_frame(state, FRAME22)

    def test_non_state_is_rejected(self):
        with pytest.raises(TypeError, match="^expected PureState or DensityMatrix, got int$"):
            tl.apply_frame(3, FRAME22)


FAC23 = tl.Factorization(6, (2, 3))
HAAR23 = tl.TpsFrame(FAC23, tl.random_unitary(6, 61))
PSI6 = tl.random_pure(6, 62)
RHO6 = tl.random_density(6, 3, 63)

# each measure with a state of the kind it takes
MEASURES = {
    "schmidt_decompose": (lambda psi, frame: tl.schmidt_decompose(psi, frame).coefficients, PSI6),
    "entanglement_entropy": (tl.entanglement_entropy, PSI6),
    "partial_trace_A": (lambda rho, frame: tl.partial_trace(rho, frame, "A").matrix, RHO6),
    "partial_trace_B": (lambda rho, frame: tl.partial_trace(rho, frame, "B").matrix, RHO6),
    "negativity": (tl.negativity, RHO6),
}


class TestOneFrameAction:
    """Every measure moves the state into the frame's product basis the way apply_frame does."""

    @pytest.mark.parametrize("measure, state", MEASURES.values(), ids=MEASURES.keys())
    def test_haar_frame_equals_identity_frame_after_apply_frame(self, measure, state):
        moved = tl.apply_frame(state, HAAR23)
        assert np.array_equal(measure(state, HAAR23), measure(moved, tl.TpsFrame.identity(FAC23)))

    @pytest.mark.parametrize("measure, state", MEASURES.values(), ids=MEASURES.keys())
    def test_dimension_mismatch(self, measure, state):
        with pytest.raises(ValueError, match="^state dimension 6 != frame dimension 4$"):
            measure(state, FRAME22)

    @pytest.mark.parametrize("measure, state", MEASURES.values(), ids=MEASURES.keys())
    def test_measure_rejects_the_other_kind_of_state(self, measure, state):
        # a density matrix has no Schmidt spectrum here, and a pure state no partial trace
        other = RHO6 if isinstance(state, tl.PureState) else PSI6
        with pytest.raises(TypeError, match=f"^expected {type(state).__name__}, got"):
            measure(other, HAAR23)


class TestSchmidt:
    def test_bell_state_is_maximal(self):
        sd = tl.schmidt_decompose(tl.bell_state("phi+"), FRAME22)
        np.testing.assert_allclose(sd.coefficients, [0.5, 0.5], atol=1e-14)

    def test_product_state(self):
        psi = tl.PureState(4, np.array([1, 0, 0, 0], dtype=complex))
        sd = tl.schmidt_decompose(psi, FRAME22)
        np.testing.assert_allclose(sd.coefficients, [1.0, 0.0], atol=1e-14)

    def test_coefficients_match_reduced_spectrum_oracle(self):
        psi = tl.random_pure(6, 42)
        frame = tl.TpsFrame.identity(tl.Factorization(6, (2, 3)))
        sd = tl.schmidt_decompose(psi, frame)
        rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
        reduced = partial_trace_loops(rho, 2, 3, "A")
        oracle = np.sort(np.linalg.eigvalsh(reduced))[::-1]
        np.testing.assert_allclose(sd.coefficients, oracle, atol=1e-10)

    def test_reconstruction(self):
        psi = tl.random_pure(8, 9)
        frame = tl.TpsFrame(tl.Factorization(8, (2, 4)), tl.random_unitary(8, 10))
        sd = tl.schmidt_decompose(psi, frame)
        rebuilt = np.zeros(8, dtype=complex)
        for lam, u, v in zip(sd.coefficients, sd.left_vectors.T, sd.right_vectors.T):
            rebuilt += np.sqrt(lam) * np.kron(u, v)
        np.testing.assert_allclose(rebuilt, frame.frame @ psi.amplitudes, atol=1e-10)

    def test_vectors_orthonormal(self):
        psi = tl.random_pure(6, 1)
        frame = tl.TpsFrame.identity(tl.Factorization(6, (3, 2)))
        sd = tl.schmidt_decompose(psi, frame)
        np.testing.assert_allclose(
            sd.left_vectors.conj().T @ sd.left_vectors, np.eye(2), atol=1e-12
        )
        np.testing.assert_allclose(
            sd.right_vectors.conj().T @ sd.right_vectors, np.eye(2), atol=1e-12
        )

    def test_phase_convention_deterministic(self):
        psi = tl.random_pure(4, 14)
        first = tl.schmidt_decompose(psi, FRAME22)
        second = tl.schmidt_decompose(psi, FRAME22)
        np.testing.assert_array_equal(first.left_vectors, second.left_vectors)
        for i in range(first.left_vectors.shape[1]):
            col = first.left_vectors[:, i]
            lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert abs(lead.imag) < 1e-12 and lead.real > 0


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        rho = tl.bell_state("phi+").projector()
        reduced = tl.partial_trace(rho, FRAME22, "A")
        np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-14)

    def test_product_state_recovers_factor(self):
        rho_a = tl.random_density(2, 2, 21).matrix
        rho_b = tl.random_density(3, 2, 22).matrix
        rho = tl.DensityMatrix(6, np.kron(rho_a, rho_b))
        frame = tl.TpsFrame.identity(tl.Factorization(6, (2, 3)))
        np.testing.assert_allclose(tl.partial_trace(rho, frame, "A").matrix, rho_a, atol=1e-12)
        np.testing.assert_allclose(tl.partial_trace(rho, frame, "B").matrix, rho_b, atol=1e-12)

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_against_loop_oracle(self, side):
        rho = tl.random_density(6, 4, 33)
        frame = tl.TpsFrame.identity(tl.Factorization(6, (2, 3)))
        reduced = tl.partial_trace(rho, frame, side)
        oracle = partial_trace_loops(rho.matrix, 2, 3, side)
        np.testing.assert_allclose(reduced.matrix, oracle, atol=1e-12)

    def test_frame_conjugation_applied(self):
        psi = tl.random_pure(4, 44)
        u = tl.random_unitary(4, 45)
        frame = tl.TpsFrame(tl.Factorization(4, (2, 2)), u)
        reduced = tl.partial_trace(psi.projector(), frame, "B")
        conj = u @ psi.projector().matrix @ u.conj().T
        np.testing.assert_allclose(reduced.matrix, partial_trace_loops(conj, 2, 2, "B"), atol=1e-12)


class TestEntropyAndPurity:
    def test_bell_entropy_is_ln2(self):
        assert abs(tl.entanglement_entropy(tl.bell_state("phi+"), FRAME22) - np.log(2)) < 1e-12

    def test_product_entropy_is_zero(self):
        psi = tl.PureState(4, np.array([1, 0, 0, 0], dtype=complex))
        assert tl.entanglement_entropy(psi, FRAME22) < 1e-12

    def test_entropy_matches_schmidt_coefficients_on_random_frames(self):
        # reference: the entropy of the full Schmidt decomposition, which
        # entanglement_entropy skips; it takes singular values alone, so the
        # two agree to roundoff (2.2e-16 at most here), not bit for bit
        for seed, (k1, k2) in enumerate([(2, 2), (2, 3), (3, 4), (4, 4), (5, 2)]):
            d = k1 * k2
            psi = tl.random_pure(d, seed)
            frame = tl.TpsFrame(tl.Factorization(d, (k1, k2)), tl.random_unitary(d, seed + 100))
            coeffs = tl.schmidt_decompose(psi, frame).coefficients
            p = coeffs[coeffs > 0.0]
            expected = max(0.0, float(-(p * np.log(p)).sum()))
            assert abs(tl.entanglement_entropy(psi, frame) - expected) <= 1e-14

    def test_entropy_checks_dimensions(self):
        with pytest.raises(ValueError, match="dimension"):
            tl.entanglement_entropy(tl.random_pure(6, 0), FRAME22)

    def test_purity_totally_mixed(self):
        assert abs(tl.purity(tl.DensityMatrix(4, np.eye(4) / 4)) - 0.25) < 1e-14

    def test_purity_pure_projector(self):
        assert abs(tl.purity(tl.random_pure(5, 2).projector()) - 1.0) < 1e-12

    def test_purity_explicit_mixture(self):
        rho = tl.DensityMatrix(4, np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
        assert abs(tl.purity(rho) - 0.5) < 1e-14

    def test_purity_range_and_extremes(self):
        for seed in range(5):
            rho = tl.random_density(4, 3, seed)
            p = tl.purity(rho)
            assert 0.25 - 1e-12 <= p <= 1.0 + 1e-12
            top = spectrum(rho)[0]
            assert (p > 1 - 1e-8) == (top > 1 - 1e-8)


class TestNegativity:
    def test_totally_mixed_invariant_in_every_frame(self):
        rho = tl.DensityMatrix(4, np.eye(4) / 4)
        for seed in range(20):
            frame = tl.TpsFrame(tl.Factorization(4, (2, 2)), tl.random_unitary(4, seed))
            assert tl.negativity(rho, frame) < 1e-10

    def test_bell_state_against_brute_force(self):
        rho = tl.bell_state("phi+").projector()
        transposed = partial_transpose_loops(rho.matrix, 2, 2)
        oracle = (np.abs(np.linalg.eigvalsh(transposed)).sum() - 1) / 2
        assert abs(oracle - 0.5) < 1e-12
        assert abs(tl.negativity(rho, FRAME22) - oracle) < 1e-12

    def test_product_state_is_ppt(self):
        rho = tl.DensityMatrix(
            4, np.kron(tl.random_density(2, 2, 1).matrix, tl.random_density(2, 1, 2).matrix)
        )
        assert tl.negativity(rho, FRAME22) < 1e-12


class TestOperatorSchmidtRank:
    def test_product_unitary_is_rank_one(self):
        op = np.kron(tl.random_unitary(2, 7), tl.random_unitary(2, 8))
        fac = tl.Factorization(4, (2, 2))
        assert tl.operator_schmidt_rank(op, fac) == 1
        assert schmidt_rank_loops(op, 2, 2) == 1

    def test_cnot_rank_two(self):
        fac = tl.Factorization(4, (2, 2))
        assert schmidt_rank_loops(CNOT, 2, 2) == 2
        assert tl.operator_schmidt_rank(CNOT, fac) == 2

    def test_swap_rank_four(self):
        fac = tl.Factorization(4, (2, 2))
        assert schmidt_rank_loops(SWAP, 2, 2) == 4
        assert tl.operator_schmidt_rank(SWAP, fac) == 4

    def test_rectangular_factors(self):
        op = np.kron(tl.random_unitary(2, 3), tl.random_unitary(3, 4))
        fac = tl.Factorization(6, (2, 3))
        assert tl.operator_schmidt_rank(op, fac) == schmidt_rank_loops(op, 2, 3) == 1

    def test_rank_one_iff_measures_frame_invariant(self):
        fac = tl.Factorization(4, (2, 2))
        local = np.kron(tl.random_unitary(2, 11), tl.random_unitary(2, 12))
        nonlocal_u = CNOT
        identity = tl.TpsFrame.identity(fac)
        for name, u in (("local", local), ("cnot", nonlocal_u)):
            frame = tl.TpsFrame(fac, u)
            diffs = []
            for seed in range(20):
                psi = tl.random_pure(4, 1000 + seed)
                diffs.append(
                    abs(
                        tl.entanglement_entropy(psi, frame)
                        - tl.entanglement_entropy(psi, identity)
                    )
                )
                diffs.append(
                    abs(
                        tl.negativity(psi.projector(), frame)
                        - tl.negativity(psi.projector(), identity)
                    )
                )
            if tl.operator_schmidt_rank(u, fac) == 1:
                assert name == "local" and max(diffs) < 1e-9
            else:
                assert name == "cnot" and max(diffs) > 1e-3


class TestRandomGenerators:
    def test_random_pure_norm(self):
        assert abs(np.linalg.norm(tl.random_pure(5, 0).amplitudes) - 1) < 1e-12

    def test_random_unitary_unitarity(self):
        u = tl.random_unitary(4, 0)
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-10

    def test_random_density_rank(self):
        rho = tl.random_density(4, 2, 0)
        eigs = spectrum(rho)
        assert np.count_nonzero(eigs > 1e-10) == 2

    def test_seed_reproducibility(self):
        np.testing.assert_array_equal(
            tl.random_pure(6, 123).amplitudes, tl.random_pure(6, 123).amplitudes
        )
        np.testing.assert_array_equal(tl.random_unitary(3, 9), tl.random_unitary(3, 9))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            tl.random_pure(0, 1)
        with pytest.raises(ValueError):
            tl.random_density(4, 5, 1)


class TestSpectrumClipping:
    def test_small_negative_clipped(self):
        rho = tl.DensityMatrix(2, np.diag([1.0 + 4e-11, -4e-11]).astype(complex))
        eigs = spectrum(rho)
        assert eigs[-1] == 0.0

    def test_large_negative_raises(self):
        class Loose:
            pass

        rho = Loose()
        rho.matrix = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="clipping floor"):
            spectrum(rho)


DIMS_AND_FACTORS = [(4, (2, 2)), (6, (2, 3)), (6, (3, 2)), (8, (2, 4))]


@settings(max_examples=25, deadline=None)
@given(
    case=st.sampled_from(DIMS_AND_FACTORS),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_local_unitary_invariance(case, seed):
    """Local unitaries on the virtual subsystems never change the entropy."""
    d, (k1, k2) = case
    fac = tl.Factorization(d, (k1, k2))
    rng = np.random.default_rng(seed)
    psi = tl.random_pure(d, rng)
    u = tl.random_unitary(d, rng)
    frame = tl.TpsFrame(fac, u)
    local = np.kron(tl.random_unitary(k1, rng), tl.random_unitary(k2, rng))
    rotated = tl.PureState(d, local @ (u @ psi.amplitudes))
    before = tl.entanglement_entropy(psi, frame)
    after = tl.entanglement_entropy(rotated, tl.TpsFrame.identity(fac))
    assert abs(before - after) < 1e-10


@settings(max_examples=25, deadline=None)
@given(
    case=st.sampled_from(DIMS_AND_FACTORS),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_marginal_spectra_agree(case, seed):
    """Both marginals of a pure state carry the same nonzero spectrum."""
    d, (k1, k2) = case
    fac = tl.Factorization(d, (k1, k2))
    rng = np.random.default_rng(seed)
    psi = tl.random_pure(d, rng)
    frame = tl.TpsFrame(fac, tl.random_unitary(d, rng))
    rho = psi.projector()
    eig_a = spectrum(tl.partial_trace(rho, frame, "A"))
    eig_b = spectrum(tl.partial_trace(rho, frame, "B"))
    width = min(k1, k2)
    np.testing.assert_allclose(eig_a[:width], eig_b[:width], atol=1e-10)
    assert np.all(eig_a[width:] < 1e-10) and np.all(eig_b[width:] < 1e-10)


def test_frame_covariance_is_exact():
    """Entropy in a frame equals entropy of the rotated state in the identity frame."""
    fac = tl.Factorization(6, (2, 3))
    for seed in range(5):
        psi = tl.random_pure(6, seed)
        u = tl.random_unitary(6, 100 + seed)
        frame = tl.TpsFrame(fac, u)
        rotated = tl.PureState(6, u @ psi.amplitudes)
        via_frame = tl.entanglement_entropy(psi, frame)
        via_state = tl.entanglement_entropy(rotated, tl.TpsFrame.identity(fac))
        assert abs(via_frame - via_state) < 1e-12
