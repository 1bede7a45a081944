"""The benchmark's correctness checks accept right outputs and reject wrong ones.

Each check is fed an output built apart from tpslab, first as is and then
deliberately perturbed: an entropy shifted by 1e-6, a frame that is not
unitary, a wrong symplectic eigenvalue.

    python3 -m pytest perfbench/test_checks.py -q
"""

import math

import numpy as np
import pytest

import checks
import workloads


@pytest.fixture(scope="module")
def small_collision():
    # 8 sites keep the sparse reference cheap; the checks do not depend on n
    return checks.scatter_reference(8, 1.0, 2.0, 1.5708, -1.5708, 1.0)


def test_scatter_accepts_reference(small_collision):
    times, entropies = small_collision
    checks.check_scatter(times, entropies, small_collision, 8)


@pytest.mark.parametrize("index", [0, 17, 60])
def test_scatter_rejects_shifted_entropy(small_collision, index):
    times, entropies = small_collision
    shifted = entropies.copy()
    shifted[index] += 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.check_scatter(times, shifted, small_collision, 8)


def test_scatter_rejects_entropy_above_bound(small_collision):
    times, entropies = small_collision
    high = entropies.copy()
    high[30] = math.log(8) + 1e-3
    with pytest.raises(checks.CheckFailed, match="ln n"):
        checks.check_scatter(times, high, small_collision, 8)


def _tailored(rng, k1, k2, target):
    """A unitary taking a random psi to sum_i sqrt(p_i) |i i>, built by QR."""
    d = k1 * k2
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    phi = np.zeros(d, dtype=complex)
    for i, p in enumerate(target):
        phi[i * k2 + i] = math.sqrt(p)

    def basis(first):
        q, r = np.linalg.qr(np.column_stack([first, rng.standard_normal((d, d - 1))]))
        return q * (r[0, 0] / abs(r[0, 0]))  # first column equals `first`, not -first

    return psi, basis(phi) @ basis(psi).conj().T


@pytest.fixture
def tailored():
    rng = np.random.default_rng(3)
    target = np.array([0.5, 0.3, 0.2])
    psi, u = _tailored(rng, 3, 4, target)
    return psi, u, target


def test_tailor_accepts_tailored_frame(tailored):
    psi, u, target = tailored
    checks.check_tailor(u, checks.entropy_nats(target), psi, target, (3, 4))


def test_tailor_rejects_non_unitary_frame(tailored):
    psi, u, target = tailored
    with pytest.raises(checks.CheckFailed, match="not unitary"):
        checks.check_tailor(u * (1.0 + 1e-6), checks.entropy_nats(target), psi, target, (3, 4))


def test_tailor_rejects_wrong_spectrum(tailored):
    psi, u, target = tailored
    swap = np.eye(12)[[1, 0, *range(2, 12)]]  # unitary, but moves psi off the target
    with pytest.raises(checks.CheckFailed, match="target"):
        checks.check_tailor(swap @ u, checks.entropy_nats(target), psi, target, (3, 4))


def test_tailor_rejects_shifted_entropy(tailored):
    psi, u, target = tailored
    with pytest.raises(checks.CheckFailed, match="entropy"):
        checks.check_tailor(u, checks.entropy_nats(target) + 1e-6, psi, target, (3, 4))


def test_zanardi_rejects_incomplete_report():
    good = {"independence": True, "completeness": True, "span_dimension": 16, "full_dimension": 16}
    checks.check_zanardi_reports([good], 4)
    for bad in ({"completeness": False}, {"span_dimension": 15}, {"independence": False}):
        with pytest.raises(checks.CheckFailed):
            checks.check_zanardi_reports([good, {**good, **bad}], 4)


@pytest.fixture(scope="module")
def mixed_state():
    rng = np.random.default_rng(5)
    n = 6
    nu = np.sort(rng.uniform(1.0, 3.0, n))[::-1]
    s = workloads.seeded_symplectic(rng, n)
    return nu, s, workloads.gaussian_covariance(s, nu)


def test_williamson_accepts_inverse_transform(mixed_state):
    nu, s, sigma = mixed_state
    checks.check_williamson(nu, np.linalg.inv(s), sigma, nu)


def test_williamson_rejects_wrong_nu(mixed_state):
    nu, s, sigma = mixed_state
    wrong = nu.copy()
    wrong[2] *= 1.0 + 1e-6
    with pytest.raises(checks.CheckFailed, match="nu differs"):
        checks.check_williamson(wrong, np.linalg.inv(s), sigma, nu)


def test_williamson_rejects_non_symplectic_transform(mixed_state):
    nu, s, sigma = mixed_state
    with pytest.raises(checks.CheckFailed):
        checks.check_williamson(nu, 1.001 * np.linalg.inv(s), sigma, nu)


def test_entangle_matches_two_mode_squeezed_vacuum():
    # across one mode of a two-mode squeezed vacuum, nu = cosh 2r
    r = 0.7
    c, s = math.cosh(2 * r), math.sinh(2 * r)
    sigma = np.array([[c, 0, s, 0], [0, c, 0, -s], [s, 0, c, 0], [0, -s, 0, c]])
    expected = float(checks.thermal_entropy(c)[0])
    checks.check_entangle(expected, sigma, 1)
    with pytest.raises(checks.CheckFailed):
        checks.check_entangle(expected + 1e-6, sigma, 1)


def test_sweep_rejects_perturbed_rows():
    kappas = np.linspace(0.0, 4.0, 41)
    reference = checks.sweep_reference(kappas, 1.0, 3.0, 1.0)
    header = ["kappa", "interparticle_entropy", "internal_external_entropy"]
    rows = np.column_stack([kappas, reference, np.zeros_like(kappas)])
    checks.check_sweep(header, rows, kappas, 1.0, 3.0, 1.0)
    shifted = rows.copy()
    shifted[7, 1] += 1e-6
    with pytest.raises(checks.CheckFailed, match="closed form"):
        checks.check_sweep(header, shifted, kappas, 1.0, 3.0, 1.0)
    leaking = rows.copy()
    leaking[7, 2] = 1e-6
    with pytest.raises(checks.CheckFailed, match="internal-external"):
        checks.check_sweep(header, leaking, kappas, 1.0, 3.0, 1.0)


def test_sweep_reference_is_zero_without_coupling():
    assert checks.sweep_reference([0.0], 1.0, 3.0, 1.0)[0] == pytest.approx(0.0, abs=1e-14)
