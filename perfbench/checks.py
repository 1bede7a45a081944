"""Correctness checks computed apart from tpslab.

Every reference here is built from the physics or from a property any
correct output must have, with NumPy and SciPy only: nothing is compared
against a stored copy of earlier output, and nothing imports tpslab.  Each
check raises ``CheckFailed`` with the reason when the output is wrong.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from workloads import symplectic_form

# The CLI prints 12 significant digits; these tolerances sit well above
# that and the roundoff of either computation (measured below 1e-12),
# and well below the smallest perturbation the self-test must catch.
ENTROPY_TOL = 1e-9
UNITARITY_TOL = 1e-9
SPECTRUM_TOL = 1e-9
NU_REL_TOL = 1e-9
WILLIAMSON_RESIDUAL_TOL = 1e-8
ZERO_ENTROPY_TOL = 1e-10


class CheckFailed(Exception):
    """An output disagrees with its independent reference."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def entropy_nats(probs) -> float:
    """Shannon entropy in nats, 0 ln 0 = 0."""
    p = np.asarray(probs, dtype=float)
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


def thermal_entropy(nu) -> np.ndarray:
    """f(nu) = ((nu+1)/2) ln((nu+1)/2) - ((nu-1)/2) ln((nu-1)/2), f(1) = 0."""
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    out = np.zeros_like(nu)
    above = nu > 1.0
    plus = 0.5 * (nu[above] + 1.0)
    minus = 0.5 * (nu[above] - 1.0)
    out[above] = plus * np.log(plus) - minus * np.log(minus)
    return out


def read_csv(text: str) -> tuple[list[str], np.ndarray]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], np.array([[float(x) for x in row] for row in rows[1:]])


def read_key_values(stdout: str) -> dict:
    """``key=value`` lines of CLI standard output."""
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


# --- scatter -------------------------------------------------------------


def _packet(n: int, center: float, width: float, momentum: float) -> np.ndarray:
    x = np.arange(n)
    amps = np.exp(-((x - center) ** 2) / (4.0 * width**2) + 1j * momentum * x)
    return amps / np.linalg.norm(amps)


def scatter_reference(sites: int, hop: float, g: float, ka: float, kb: float, width: float):
    """Times and entropies of the CLI's default grid, by sparse propagation.

    The grid is the documented default: 61 times over 2.5 times the ring
    separation over the closing speed ``2 J |sin ka - sin kb|``.  The
    sparse Kronecker-sum Hamiltonian is propagated with
    ``expm_multiply``, and the entropy of each 48 x 48 amplitude matrix
    comes from a NumPy SVD.
    """
    n = sites
    ca, cb = n / 4.0, 3.0 * n / 4.0
    closing = abs(2.0 * hop * (math.sin(ka) - math.sin(kb)))
    horizon = 2.5 * min(cb - ca, n - (cb - ca)) / closing
    times = np.array([i * horizon / 60.0 for i in range(61)])
    idx = np.arange(n)
    rows = np.concatenate([idx, (idx + 1) % n])
    cols = np.concatenate([(idx + 1) % n, idx])
    single = sp.csr_matrix((np.full(2 * n, -hop), (rows, cols)), shape=(n, n))
    eye = sp.identity(n, format="csr")
    contact = np.zeros(n * n)
    contact[idx * n + idx] = g
    h = (sp.kron(single, eye) + sp.kron(eye, single) + sp.diags(contact)).tocsr()
    psi0 = np.kron(_packet(n, ca, width, ka), _packet(n, cb, width, kb))
    states = expm_multiply(-1j * h, psi0, start=0.0, stop=horizon, num=61, endpoint=True)
    entropies = []
    for amps in states:
        s = np.linalg.svd(amps.reshape(n, n), compute_uv=False) ** 2
        entropies.append(entropy_nats(s / s.sum()))
    return times, np.array(entropies)


def check_scatter(times, entropies, reference, sites: int) -> None:
    ref_times, ref_entropies = reference
    times = np.asarray(times)
    entropies = np.asarray(entropies)
    _require(times.shape == ref_times.shape, f"{times.size} times, expected {ref_times.size}")
    _require(
        np.allclose(times, ref_times, rtol=0.0, atol=1e-9 * ref_times[-1]),
        "time grid differs from the default 61-time grid",
    )
    _require(abs(entropies[0]) <= ZERO_ENTROPY_TOL, f"entropy at t = 0 is {entropies[0]!r}")
    _require(
        bool(np.all(entropies >= -ZERO_ENTROPY_TOL))
        and bool(np.all(entropies <= math.log(sites) + ZERO_ENTROPY_TOL)),
        "entropy outside [0, ln n]",
    )
    worst = float(np.max(np.abs(entropies - ref_entropies)))
    _require(worst <= ENTROPY_TOL, f"entropy differs from sparse propagation by {worst!r}")


# --- frames ----------------------------------------------------------------


def read_frame(text: str) -> np.ndarray:
    data = json.loads(text)
    pairs = np.asarray(data["frame"], dtype=float)
    return pairs[..., 0] + 1j * pairs[..., 1]


def check_tailor(frame, entropy_printed: float, psi, target, factors) -> None:
    """The frame is unitary and gives psi exactly the target spectrum."""
    u = np.asarray(frame)
    d = u.shape[0]
    defect = float(np.linalg.norm(u.conj().T @ u - np.eye(d)))
    _require(defect <= UNITARITY_TOL, f"frame is not unitary: defect {defect!r}")
    k1, k2 = factors
    s = np.linalg.svd((u @ psi).reshape(k1, k2), compute_uv=False) ** 2
    worst = float(np.max(np.abs(s - np.asarray(target))))
    _require(worst <= SPECTRUM_TOL, f"Schmidt spectrum misses the target by {worst!r}")
    expected = entropy_nats(target)
    _require(
        abs(entropy_printed - expected) <= ENTROPY_TOL,
        f"printed entropy {entropy_printed!r}, target entropy {expected!r}",
    )


def check_zanardi_reports(reports, d: int) -> None:
    """Any unitary frame gives independent, complete subsystems."""
    for report in reports:
        _require(report["independence"] is True, "independence is not true")
        _require(report["completeness"] is True, "completeness is not true")
        _require(report["full_dimension"] == d * d, f"full_dimension {report['full_dimension']}")
        _require(report["span_dimension"] == d * d, f"span_dimension {report['span_dimension']}")


# --- oscillators -----------------------------------------------------------


def sweep_reference(kappas, m1: float, m2: float, omega: float) -> np.ndarray:
    """Interparticle entropy of the ground state, in closed form.

    The centre of mass X and the relative coordinate r are independent
    vacua, with <X^2> = 1/(2 M w), <P^2> = M w / 2, <r^2> = 1/(2 mu W),
    <p_r^2> = mu W / 2 and W = sqrt(w^2 + kappa/mu).  Particle 1 has
    x1 = X + (m2/M) r and p1 = (m1/M) P + p_r, so its reduced state has
    nu = 2 sqrt(<x1^2><p1^2>) and entropy f(nu).
    """
    kappas = np.asarray(kappas, dtype=float)
    total = m1 + m2
    mu = m1 * m2 / total
    rel = np.sqrt(omega**2 + kappas / mu)
    x2 = 1.0 / (2.0 * total * omega) + (m2 / total) ** 2 / (2.0 * mu * rel)
    p2 = (m1 / total) ** 2 * total * omega / 2.0 + mu * rel / 2.0
    return thermal_entropy(2.0 * np.sqrt(x2 * p2))


def check_sweep(header, rows, kappas, m1: float, m2: float, omega: float) -> None:
    _require(
        header == ["kappa", "interparticle_entropy", "internal_external_entropy"],
        f"unexpected header {header}",
    )
    rows = np.asarray(rows)
    _require(rows.shape == (len(kappas), 3), f"{rows.shape[0]} rows, expected {len(kappas)}")
    _require(bool(np.allclose(rows[:, 0], kappas, rtol=1e-11, atol=1e-15)), "kappa column")
    worst = float(np.max(np.abs(rows[:, 1] - sweep_reference(kappas, m1, m2, omega))))
    _require(worst <= ENTROPY_TOL, f"interparticle entropy off the closed form by {worst!r}")
    _require(
        bool(np.all(np.abs(rows[:, 2]) <= ZERO_ENTROPY_TOL)),
        "internal-external entropy is not 0",
    )


def check_williamson(nu, s, sigma, nu_built) -> None:
    """nu is the spectrum the state was built with; S brings sigma to it."""
    nu = np.asarray(nu, dtype=float)
    nu_built = np.asarray(nu_built, dtype=float)
    _require(nu.shape == nu_built.shape, f"{nu.size} symplectic eigenvalues, expected {nu_built.size}")
    worst = float(np.max(np.abs(nu - nu_built) / nu_built))
    _require(worst <= NU_REL_TOL, f"nu differs from the built spectrum by {worst!r} (relative)")
    s = np.asarray(s, dtype=float)
    residual = np.linalg.norm(s @ sigma @ s.T - np.diag(np.repeat(nu_built, 2)))
    residual /= np.linalg.norm(sigma)
    _require(residual <= WILLIAMSON_RESIDUAL_TOL, f"S sigma S^T residual {residual!r}")
    omega = symplectic_form(nu.size)
    defect = float(np.linalg.norm(s.T @ omega @ s - omega))
    _require(defect <= WILLIAMSON_RESIDUAL_TOL, f"S is not symplectic: defect {defect!r}")


def reduced_entropy(sigma, partition: int) -> float:
    """Entropy across the first ``partition`` modes of a pure Gaussian state.

    The reduced covariance A = L L^T has symplectic eigenvalues equal to
    the positive eigenvalues of the Hermitian matrix i L^T Omega L.
    """
    block = np.asarray(sigma)[: 2 * partition, : 2 * partition]
    chol = np.linalg.cholesky(block)
    eigs = np.linalg.eigvalsh(1j * chol.T @ symplectic_form(partition) @ chol)
    return float(thermal_entropy(eigs[eigs > 0.0]).sum())


def check_entangle(entropy_printed: float, sigma, partition: int) -> None:
    expected = reduced_entropy(sigma, partition)
    _require(
        abs(entropy_printed - expected) <= ENTROPY_TOL * max(1.0, expected),
        f"printed entropy {entropy_printed!r}, reduced spectrum gives {expected!r}",
    )
