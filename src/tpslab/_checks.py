"""The tolerance table and the input checks shared by every validated type.

Each tolerance, size limit and memory budget is defined once, here.  A module that applies one
imports it under the same name and passes it to the checks (only ``DESCENDING_TOL`` and
``CHUNK_BYTES`` are read here): patching that name reaches them.
"""

from __future__ import annotations

import operator

import numpy as np

# finite-dimensional states and frames (findim)
NORM_TOL = 1e-12  # |psi| - 1 allowed by PureState and each scattered state: a few ulps
HERMITICITY_TOL = 1e-12  # largest |M - M^dag| entry of a density matrix
TRACE_TOL = 1e-12  # |Tr rho - 1| allowed by DensityMatrix
EIGENVALUE_FLOOR = -1e-10  # density-matrix eigenvalues above this are roundoff, clipped to 0
UNITARITY_TOL = 1e-10  # ||U^dag U - I||_F of a frame; a Haar frame at d = 1024 reads 4e-14
DESCENDING_TOL = 1e-14  # rise allowed between neighbouring probabilities of a descending vector
SCHMIDT_SUM_TOL = 1e-10  # |sum - 1| of SchmidtData coefficients, renormalized SVD output
TARGET_SUM_TOL = 1e-12  # |sum - 1| of a TargetSpectrum, typed or parsed by the caller
PHASE_FLOOR = 1e-12  # Schmidt-vector components below this cannot anchor the phase
OPERATOR_RANK_TOL = 1e-10  # operator_schmidt_rank counts singular values above this times the top
# subalgebras and the Zanardi checks (tailor)
GENERATOR_HERMITICITY_TOL = 1e-10  # generators pulled back through a frame carry its roundoff
COMMUTATOR_TOL = 1e-8  # largest cross-commutator Frobenius norm that still counts as commuting
RANK_TOL = 1e-8  # span dimension: singular values above this times the largest
CERTIFICATE_MARGIN = 1e-2  # widens the frame witness's rank band past roundoff its bound omits
PRODUCT_ROUNDOFF_PER_TERM = 2.0  # gamma_n / (n eps) of a complex length-n dot product, >= sqrt(2) gamma_(n+2)
# Gaussian states (gaussian, twobody)
SYMMETRY_TOL = 1e-12  # largest |M - M^T| entry of a covariance or quadratic Hamiltonian
SYMPLECTIC_TOL = 1e-10  # ||S^T Omega S - Omega||_F of a SymplecticMatrix
NU_CONSTRUCTOR_TOL = 1e-8  # covariances need every symplectic eigenvalue >= 1 - this (roundoff)
PURITY_NU_TOL = 1e-8  # a state is pure when every symplectic eigenvalue is 1 within this
WILLIAMSON_RESIDUAL_TOL = 1e-8  # ||S sigma S^T - diag(nu)||_F / ||sigma||_F of williamson
SEPARABLE_NU_GUARD = 1e-12  # a transposed nu_minus this close to 1 gives log-negativity exactly 0
UNBOUND_FREQUENCY_RATIO = 1e-7  # least w / W; the ground state's nu drifts by eps W / w <= 9e-10
# lattice scattering and the CLI
PACKET_NORM_FLOOR = 1e-12  # a packet with less norm on the lattice has fallen off the chain
CLOSING_SPEED_FLOOR = 1e-12  # packets closing slower than this never collide
RANGE_STEP_SLACK = 1e-9  # START:STOP:STEP keeps STOP when the step count misses it by roundoff
MAX_RANGE_POINTS = 100_000  # START:STOP:STEP points; a sweep holds about 0.8 kB per point, 80 MB here
MIN_SITES = 8  # fewest lattice sites, and Hamiltonian bonds, that scattering accepts
# a time and memory bound: a 61-time scatter run at 256 sites takes about 1.4 s and
# peaks at 80 MB RSS (one BLAS thread, shared 2-vCPU Xeon; 40 MB of it under tracemalloc)
MAX_SITES = 256
# a stack is walked in pieces of at most this many bytes (or one member, if larger):
# scatter's (chunk, n, n) amplitudes, 61 times at 48 sites in one piece, and the stacks
# require_hermitian checks, so its two temporaries stay small beside a large stack
CHUNK_BYTES = 1 << 22


def require_finite(what: str, values, error=ValueError) -> None:
    # tolerance checks alone let NaN through: abs(nan - 1) > tol is False
    if not np.isfinite(values).all():
        raise error(f"{what} must be finite")


def require_integer(what: str, value) -> int:
    """``value`` as an int; NumPy integers pass, anything else raises instead of truncating."""
    try:
        return operator.index(value)
    except TypeError:
        shown = value.item() if isinstance(value, np.generic) else value
        raise ValueError(f"{what} must be integers, got {shown!r}") from None


def require_size(what: str, value) -> int:
    """``value`` as a positive int, through ``require_integer``."""
    size = require_integer(what, value)
    if size < 1:
        raise ValueError(f"{what} must be positive, got {size}")
    return size


def side_index(side) -> int:
    """0 for subsystem A, the slow index of the product basis, and 1 for subsystem B."""
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    return int(side == "B")


def frozen_array(what: str, value, shape=None, dtype=float, error=ValueError) -> np.ndarray:
    """A read-only, finite copy of ``value`` as ``dtype``, of ``shape`` (integer sizes) if given.

    A real ``dtype`` rejects input with a nonzero imaginary part instead of dropping it.
    """
    if np.dtype(dtype).kind != "c":
        value = np.asarray(value)
        if value.dtype.kind == "c":
            if np.any(value.imag != 0.0):
                raise error(f"{what} must be real")
            value = value.real
    out = np.array(value, dtype=dtype)
    shape = shape if shape is None else tuple(require_integer(f"{what} sizes", n) for n in shape)
    if shape is not None and out.shape != shape:
        raise error(f"expected {what} of shape {shape}, got {out.shape}")
    require_finite(what, out, error)
    out.setflags(write=False)
    return out


def require_hermitian(what: str, mat: np.ndarray, tol: float, error=ValueError) -> None:
    """Raise unless each matrix of the stack ``mat`` is Hermitian (symmetric if real) within tol."""
    stack = mat.reshape(-1, *mat.shape[-2:])
    step = max(1, CHUNK_BYTES // stack[0].nbytes)
    for start in range(0, len(stack), step):
        part = stack[start : start + step]
        if np.abs(part - np.swapaxes(part, -1, -2).conj()).max() > tol:
            raise error(f"{what} is not {'Hermitian' if np.iscomplexobj(mat) else 'symmetric'}")


def descending_probabilities(what: str, values, sum_tol: float) -> np.ndarray:
    """``values`` as a frozen nonempty 1-D array, nonnegative, descending, summing to 1."""
    probs = frozen_array(what, values)
    if probs.ndim != 1 or probs.size == 0:
        raise ValueError(f"{what} must be a nonempty 1d sequence")
    if np.any(probs < 0.0):
        raise ValueError(f"{what} must be nonnegative")
    if np.any(np.diff(probs) > DESCENDING_TOL):
        raise ValueError(f"{what} must be descending")
    total = float(probs.sum())
    if abs(total - 1.0) > sum_tol:
        raise ValueError(f"{what} sum to {total!r}, expected 1")
    return probs


def times_omega(m: np.ndarray) -> np.ndarray:
    """``M Omega`` for a stack (..., r, 2n), Omega block diagonal in [[0, 1], [-1, 0]].

    An exact signed swap of each column pair, C-ordered like a product: column
    2i is ``-M[:, 2i+1]`` and column 2i+1 is ``M[:, 2i]``, and exact zeros come
    out +0.0 as they do from the dense product.
    """
    out = np.empty(m.shape, dtype=m.dtype)
    out[..., 0::2] = 0.0 - m[..., 1::2]
    out[..., 1::2] = m[..., 0::2] + 0.0
    return out


def symplectic_inverse(s: np.ndarray) -> np.ndarray:
    """``S^-1 = -Omega S^T Omega`` of a symplectic S: two exact signed swaps, nothing inverted."""
    return times_omega(times_omega(s).T)


def symplectic_defect(s: np.ndarray):
    """``||S^T Omega S - Omega||_F``: zero exactly when S preserves Omega."""
    m = times_omega(s.T) @ s
    pairs = np.arange(0, len(m), 2)
    m[pairs, pairs + 1] -= 1.0
    m[pairs + 1, pairs] += 1.0
    return np.linalg.norm(m)


def williamson_residual(s: np.ndarray, sigma: np.ndarray, nu: np.ndarray):
    """``||S sigma S^T - diag(nu_1, nu_1, ..., nu_n, nu_n)||_F / ||sigma||_F``.

    The nu are taken off the diagonal in place: off it x - 0.0 is x, so this is
    the dense difference bit for bit, without the dense diagonal.
    """
    m = s @ sigma @ s.T
    diagonal = np.arange(len(m))
    m[diagonal, diagonal] -= np.repeat(nu, 2)
    return np.linalg.norm(m) / np.linalg.norm(sigma)
