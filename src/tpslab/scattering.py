"""Two distinguishable particles scattering on a periodic 1D lattice.

A product of Gaussian wavepackets is evolved under nearest-neighbor
hopping plus an on-site contact interaction.  Without the interaction the
propagator factors over the particles and the interparticle entanglement
stays at zero; with it, the collision generates entanglement from the
unentangled in-state.

The composite index convention matches the rest of the package: amplitude
``i * n_sites + j`` puts particle A at site i and particle B at site j.

The Hamiltonian is never held as an ``n^2 x n^2`` matrix.  Hopping and the
contact term conserve the total quasi-momentum ``K = 2 pi k / n``, the
lattice form of the centre-of-mass/relative split: in the coordinates
``(r = x_A - x_B mod n, x_B)`` a Fourier transform over ``x_B`` turns the
Kronecker sum into n independent ``n x n`` rings in r, one per K.  The
diagonal phases ``D_K = diag(e^{i K r / 2})`` make each ring real: every
bond becomes ``-2 J cos(K / 2)`` and the closing bond ``(n - 1, 0)`` gains a
sign ``(-1)^k``.  A ``LatticeHamiltonian`` holds those real blocks; one
stacked real ``eigh`` diagonalizes them, and the phases are applied to the
sector amplitudes on the way in and out.  ``evolve`` and
``entanglement_history`` share that propagation, and the history takes the
Schmidt spectra of all times in one values-only SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import CLOSING_SPEED_FLOOR, HERMITICITY_TOL, NORM_TOL, PACKET_NORM_FLOOR, frozen_array
from ._checks import require_finite, require_hermitian, require_integer
from .findim import PureState, _entropy_nats, _schmidt_probabilities

__all__ = [
    "WavePacket",
    "LatticeConfig",
    "single_particle_packet",
    "build_product_in_state",
    "hopping_matrix",
    "LatticeHamiltonian",
    "build_hamiltonian",
    "evolve",
    "entanglement_history",
    "collision_time",
]

MIN_SITES = 8
# a memory bound, not a time bound: a 61-time scatter run at 128 sites takes about
# 0.54 s and peaks at 101 MB RSS (one BLAS thread, 2-vCPU Xeon; 67 MB of it under
# tracemalloc), below the 252 MB that the dense n^2 x n^2 eigendecomposition
# needed at the old 48-site cap
MAX_SITES = 128


@dataclass(frozen=True)
class WavePacket:
    """Gaussian packet: center site (may be fractional), width in sites, quasi-momentum."""

    center: float
    width: float
    momentum: float

    def __post_init__(self):
        require_finite("packet parameters", (self.center, self.width, self.momentum))
        if self.width <= 0.0:
            raise ValueError(f"packet width must be positive, got {self.width}")
        if not -np.pi < self.momentum <= np.pi:
            raise ValueError(f"momentum must lie in (-pi, pi], got {self.momentum}")


@dataclass(frozen=True)
class LatticeConfig:
    """Periodic lattice, hopping strength, contact interaction and two packets."""

    n_sites: int
    hopping: float
    interaction: float
    packet_a: WavePacket
    packet_b: WavePacket

    def __post_init__(self):
        require_finite("hopping and interaction", (self.hopping, self.interaction))
        n = require_integer("site counts", self.n_sites)
        if not MIN_SITES <= n <= MAX_SITES:
            raise ValueError(f"site count must be in [{MIN_SITES}, {MAX_SITES}], got {n}")
        if self.hopping <= 0.0:
            raise ValueError(f"hopping must be positive, got {self.hopping}")
        object.__setattr__(self, "n_sites", n)


def single_particle_packet(n_sites: int, packet: WavePacket) -> np.ndarray:
    """Discrete Gaussian wavepacket, normalized after truncation to the lattice."""
    sites = np.arange(n_sites)
    envelope = np.exp(-((sites - packet.center) ** 2) / (4.0 * packet.width**2))
    amps = envelope * np.exp(1j * packet.momentum * sites)
    norm = np.linalg.norm(amps)
    if norm < PACKET_NORM_FLOOR:
        raise ValueError("packet has zero norm on the lattice; move its center onto the chain")
    return amps / norm


def build_product_in_state(config: LatticeConfig) -> PureState:
    """Unentangled in-state: the tensor product of the two packets."""
    a = single_particle_packet(config.n_sites, config.packet_a)
    b = single_particle_packet(config.n_sites, config.packet_b)
    return PureState(config.n_sites**2, np.kron(a, b))


def hopping_matrix(n_sites: int, hopping: float) -> np.ndarray:
    """Single-particle periodic hopping matrix, -J on neighbors and corners."""
    h = np.zeros((n_sites, n_sites))
    idx = np.arange(n_sites)
    h[idx, (idx + 1) % n_sites] = -hopping
    h[(idx + 1) % n_sites, idx] = -hopping
    return h


@dataclass(frozen=True)
class LatticeHamiltonian:
    """The two-particle Hamiltonian as one real ``n x n`` block per total quasi-momentum.

    ``blocks[k]`` acts on the relative coordinate ``r = x_A - x_B mod n`` in
    the sector ``K = 2 pi k / n``, in the gauged basis that makes it real:
    ``blocks[k] = D_K^dag H_K D_K`` with ``D_K = diag(e^{i K r / 2})``.  The
    blocks are one read-only, real symmetric float64 stack; complex blocks
    are rejected.
    """

    blocks: np.ndarray

    def __post_init__(self):
        blocks = frozen_array("Hamiltonian blocks", self.blocks)
        if blocks.ndim != 3 or len(set(blocks.shape)) != 1:
            raise ValueError(f"expected Hamiltonian blocks of shape (n, n, n), got {blocks.shape}")
        require_hermitian("Hamiltonian", blocks, HERMITICITY_TOL)
        object.__setattr__(self, "blocks", blocks)

    @property
    def nbytes(self) -> int:
        return self.blocks.nbytes


def build_hamiltonian(config: LatticeConfig) -> LatticeHamiltonian:
    """Two-particle Hamiltonian: hopping for each particle plus contact term.

    ``H = H_hop (x) I + I (x) H_hop + g * sum_i |i,i><i,i|`` conserves the
    total quasi-momentum K.  In the sector K it is a ring in ``r`` with
    hopping ``-J (1 + e^{-iK})`` from ``r + 1`` to ``r`` and the contact
    energy g at ``r = 0``.  The phases ``e^{i K r / 2}`` of ``D_K`` turn every
    bond into ``-2 J cos(K / 2)``; the closing bond ``(n - 1, 0)`` picks up
    ``e^{-i K n / 2} = (-1)^k`` on top, so each block is real.
    """
    n = config.n_sites
    k = np.arange(n)
    # bond[k] = -2 J cos(K / 2) with K / 2 = pi k / n
    bond = -2.0 * config.hopping * np.cos(np.pi * k / n)
    blocks = np.zeros((n, n, n))
    blocks[:, k[:-1], k[1:]] = bond[:, None]
    blocks[:, k[1:], k[:-1]] = bond[:, None]
    closing = np.where(k % 2 == 0, bond, -bond)
    blocks[:, n - 1, 0] = closing
    blocks[:, 0, n - 1] = closing
    blocks[:, 0, 0] = config.interaction
    return LatticeHamiltonian(blocks)


def _propagate(amplitudes: np.ndarray, h: LatticeHamiltonian, times) -> np.ndarray:
    """``exp(-i H t)`` applied to ``amplitudes[x_A, x_B]``, one ``n x n`` slice per time.

    The amplitudes are relabelled to ``(r, x_B)``, Fourier transformed over
    ``x_B`` and moved into the real gauge by ``D_K^dag``; every sector and
    every time is propagated through one stacked real ``eigh`` and one
    stacked product, then ``D_K`` and the transform are undone.  The result
    has shape ``(len(times), n, n)``.
    """
    n = len(h.blocks)
    times = np.asarray(times, dtype=float)
    sites = np.arange(n)
    # relative[r, x_B] = x_A = r + x_B, and back: r = x_A - x_B
    relative = (sites[:, None] + sites) % n
    # gauge[k, r] = e^{i K r / 2} = e^{i pi k r / n}, periodic in k r with period 2n
    gauge = np.exp(1j * np.pi / n * (np.outer(sites, sites) % (2 * n)))
    sectors = np.fft.fft(amplitudes[relative, sites], axis=1, norm="ortho").T * gauge.conj()
    energies, modes = np.linalg.eigh(h.blocks)
    # the modes are real, so they meet real and imaginary parts as two real columns
    parts = modes.swapaxes(1, 2) @ np.stack([sectors.real, sectors.imag], axis=-1)
    # coefficients[K, m, t]: mode m of sector K at time t.  e^{-iEt} is taken as a
    # cos and a sin of the real phase, the same bits as a complex exp at less cost
    phase = -energies[:, :, None] * times
    coefficients = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=coefficients.real)
    np.sin(phase, out=coefficients.imag)
    del phase
    coefficients *= (parts[..., 0] + 1j * parts[..., 1])[:, :, None]
    del sectors, parts
    # a C-contiguous (K, m, t) complex stack is a (K, m, 2t) real one
    propagated = (modes @ coefficients.view(float)).view(complex)
    del modes, coefficients
    propagated *= gauge[:, :, None]
    # (K, r, t) -> (x_B, r, t) -> (t, x_A, x_B)
    pairs = np.fft.ifft(propagated, axis=0, norm="ortho")
    del propagated
    out = np.empty((len(times), n, n), dtype=complex)
    out[:, relative, sites] = pairs.transpose(2, 1, 0)
    return out


def evolve(psi: PureState, h: LatticeHamiltonian, times) -> list[PureState]:
    """Evolve through one stacked eigendecomposition of the K blocks, one state per time."""
    n = len(h.blocks)
    if psi.dim != n * n:
        raise ValueError(f"state dimension {psi.dim} does not match {n} x {n} sites")
    amplitudes = _propagate(psi.amplitudes.reshape(n, n), h, times)
    return [PureState(n * n, amps.reshape(n * n)) for amps in amplitudes]


def entanglement_history(config: LatticeConfig, times) -> list[tuple[float, float]]:
    """Interparticle entanglement entropy (nats) along the evolution.

    Runs the full pipeline: product in-state, Hamiltonian, evolution, then
    the entropy across the fixed particle bipartition at each time.  That
    bipartition is the native index split, so no frame is applied: each
    time's ``n x n`` amplitude slice is the Schmidt matrix, and one stacked
    values-only SVD takes all of them.  Each slice passes the checks of
    ``PureState`` without one being built.
    """
    n = config.n_sites
    psi0 = build_product_in_state(config)
    amplitudes = _propagate(psi0.amplitudes.reshape(n, n), build_hamiltonian(config), times)
    require_finite("amplitudes", amplitudes)
    for amps in amplitudes:
        # the norm of the contiguous slice, summed as PureState sums it
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: |psi| = {norm!r}")
        # the rescaling moves only roundoff, but without it written digits change
        amps /= norm
    probabilities = _schmidt_probabilities(amplitudes)
    return [(float(t), _entropy_nats(p)) for t, p in zip(times, probabilities)]


def collision_time(config: LatticeConfig) -> float:
    """Rough time of closest approach: ring separation over closing speed.

    Group velocity of a packet is ``2 J sin k``; the heuristic feeds
    default time grids and makes no claim beyond order of magnitude.
    """
    n = config.n_sites
    delta = abs(config.packet_a.center - config.packet_b.center) % n
    separation = min(delta, n - delta)
    v_a = 2.0 * config.hopping * np.sin(config.packet_a.momentum)
    v_b = 2.0 * config.hopping * np.sin(config.packet_b.momentum)
    closing = abs(v_a - v_b)
    if closing < CLOSING_SPEED_FLOOR:
        raise ValueError("packets do not approach each other; no collision time")
    return float(separation / closing)
