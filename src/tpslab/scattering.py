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
Kronecker sum into n independent ``n x n`` rings in r, one per K.  A
``LatticeHamiltonian`` holds those blocks, and ``evolve`` diagonalizes them
in one stacked call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import CLOSING_SPEED_FLOOR, HERMITICITY_TOL, PACKET_NORM_FLOOR, frozen_array
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
# 1.3 s and peaks at 147 MB RSS (one BLAS thread, 2-vCPU Xeon), below the 252 MB
# that the dense n^2 x n^2 eigendecomposition needed at the old 48-site cap
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
        if not MIN_SITES <= require_integer("site counts", self.n_sites) <= MAX_SITES:
            raise ValueError(
                f"site count must be in [{MIN_SITES}, {MAX_SITES}], got {self.n_sites}"
            )
        if self.hopping <= 0.0:
            raise ValueError(f"hopping must be positive, got {self.hopping}")


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
    """The two-particle Hamiltonian as one ``n x n`` block per total quasi-momentum.

    ``blocks[k]`` acts on the relative coordinate ``r = x_A - x_B mod n`` in
    the sector ``K = 2 pi k / n``; the blocks are read-only and Hermitian.
    """

    blocks: np.ndarray

    def __post_init__(self):
        blocks = frozen_array("Hamiltonian blocks", self.blocks, dtype=complex)
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
    hopping ``-J (1 + e^{-iK})`` from ``r + 1`` to ``r`` (and the conjugate
    back) and the contact energy g at ``r = 0``.
    """
    n = config.n_sites
    r = np.arange(n)
    forward = -config.hopping * (1.0 + np.exp(-2j * np.pi * r / n))
    blocks = np.zeros((n, n, n), dtype=complex)
    blocks[:, r, (r + 1) % n] = forward[:, None]
    blocks[:, (r + 1) % n, r] = forward.conj()[:, None]
    blocks[:, 0, 0] = config.interaction
    return LatticeHamiltonian(blocks)


def evolve(psi: PureState, h: LatticeHamiltonian, times) -> list[PureState]:
    """Evolve through one stacked eigendecomposition of the K blocks, one state per time.

    The amplitudes are relabelled to ``(r, x_B)`` and Fourier transformed
    over ``x_B``; every sector and every time is propagated in one stacked
    product, then the transform is undone.
    """
    n = len(h.blocks)
    if psi.dim != n * n:
        raise ValueError(f"state dimension {psi.dim} does not match {n} x {n} sites")
    sites = np.arange(n)
    # relative[r, x_B] = x_A = r + x_B, and back: r = x_A - x_B
    relative = (sites[:, None] + sites) % n
    amps = psi.amplitudes.reshape(n, n)
    sectors = np.fft.fft(amps[relative, sites], axis=1, norm="ortho").T
    energies, modes = np.linalg.eigh(h.blocks)
    weights = (sectors[:, None, :] @ modes.conj())[:, 0]
    # coefficients[K, m, t]: mode m of sector K at time t
    coefficients = np.exp(-1j * energies[:, :, None] * np.asarray(times, dtype=float))
    coefficients *= weights[:, :, None]
    # (K, r, t) -> (x_B, r, t) -> (x_A, x_B, t)
    pairs = np.fft.ifft(modes @ coefficients, axis=0, norm="ortho")
    # only the relabelled amplitudes are read from here on
    del modes, coefficients, sectors, weights
    amplitudes = np.empty_like(pairs)
    amplitudes[relative, sites] = pairs.swapaxes(0, 1)
    del pairs
    return [PureState(n * n, column) for column in amplitudes.reshape(n * n, -1).T]


def entanglement_history(config: LatticeConfig, times) -> list[tuple[float, float]]:
    """Interparticle entanglement entropy (nats) along the evolution.

    Runs the full pipeline: product in-state, Hamiltonian, evolution, then
    the entropy across the fixed particle bipartition at each time.  That
    bipartition is the native index split, so no frame is applied: the
    amplitudes reshape directly to the ``n x n`` Schmidt matrix.
    """
    n = config.n_sites
    psi0 = build_product_in_state(config)
    states = evolve(psi0, build_hamiltonian(config), times)
    history = []
    for t, state in zip(times, states):
        # the rescaling moves only roundoff, but without it written digits change
        amps = state.amplitudes / np.linalg.norm(state.amplitudes)
        history.append((float(t), _entropy_nats(_schmidt_probabilities(amps.reshape(n, n)))))
    return history


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
