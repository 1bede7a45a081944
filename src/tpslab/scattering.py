"""Two distinguishable particles scattering on a periodic 1D lattice.

A product of Gaussian wavepackets is evolved under nearest-neighbor
hopping plus an on-site contact interaction.  Without the interaction the
propagator factors over the particles and the interparticle entanglement
stays at zero; with it, the collision generates entanglement from the
unentangled in-state.

The composite index convention matches the rest of the package: amplitude
``i * n_sites + j`` puts particle A at site i and particle B at site j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import CLOSING_SPEED_FLOOR, HERMITICITY_TOL, PACKET_NORM_FLOOR, require_finite
from ._checks import require_hermitian, require_integer
from .findim import PureState, _entropy_nats, _schmidt_probabilities

__all__ = [
    "WavePacket",
    "LatticeConfig",
    "single_particle_packet",
    "build_product_in_state",
    "hopping_matrix",
    "build_hamiltonian",
    "evolve",
    "entanglement_history",
    "collision_time",
]

MIN_SITES = 8
MAX_SITES = 48


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


def build_hamiltonian(config: LatticeConfig) -> np.ndarray:
    """Two-particle Hamiltonian: hopping for each particle plus contact term.

    ``H = H_hop (x) I + I (x) H_hop + g * sum_i |i,i><i,i|``; the
    interaction is diagonal and supported only on coincidence sites.
    """
    n = config.n_sites
    single = hopping_matrix(n, config.hopping)
    eye = np.eye(n)
    h = np.kron(single, eye) + np.kron(eye, single)
    coincidence = np.arange(n) * n + np.arange(n)
    h[coincidence, coincidence] += config.interaction
    return h


def evolve(psi: PureState, h: np.ndarray, times) -> list[PureState]:
    """Evolve through one eigendecomposition and one product over all times, one state each."""
    dim = psi.dim
    h = np.asarray(h)
    if h.shape != (dim, dim):
        raise ValueError(f"Hamiltonian shape {h.shape} does not match dimension {dim}")
    require_hermitian("Hamiltonian", h, HERMITICITY_TOL)
    energies, modes = np.linalg.eigh(h)
    weights = modes.conj().T @ psi.amplitudes
    # column t holds the mode coefficients at time t; the real and imaginary
    # parts are propagated separately, so a real ``modes`` stays real
    coefficients = np.exp(-1j * np.outer(energies, np.asarray(times, dtype=float)))
    coefficients *= weights[:, None]
    amplitudes = modes @ coefficients.real + 1j * (modes @ coefficients.imag)
    return [PureState(dim, column) for column in amplitudes.T]


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
