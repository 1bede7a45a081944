"""Two distinguishable particles scattering on a periodic 1D lattice.

A product of Gaussian wavepackets is evolved under nearest-neighbor
hopping plus an on-site contact interaction.  Without the interaction the
propagator factors over the particles and the interparticle entanglement
stays at zero; with it, the collision generates entanglement from the
unentangled in-state.

The composite index convention matches the rest of the package: amplitude
``i * n_sites + j`` puts particle A at site i and particle B at site j.

The Hamiltonian is never held as a matrix.  Hopping and the contact term
conserve the total quasi-momentum ``K = 2 pi k / n``, the lattice form of
the centre-of-mass/relative split: in the coordinates
``(r = x_A - x_B mod n, x_B)`` a Fourier transform over ``x_B`` turns the
Kronecker sum into n independent rings in r, one per K.  The diagonal
phases ``D_K = diag(e^{i K r / 2})`` make each ring real: every bond becomes
``b_k = -2 J cos(K / 2)`` and the closing bond ``(n - 1, 0)`` gains a sign
``(-1)^k``, so a ``LatticeHamiltonian`` is the n bonds and g.

The evolution takes K in the symmetric zone ``-pi < K <= pi``, gauging
sector k at ``c = k - n`` for k > n / 2.  Inversion combined with particle
exchange maps K to -K and leaves r fixed, so sectors c and -c have the same
real ring, bit for bit once the bonds are the exact mirror negatives
``b_{n-k} = -b_k`` that ``LatticeHamiltonian`` asks for.  Each ring c >= 0
is diagonalized and phased once and evolves both its sectors as two
columns of one product.

Each gauged ring commutes with a reflection of r: ``P: r -> -r`` for even
c, and ``QP`` with ``Q = diag(1, -1, ..., -1)`` for odd c.  The states the
reflection flips vanish at r = 0, never feel the contact and move freely,
with the closed-form modes ``sqrt(2 / n) sin(pi q r / n)``, q of the parity
of c, at energies ``2 b_c cos(pi q / n)``.  Only the kept halves, real
paths of about n / 2 sites with g at the origin, are diagonalized, by one
stacked real ``eigh`` per parity of c.  ``evolve`` and
``entanglement_history`` share that propagation, walking the times in
chunks of bounded size, and the history takes the Schmidt spectra of each
chunk in one values-only SVD (Harshman & Wickramasekara, PRL 98, 080406
(2007), for the symmetry argument).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import CHUNK_BYTES, CLOSING_SPEED_FLOOR, MAX_SITES, MIN_SITES, PACKET_NORM_FLOOR
from ._checks import frozen_array, require_finite, require_integer
from .findim import PureState, _entropy_nats, _schmidt_probabilities, _unit_norm

__all__ = [
    "WavePacket",
    "LatticeConfig",
    "single_particle_packet",
    "build_product_in_state",
    "LatticeHamiltonian",
    "build_hamiltonian",
    "evolve",
    "entanglement_history",
    "collision_time",
]

SQRT_HALF = np.sqrt(0.5)


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


@np.errstate(all="ignore")  # a NaN envelope is refused below; others are exact limits
def single_particle_packet(n_sites: int, packet: WavePacket) -> np.ndarray:
    """Discrete Gaussian wavepacket, normalized after truncation to the lattice.

    Over- and underflow in the envelope give its exact limits: 0 away from
    the center of a very narrow packet, 1 across a very wide one.  A width
    whose square underflows gives 0/0 at a center on a site; that NaN
    envelope, like one with no norm on the lattice, raises ``ValueError``.
    """
    sites = np.arange(n_sites)
    width = np.float64(packet.width)  # NumPy squares to inf where Python raises OverflowError
    envelope = np.exp(-((sites - packet.center) ** 2) / (4.0 * width**2))
    amps = envelope * np.exp(1j * packet.momentum * sites)
    norm = np.linalg.norm(amps)
    if not norm >= PACKET_NORM_FLOOR:  # NaN fails too
        raise ValueError(
            f"packet at center {packet.center!r} with width {packet.width!r} has zero norm "
            f"on the {n_sites}-site lattice"
        )
    return amps / norm


def build_product_in_state(config: LatticeConfig) -> PureState:
    """Unentangled in-state: the tensor product of the two packets."""
    a = single_particle_packet(config.n_sites, config.packet_a)
    b = single_particle_packet(config.n_sites, config.packet_b)
    return PureState(config.n_sites**2, np.kron(a, b))


@dataclass(frozen=True, eq=False)
class LatticeHamiltonian:
    """The two-particle Hamiltonian as its n sector bonds and the contact energy.

    In the sector ``K = 2 pi k / n`` the Hamiltonian acts on the relative
    coordinate ``r = x_A - x_B mod n``; in the gauged basis of
    ``D_K = diag(e^{i K r / 2})`` it is a real ring whose bonds are all
    ``bonds[k]`` except the closing bond ``(n - 1, 0)``, which is
    ``(-1)^k bonds[k]``, with ``interaction`` at ``r = 0``.  That is all the
    object holds; no full n x n sector is built.  The bonds must be exact
    mirror negatives, ``bonds[n - k] == -bonds[k]`` for ``0 < k < n / 2``,
    as every nearest-neighbour lattice has them: then sector ``n - k``,
    gauged at ``K - 2 pi``, is the ring of sector k.  Other bonds, and
    complex and non-finite input, are rejected.
    """

    bonds: np.ndarray
    interaction: float

    def __post_init__(self):
        bonds = frozen_array("Hamiltonian bonds", self.bonds)
        if bonds.ndim != 1 or len(bonds) < MIN_SITES:
            raise ValueError(f"expected Hamiltonian bonds of shape (n,), n >= {MIN_SITES}, got {bonds.shape}")
        n = len(bonds)
        if not np.array_equal(bonds[: n // 2 : -1], -bonds[1 : (n + 1) // 2]):
            raise ValueError("Hamiltonian bonds must be mirror negatives, bonds[n - k] == -bonds[k] for 0 < k < n / 2")
        interaction = float(frozen_array("contact interaction", self.interaction, ()))
        object.__setattr__(self, "bonds", bonds)
        object.__setattr__(self, "interaction", interaction)

    @property
    def nbytes(self) -> int:
        return self.bonds.nbytes + np.dtype(float).itemsize


def build_hamiltonian(config: LatticeConfig) -> LatticeHamiltonian:
    """Two-particle Hamiltonian: hopping for each particle plus contact term.

    ``H = H_hop (x) I + I (x) H_hop + g * sum_i |i,i><i,i|`` conserves the
    total quasi-momentum K.  In the sector K it is a ring in ``r`` with
    hopping ``-J (1 + e^{-iK})`` from ``r + 1`` to ``r`` and the contact
    energy g at ``r = 0``.  The phases ``e^{i K r / 2}`` of ``D_K`` turn every
    bond into ``-2 J cos(K / 2)``; the closing bond ``(n - 1, 0)`` picks up
    ``e^{-i K n / 2} = (-1)^k`` on top, so each ring is real.  The bonds of
    k and n - k are set as the exact mirror negatives ``LatticeHamiltonian``
    asks for, ``bonds[n - k] = -bonds[k]``, which the cosines miss by up to
    an ulp.
    """
    # bonds[k] = -2 J cos(K / 2) with K / 2 = pi k / n, and bonds[n - k] = -bonds[k] exactly
    n = config.n_sites
    bonds = -2.0 * config.hopping * np.cos(np.pi * np.arange(n) / n)
    bonds[: n // 2 : -1] = -bonds[1 : (n + 1) // 2]
    return LatticeHamiltonian(bonds, config.interaction)


def _fold(x: np.ndarray, odd: bool) -> tuple[np.ndarray, np.ndarray]:
    """The halves of ``x[:, r]`` that the reflection of a ring of this parity keeps and flips.

    With ``s = (-1)^c`` the kept half, where the contact acts, is ``x_0``,
    then ``(x_j + s x_{n-j}) / sqrt 2`` for ``0 < j < n / 2``, then
    ``x_{n/2}`` for even n and c.  The flipped half, which is free, is
    ``(x_j - s x_{n-j}) / sqrt 2``, then ``x_{n/2}`` for even n and odd c.
    """
    n = x.shape[1]
    twin = -x[:, : n // 2 : -1] if odd else x[:, : n // 2 : -1]
    low = x[:, 1 : (n + 1) // 2]
    middle = [x[:, n // 2 : n // 2 + 1]] if n % 2 == 0 else []
    kept = np.concatenate([x[:, :1], (low + twin) * SQRT_HALF] + ([] if odd else middle), axis=1)
    return kept, np.concatenate([(low - twin) * SQRT_HALF] + (middle if odd else []), axis=1)


def _unfold(kept: np.ndarray, free: np.ndarray, out: np.ndarray, rows: np.ndarray, odd: bool) -> None:
    """Write into ``out[rows, r]`` the amplitudes whose ``_fold`` halves are ``kept`` and ``free``."""
    n = out.shape[1]
    pairs = (n - 1) // 2
    plus, minus = kept[:, 1 : pairs + 1], free[:, :pairs]
    out[rows, 0] = kept[:, 0]
    out[rows, 1 : pairs + 1] = (plus + minus) * SQRT_HALF
    out[rows, : n // 2 : -1] = ((minus - plus) if odd else (plus - minus)) * SQRT_HALF
    if n % 2 == 0:
        out[rows, n // 2] = free[:, pairs] if odd else kept[:, pairs + 1]


def _paths(h: LatticeHamiltonian, rings: np.ndarray, size: int, odd: bool) -> np.ndarray:
    """The kept halves of ``rings``, all of this parity: real paths of ``size`` sites with g at site 0.

    Neighbours are joined by the ring's bond and site 0 by ``sqrt 2`` times
    it, and so is ``r = n / 2`` for even n and c.  For odd n the last pair,
    ``(n - 1) / 2`` and ``(n + 1) / 2``, keeps the bond it shares as the
    self-energy ``(-1)^c`` times it.
    """
    n, bonds = len(h.bonds), h.bonds[rings]
    scale = np.ones(size - 1)
    scale[0] = np.sqrt(2.0)
    if n % 2 == 0 and not odd:
        scale[-1] = np.sqrt(2.0)
    j = np.arange(size - 1)
    paths = np.zeros((len(rings), size, size))
    paths[:, j, j + 1] = paths[:, j + 1, j] = bonds[:, None] * scale
    if n % 2:
        paths[:, -1, -1] = (1 - 2 * odd) * bonds
    paths[:, 0, 0] = h.interaction
    return paths


def _phased(energies: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``e^{-i energies t}``, one C-contiguous slice per time on a new last axis."""
    # e^{-iEt} is taken as a cos and a sin of the real phase, the same bits as a
    # complex exp at less cost
    phase = -energies[..., None] * times
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _evolved(modes: np.ndarray, energies: np.ndarray, weights: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``modes @ (e^{-i energies t} weights)`` for each ring's two columns, as ``(ring, site, 2, t)``."""
    phased = _phased(energies, times)[:, :, None] * weights[..., None]
    # the real modes meet a C-contiguous (..., 2, t) complex stack as a (..., 4t) real one
    out = modes @ phased.reshape(*phased.shape[:2], -1).view(float)
    return out.view(complex).reshape(*out.shape[:2], 2, len(times))


def _propagate(amplitudes: np.ndarray, h: LatticeHamiltonian, times):
    """``exp(-i H t)`` applied to ``amplitudes[x_A, x_B]``, yielded as ``(chunk, n, n)`` stacks.

    The amplitudes are relabelled to ``(r, x_B)`` and Fourier transformed
    over ``x_B``.  Sector k is moved into the real gauge of ``c = k`` for
    ``k <= n / 2`` and of ``c = k - n`` above, so that sectors c and -c sit
    on the same ring, and each ring c >= 0 takes its two sectors as two
    columns; ring 0, and ring n / 2 for even n, holds its one sector twice.
    The columns are folded into their reflection halves, the kept halves
    projected on the modes of one stacked real ``eigh`` per parity of c and
    the free halves on the closed-form modes of that parity.  The times are
    then walked in chunks of at most ``CHUNK_BYTES`` of amplitudes: each
    ring's phases are taken once and applied to both columns, the halves
    unfolded into their sectors, and ``D_K`` and the transform undone.
    """
    times = frozen_array("times", times)
    if times.ndim != 1:
        raise ValueError(f"times must be one-dimensional, got shape {times.shape}")
    n = len(h.bonds)
    sites = np.arange(n)
    # relative[r, x_B] = x_A = r + x_B, and back: r = x_A - x_B
    relative = (sites[:, None] + sites) % n
    # gauge[k, r] = e^{i pi c r / n} with c = k, or k - n above n / 2: periodic in c r with period 2n
    zone = np.where(2 * sites > n, sites - n, sites)
    gauge = np.exp(1j * np.pi / n * (np.outer(zone, sites) % (2 * n)))
    sectors = np.fft.fft(amplitudes[relative, sites], axis=1, norm="ortho").T * gauge.conj()
    groups = []
    for odd in (0, 1):
        rings = sites[odd : n // 2 + 1 : 2]
        # ring c's columns are the sectors c and -c, rows c and n - c of the transform
        rows = rings, -rings
        kept, free = _fold(np.stack([sectors[r] for r in rows], axis=-1), odd)
        energies, modes = np.linalg.eigh(_paths(h, rings, kept.shape[1], odd))
        # the free modes sqrt(2 / n) sin(pi q r / n), q of the parity of c, taken with q r mod 2n
        # so that the sine's argument stays below 2 pi; every ring of the parity shares them
        q = np.arange(2 - odd, n, 2)
        shared = _fold(np.sqrt(2.0 / n) * np.sin(np.pi / n * (np.outer(q, sites) % (2 * n))), odd)[1].T
        free_energies = np.outer(h.bonds[rings], 2.0 * np.cos(np.pi / n * q))
        halves = [(modes, energies, kept), (shared, free_energies, free)]
        # the real modes meet each complex pair of columns as four real ones
        groups.append((rows, [(m, e, (m.swapaxes(-1, -2) @ x.view(float)).view(complex)) for m, e, x in halves]))
    del sectors
    step = max(1, CHUNK_BYTES // (16 * n * n))
    for start in range(0, len(times), step):
        chunk = times[start : start + step]
        propagated = np.empty((n, n, len(chunk)), dtype=complex)
        for odd, (rows, halves) in enumerate(groups):
            kept, free = (_evolved(*half, chunk) for half in halves)
            # the first column is written last, so that the rings holding one sector twice write it once
            for col in (1, 0):
                _unfold(kept[:, :, col], free[:, :, col], propagated, rows[col], odd)
        propagated *= gauge[:, :, None]
        # (K, r, t) -> (x_B, r, t) -> (t, x_A, x_B)
        pairs = np.fft.ifft(propagated, axis=0, norm="ortho")
        del propagated
        out = np.empty((len(chunk), n, n), dtype=complex)
        out[:, relative, sites] = pairs.transpose(2, 1, 0)
        yield out


def evolve(psi: PureState, h: LatticeHamiltonian, times) -> list[PureState]:
    """Evolve through the reflection halves of the K sectors, one state per time."""
    n = len(h.bonds)
    if psi.dim != n * n:
        raise ValueError(f"state dimension {psi.dim} does not match {n} x {n} sites")
    chunks = _propagate(psi.amplitudes.reshape(n, n), h, times)
    return [PureState(n * n, amps.reshape(n * n)) for chunk in chunks for amps in chunk]


def entanglement_history(config: LatticeConfig, times) -> list[tuple[float, float]]:
    """Interparticle entanglement entropy (nats) along the evolution.

    Runs the full pipeline: product in-state, Hamiltonian, evolution, then
    the entropy across the fixed particle bipartition at each time.  That
    bipartition is the native index split, so no frame is applied: each
    time's ``n x n`` amplitude slice is the Schmidt matrix, and one stacked
    values-only SVD takes each chunk of times.  Each slice passes the checks
    of ``PureState`` without one being built.
    """
    n = config.n_sites
    psi0 = build_product_in_state(config)
    entropies = []
    for amplitudes in _propagate(psi0.amplitudes.reshape(n, n), build_hamiltonian(config), times):
        require_finite("amplitudes", amplitudes)
        for amps in amplitudes:
            # the norm of the contiguous slice, summed as PureState sums it; the
            # rescaling moves only roundoff, but without it written digits change
            amps /= _unit_norm(amps)
        entropies.extend(_entropy_nats(p) for p in _schmidt_probabilities(amplitudes))
    return [(float(t), s) for t, s in zip(times, entropies)]


def collision_time(config: LatticeConfig) -> float:
    """Rough time of closest approach: ring separation over closing speed.

    Group velocity of a packet is ``2 J sin k``; the heuristic feeds
    default time grids and makes no claim beyond order of magnitude.
    Packets that barely approach, or whose closing speed overflows, have
    no collision time and raise ``ValueError``.
    """
    n = config.n_sites
    delta = abs(config.packet_a.center - config.packet_b.center) % n
    separation = min(delta, n - delta)
    # an overflowing speed gives an inf or nan closing speed, refused below without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        v_a = 2.0 * config.hopping * np.sin(config.packet_a.momentum)
        v_b = 2.0 * config.hopping * np.sin(config.packet_b.momentum)
        closing = abs(v_a - v_b)
    if not np.isfinite(closing):
        # separation / inf would be 0, the time of packets that start at one site
        raise ValueError(f"the closing speed of the packets is {float(closing)}; no collision time")
    if closing < CLOSING_SPEED_FLOOR:
        raise ValueError("packets do not approach each other; no collision time")
    return float(separation / closing)
