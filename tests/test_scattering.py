"""Tests for the lattice scattering module."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

import tpslab as tl
from tpslab import scattering

HALF_PI = np.pi / 2


def config(n=16, g=2.0, width=1.5, hop=1.0):
    return tl.LatticeConfig(
        n_sites=n,
        hopping=hop,
        interaction=g,
        packet_a=tl.WavePacket(n / 4.0, width, HALF_PI),
        packet_b=tl.WavePacket(3.0 * n / 4.0, width, -HALF_PI),
    )


def hopping_matrix(n_sites: int, hopping: float) -> np.ndarray:
    """Oracle: the single-particle periodic hopping matrix, -J on neighbors and corners."""
    h = np.zeros((n_sites, n_sites))
    idx = np.arange(n_sites)
    h[idx, (idx + 1) % n_sites] = -hopping
    h[(idx + 1) % n_sites, idx] = -hopping
    return h


def sector_blocks(h: tl.LatticeHamiltonian) -> np.ndarray:
    """Oracle: the dense (n, n, n) stack of the gauged rings, ``blocks[k] = D_K^dag H_K D_K``."""
    n = len(h.bonds)
    r = np.arange(n)
    blocks = np.zeros((n, n, n))
    blocks[:, r[:-1], r[1:]] = blocks[:, r[1:], r[:-1]] = h.bonds[:, None]
    blocks[:, n - 1, 0] = blocks[:, 0, n - 1] = np.where(r % 2 == 0, h.bonds, -h.bonds)
    blocks[:, 0, 0] = h.interaction
    return blocks


def sector_evolution(h: tl.LatticeHamiltonian, amplitudes: np.ndarray, t: float) -> np.ndarray:
    """Oracle: exp(-i H t) applied through a dense ``expm`` of each gauged ring of ``sector_blocks``."""
    n = len(h.bonds)
    r = np.arange(n)
    relative = (r[:, None] + r) % n
    gauge = np.exp(1j * np.pi * np.outer(r, r) / n)
    # psi[r + x_B, x_B], Fourier transformed over x_B and gauged: one row per sector
    sectors = np.fft.fft(np.reshape(amplitudes, (n, n))[relative, r], axis=1, norm="ortho").T * gauge.conj()
    evolved = np.array([expm(-1j * t * block) @ sector for block, sector in zip(sector_blocks(h), sectors)])
    out = np.empty((n, n), dtype=complex)
    out[relative, r] = np.fft.ifft(evolved * gauge, axis=0, norm="ortho").T
    return out.ravel()


def dense_hamiltonian(cfg) -> np.ndarray:
    """Oracle: the n^2 x n^2 Kronecker sum of the hopping plus the contact term, n <= 24."""
    n = cfg.n_sites
    assert n <= 24, "the dense oracle is for small lattices"
    single = hopping_matrix(n, cfg.hopping)
    eye = np.eye(n)
    h = np.kron(single, eye) + np.kron(eye, single)
    coincidence = np.arange(n) * n + np.arange(n)
    h[coincidence, coincidence] += cfg.interaction
    return h


def sparse_hamiltonian(cfg):
    """Oracle: the n^2 x n^2 Kronecker sum as a sparse matrix, for any n."""
    n = cfg.n_sites
    idx = np.arange(n)
    rows = np.concatenate([idx, (idx + 1) % n])
    cols = np.concatenate([(idx + 1) % n, idx])
    single = sp.csr_matrix((np.full(2 * n, -cfg.hopping), (rows, cols)), shape=(n, n))
    eye = sp.identity(n, format="csr")
    contact = np.zeros(n * n)
    contact[idx * n + idx] = cfg.interaction
    return (sp.kron(single, eye) + sp.kron(eye, single) + sp.diags(contact)).tocsr()


def schmidt_entropies(states, n: int) -> np.ndarray:
    """Oracle: the entropy of each state's normalized Schmidt spectrum, in nats."""
    entropies = []
    for amps in states:
        s = np.linalg.svd(np.reshape(amps, (n, n)), compute_uv=False) ** 2
        p = s[s > 0.0] / s.sum()
        entropies.append(float(-(p * np.log(p)).sum()))
    return np.array(entropies)


def propagator(cfg, t: float) -> np.ndarray:
    """exp(-i H t) from the sector engine, one evolved basis state per column."""
    dim = cfg.n_sites**2
    h = tl.build_hamiltonian(cfg)
    columns = [tl.evolve(tl.PureState(dim, np.eye(dim)[j]), h, [t])[0].amplitudes for j in range(dim)]
    return np.stack(columns, axis=1)


class TestConfig:
    def test_rejects_out_of_range_sites(self):
        with pytest.raises(ValueError, match="site count"):
            config(n=4)
        with pytest.raises(ValueError, match="site count"):
            config(n=scattering.MAX_SITES + 1)

    def test_rejects_bad_packet(self):
        with pytest.raises(ValueError, match="width"):
            tl.WavePacket(3.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="momentum"):
            tl.WavePacket(3.0, 1.0, 4.0)

    @pytest.mark.parametrize("field", range(3))
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_packet_rejects_non_finite(self, field, bad):
        values = [4.0, 1.0, 0.5]
        values[field] = bad
        with pytest.raises(ValueError, match="finite"):
            tl.WavePacket(*values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_config_rejects_non_finite(self, bad):
        p, q = tl.WavePacket(4, 1, 0.5), tl.WavePacket(12, 1, -0.5)
        with pytest.raises(ValueError, match="finite"):
            tl.LatticeConfig(16, bad, 0.0, p, q)
        with pytest.raises(ValueError, match="finite"):
            tl.LatticeConfig(16, 1.0, bad, p, q)

    def test_rejects_nonpositive_hopping(self):
        with pytest.raises(ValueError, match="hopping"):
            config(hop=0.0)

    def test_rejects_non_periodic_boundary(self):
        # the lattice is always periodic; there is no boundary option to set
        with pytest.raises(TypeError, match="boundary"):
            tl.LatticeConfig(16, 1.0, 0.0, tl.WavePacket(4, 1, 0.5), tl.WavePacket(12, 1, -0.5), boundary="open")


class TestInState:
    def test_is_a_pure_state(self):
        psi = tl.build_product_in_state(config())
        assert isinstance(psi, tl.PureState)
        assert psi.dim == 16**2

    def test_product_state_has_no_entanglement(self):
        psi = tl.build_product_in_state(config())
        frame = tl.TpsFrame.identity(tl.Factorization(16**2, (16, 16)))
        pure = tl.PureState(16**2, psi.amplitudes)
        assert tl.entanglement_entropy(pure, frame) < 1e-10

    def test_packet_peaks_at_center(self):
        packet = scattering.single_particle_packet(16, tl.WavePacket(5.0, 1.2, 0.3))
        assert np.argmax(np.abs(packet)) == 5

    def test_mean_quasimomentum_matches_packet(self):
        # oracle: discrete Fourier transform of each single-particle factor
        for k in (HALF_PI, -HALF_PI):
            packet = scattering.single_particle_packet(16, tl.WavePacket(4.0, 1.5, k))
            fourier = np.fft.fft(packet)
            grid = 2 * np.pi * np.arange(16) / 16
            grid = np.where(grid > np.pi, grid - 2 * np.pi, grid)
            weight = np.abs(fourier) ** 2
            mean_k = float(weight @ grid / weight.sum())
            assert abs(mean_k - k) < 0.05

    def test_zero_norm_packet_rejected(self):
        with pytest.raises(ValueError, match="zero norm"):
            scattering.single_particle_packet(16, tl.WavePacket(1e6, 0.5, 0.0))


    @pytest.mark.parametrize(
        "center, width",
        # 0/0 at a center on a site; no norm left by an off-site center or a far one
        [(2.0, 1e-170), (2.0, 1e-320), (2.5, 1e-170), (2.5, 0.01), (1e6, 0.5), (1e200, 2.0)],
    )
    def test_refusal_names_center_and_width_without_warnings(self, center, width):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="zero norm") as refused:
                scattering.single_particle_packet(8, tl.WavePacket(center, width, 0.0))
        assert f"center {center!r} with width {width!r}" in str(refused.value)

    @pytest.mark.parametrize("width", [1e-160, 1e-100, 0.01])
    def test_narrow_limit_is_one_site_without_warnings(self, width):
        # away from the center the ratio overflows to inf or exp underflows: the envelope is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            packet = scattering.single_particle_packet(8, tl.WavePacket(3.0, width, 0.5))
        assert np.flatnonzero(packet).tolist() == [3]
        assert abs(abs(packet[3]) - 1.0) < 1e-15

    def test_wide_limit_is_flat_without_warnings(self):
        # the width's square overflows, so every site reads exp(0) = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            packet = scattering.single_particle_packet(8, tl.WavePacket(3.0, 1e200, 0.5))
        np.testing.assert_allclose(np.abs(packet), np.full(8, np.sqrt(1.0 / 8.0)), rtol=1e-15)

    @pytest.mark.parametrize("center, width", [(2.0, 1e-150), (3.3, 0.2), (5.0, 1.5), (-3.0, 2.0), (4.0, 1e6)])
    def test_accepted_packets_are_the_envelope_formula_bit_for_bit(self, center, width):
        sites = np.arange(12)
        amps = np.exp(-((sites - center) ** 2) / (4.0 * width**2)) * np.exp(0.7j * sites)
        expected = amps / np.linalg.norm(amps)
        packet = scattering.single_particle_packet(12, tl.WavePacket(center, width, 0.7))
        assert packet.tobytes() == expected.tobytes()

class TestHamiltonian:
    def test_single_particle_spectrum(self):
        # periodic hopping has eigenvalues -2 J cos(2 pi k / N)
        h = hopping_matrix(8, 1.0)
        got = np.sort(np.linalg.eigvalsh(h))
        expected = np.sort(-2.0 * np.cos(2.0 * np.pi * np.arange(8) / 8))
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_hermitian(self):
        blocks = sector_blocks(tl.build_hamiltonian(config(n=10)))
        assert np.abs(blocks - blocks.conj().swapaxes(1, 2)).max() < 1e-14
        h = dense_hamiltonian(config(n=10))
        assert np.abs(h - h.conj().T).max() < 1e-14

    def test_interaction_support_is_coincidence_diagonal(self):
        n = 10
        diff = dense_hamiltonian(config(n=n, g=2.0)) - dense_hamiltonian(config(n=n, g=0.0))
        coincidence = np.arange(n) * n + np.arange(n)
        expected = np.zeros((n * n, n * n))
        expected[coincidence, coincidence] = 2.0
        np.testing.assert_array_equal(diff, expected)
        # in every sector the contact term sits at r = 0 alone
        h0 = tl.build_hamiltonian(config(n=n, g=0.0))
        h2 = tl.build_hamiltonian(config(n=n, g=2.0))
        expected = np.zeros((n, n, n))
        expected[:, 0, 0] = 2.0
        np.testing.assert_array_equal(sector_blocks(h2) - sector_blocks(h0), expected)

    def test_free_propagator_is_local(self):
        # with g = 0 the evolution operator factors over the particles
        n = 8
        u_t = propagator(config(n=n, g=0.0), 0.7)
        fac = tl.Factorization(n * n, (n, n))
        assert tl.operator_schmidt_rank(u_t, fac) == 1

    def test_interacting_propagator_is_not_local(self):
        n = 8
        u_t = propagator(config(n=n, g=2.0), 0.7)
        fac = tl.Factorization(n * n, (n, n))
        assert tl.operator_schmidt_rank(u_t, fac) > 1

    @pytest.mark.parametrize("n", [8, 9])
    def test_sector_spectra_match_dense_oracle(self, n):
        cfg = config(n=n, g=2.0)
        sectors = np.sort(np.linalg.eigvalsh(sector_blocks(tl.build_hamiltonian(cfg))).ravel())
        np.testing.assert_allclose(sectors, np.linalg.eigvalsh(dense_hamiltonian(cfg)), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [8, 9, 48, 255, 256])
    def test_bonds_are_exact_mirror_negatives(self, n):
        # bonds[n - k] = -bonds[k] bit for bit, and every bond is -2 J cos(pi k / n) to roundoff
        hop = 0.7
        bonds = tl.build_hamiltonian(config(n=n, hop=hop)).bonds
        k = np.arange(1, (n + 1) // 2)
        np.testing.assert_array_equal(bonds[n - k], -bonds[k])
        assert np.abs(bonds + 2.0 * hop * np.cos(np.pi * np.arange(n) / n)).max() <= 2e-15 * hop

    def test_holds_only_read_only_bonds(self):
        # the object holds the 12 bonds and g; sector_blocks above is the dense oracle
        h = tl.build_hamiltonian(config(n=12))
        assert h.bonds.shape == (12,) and h.bonds.dtype == np.float64
        assert h.nbytes == h.bonds.nbytes + 8
        with pytest.raises(ValueError):
            h.bonds[0] = 1.0

    @pytest.mark.parametrize("n", [8, 9])
    def test_blocks_are_the_gauged_sectors(self, n):
        # oracle: the complex ring of sector K, hopping -J (1 + e^{-iK}) from r + 1
        # to r and g at r = 0, conjugated by D_K = diag(e^{iKr/2})
        cfg = config(n=n, g=2.0, hop=0.7)
        r = np.arange(n)
        expected = []
        for k in range(n):
            big_k = 2.0 * np.pi * k / n
            ring = np.zeros((n, n), dtype=complex)
            ring[r, (r + 1) % n] = -cfg.hopping * (1.0 + np.exp(-1j * big_k))
            ring += ring.conj().T
            ring[0, 0] = cfg.interaction
            gauge = np.diag(np.exp(0.5j * big_k * r))
            expected.append(gauge.conj().T @ ring @ gauge)
        np.testing.assert_allclose(sector_blocks(tl.build_hamiltonian(cfg)), np.array(expected), rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("shape", [(8, 8), (8, 8, 8), (7,)])
    def test_rejects_non_cube_blocks(self, shape):
        # the bonds are one per sector, of at least MIN_SITES sectors; the old cube is refused too
        with pytest.raises(ValueError, match="shape"):
            tl.LatticeHamiltonian(np.zeros(shape), 2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_blocks(self, bad):
        bonds = np.zeros(8)
        bonds[2] = bad
        with pytest.raises(ValueError, match="finite"):
            tl.LatticeHamiltonian(bonds, 2.0)
        with pytest.raises(ValueError, match="finite"):
            tl.LatticeHamiltonian(np.zeros(8), bad)

    @pytest.mark.parametrize("n", [8, 9, 48, 49])
    def test_blocks_commute_with_the_sector_reflection(self, n):
        # P: r -> -r mod n for even k; QP, Q = diag(1, -1, ..., -1), for odd k
        h = tl.build_hamiltonian(config(n=n, g=2.0, hop=0.7))
        r = np.arange(n)
        reflection = np.zeros((n, n))
        reflection[(-r) % n, r] = 1.0
        flip = np.diag(np.where(r == 0, 1.0, -1.0)) @ reflection
        for k, block in enumerate(sector_blocks(h)):
            op = flip if k % 2 else reflection
            np.testing.assert_array_equal(op @ block, block @ op)
            # the other reflection misses by twice the bond
            other = reflection if k % 2 else flip
            residual = np.abs(other @ block - block @ other).max()
            np.testing.assert_allclose(residual, 2.0 * abs(h.bonds[k]), rtol=1e-12)

    @pytest.mark.parametrize("n", [8, 9, 48, 49])
    def test_closed_form_free_modes_are_eigenvectors(self, n):
        # sqrt(2/n) sin(pi q r / n), 0 < q < n, q = k mod 2, at energy 2 b_k cos(pi q / n)
        h = tl.build_hamiltonian(config(n=n, g=2.0, hop=0.7))
        r = np.arange(n)
        for k, block in enumerate(sector_blocks(h)):
            q = np.arange(1, n)[np.arange(1, n) % 2 == k % 2]
            modes = np.sqrt(2.0 / n) * np.sin(np.pi * np.outer(r, q) / n)
            energies = 2.0 * h.bonds[k] * np.cos(np.pi * q / n)
            np.testing.assert_allclose(modes.T @ modes, np.eye(len(q)), rtol=0.0, atol=1e-13)
            assert np.abs(block @ modes - modes * energies).max() <= 1e-13, k


def history_peak(n: int) -> float:
    """tracemalloc peak of a 61-time history over the default grid at n sites."""
    cfg = config(n=n, g=2.0, width=2.0)
    horizon = 2.5 * tl.collision_time(cfg)
    times = [i * horizon / 60.0 for i in range(61)]
    tracemalloc.start()
    try:
        tl.entanglement_history(cfg, times)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEvolve:
    def test_time_zero_returns_input(self):
        cfg = config(n=12)
        psi = tl.build_product_in_state(cfg)
        h = tl.build_hamiltonian(cfg)
        out = tl.evolve(psi, h, [0.0])[0]
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-12)

    def test_norm_preserved(self):
        cfg = config(n=12)
        psi = tl.build_product_in_state(cfg)
        h = tl.build_hamiltonian(cfg)
        for state in tl.evolve(psi, h, [0.5, 2.0, 7.0]):
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-9

    def test_energy_conserved(self):
        cfg = config(n=12)
        psi = tl.build_product_in_state(cfg)
        h = dense_hamiltonian(cfg)
        initial = np.vdot(psi.amplitudes, h @ psi.amplitudes).real
        scale = max(abs(initial), 1.0)
        for state in tl.evolve(psi, tl.build_hamiltonian(cfg), [1.0, 3.0, 6.0]):
            energy = np.vdot(state.amplitudes, h @ state.amplitudes).real
            assert abs(energy - initial) / scale < 1e-9

    def test_returns_pure_states(self):
        cfg = config(n=12)
        psi = tl.build_product_in_state(cfg)
        states = tl.evolve(psi, tl.build_hamiltonian(cfg), [0.0, 1.0, 2.5])
        assert len(states) == 3
        assert all(isinstance(state, tl.PureState) and state.dim == 144 for state in states)

    def test_rejects_non_hermitian(self):
        # real bonds and g give symmetric blocks; an imaginary part would make H non-Hermitian
        h = tl.build_hamiltonian(config(n=8))
        with pytest.raises(ValueError, match="must be real"):
            tl.LatticeHamiltonian(h.bonds + 1e-3j, h.interaction)
        with pytest.raises(ValueError, match="must be real"):
            tl.LatticeHamiltonian(h.bonds, h.interaction + 1e-3j)

    def test_rejects_state_of_another_lattice(self):
        psi = tl.build_product_in_state(config(n=8))
        with pytest.raises(ValueError, match="does not match"):
            tl.evolve(psi, tl.build_hamiltonian(config(n=9)), [1.0])

    def test_complex_hamiltonian_matches_expm(self):
        # the sector blocks are real only in the gauged basis; every lattice parity
        # and sign of g must still give exp(-i H t) psi of the dense Kronecker sum
        times = [0.0, 0.3, 1.7, 4.0]
        for n in (8, 9, 13):
            for g in (0.0, 2.0, -1.5):
                cfg = tl.LatticeConfig(
                    n, 1.0, g, tl.WavePacket(n / 4.0 + 0.37, 1.3, HALF_PI), tl.WavePacket(0.7 * n, 1.1, -1.0)
                )
                psi = tl.build_product_in_state(cfg)
                h = dense_hamiltonian(cfg)
                for t, state in zip(times, tl.evolve(psi, tl.build_hamiltonian(cfg), times)):
                    want = expm(-1j * t * h) @ psi.amplitudes
                    error = np.abs(state.amplitudes - want).max()
                    assert error <= 1e-12, (n, g, t, error)

    @pytest.mark.parametrize("n", [8, 9, 12, 13])
    def test_mirror_negative_bonds_match_expm_of_each_ring(self, n):
        # random bonds with bonds[n - k] = -bonds[k]: each ring must evolve as its
        # dense expm, though sectors k > n / 2 are taken on the ring of n - k
        cfg = config(n=n, g=2.0)
        psi = tl.build_product_in_state(cfg)
        built = tl.build_hamiltonian(cfg)
        bonds = np.random.default_rng(n).normal(size=n)
        k = np.arange(1, (n + 1) // 2)
        bonds[n - k] = -bonds[k]
        times = [0.0, 0.9, 3.7]
        for t in times:
            # the oracle itself, against the dense Kronecker sum
            want = expm(-1j * t * dense_hamiltonian(cfg)) @ psi.amplitudes
            assert np.abs(sector_evolution(built, psi.amplitudes, t) - want).max() <= 1e-12
        h = tl.LatticeHamiltonian(bonds, cfg.interaction)
        for t, state in zip(times, tl.evolve(psi, h, times)):
            error = np.abs(state.amplitudes - sector_evolution(h, psi.amplitudes, t)).max()
            assert error <= 1e-12, (t, error)

    @pytest.mark.parametrize("n", [8, 9, 12, 13])
    def test_rejects_bonds_that_are_not_mirror_negatives(self, n):
        # random bonds, and build_hamiltonian's with one bond moved by an ulp
        moved = tl.build_hamiltonian(config(n=n)).bonds.copy()
        moved[n - 2] = np.nextafter(moved[n - 2], 0.0)
        for bonds in (np.random.default_rng(n).normal(size=n), moved):
            with pytest.raises(ValueError, match=r"mirror negatives, bonds\[n - k\] == -bonds\[k\]"):
                tl.LatticeHamiltonian(bonds, 2.0)

    def test_no_times_give_no_states(self):
        cfg = config(n=8)
        assert tl.evolve(tl.build_product_in_state(cfg), tl.build_hamiltonian(cfg), []) == []

    def test_chunks_match_one_pass(self, monkeypatch):
        # the times are walked in chunks; one time per chunk gives the same states
        cfg = config(n=12)
        psi, h = tl.build_product_in_state(cfg), tl.build_hamiltonian(cfg)
        times = [0.0, 0.4, 1.3, 2.2, 5.0]
        whole = tl.evolve(psi, h, times)
        monkeypatch.setattr(scattering, "CHUNK_BYTES", 1)
        for one, other in zip(tl.evolve(psi, h, times), whole, strict=True):
            assert np.abs(one.amplitudes - other.amplitudes).max() <= 1e-15


class TestHistory:
    @pytest.mark.parametrize("n, g", [(8, 1.0), (12, 2.0), (16, 0.0), (24, 2.0)])
    def test_matches_identity_frame_entropy(self, n, g):
        # reference: the general frame path, a PureState measured in the
        # identity frame on n x n, which the history skips
        cfg = config(n=n, g=g)
        times = [i * 2.5 * tl.collision_time(cfg) / 20.0 for i in range(21)]
        frame = tl.TpsFrame.identity(tl.Factorization(n * n, (n, n)))
        states = tl.evolve(tl.build_product_in_state(cfg), tl.build_hamiltonian(cfg), times)
        expected = [
            (float(t), tl.entanglement_entropy(
                tl.PureState(n * n, state.amplitudes / np.linalg.norm(state.amplitudes)), frame
            ))
            for t, state in zip(times, states)
        ]
        assert tl.entanglement_history(cfg, times) == expected

    def test_free_history_is_flat_zero(self):
        history = tl.entanglement_history(config(n=12, g=0.0), np.arange(0.0, 6.1, 1.0))
        assert max(s for _, s in history) < 1e-8

    def test_initial_entropy_vanishes_for_any_config(self):
        for g in (0.0, 1.0, 3.0):
            history = tl.entanglement_history(config(n=12, g=g), [0.0])
            assert history[0][1] < 1e-10

    def test_collision_generates_entanglement(self):
        # calibrated once against this simulation: N = 16, J = 1, g = 2,
        # counter-propagating packets collide near t = 2 and the entropy
        # plateaus around 0.54 nats by t = 4
        history = dict(tl.entanglement_history(config(n=16, g=2.0), [0.0, 4.0]))
        assert history[0.0] < 1e-10
        assert history[4.0] > 0.2

    def test_first_post_collision_sample_exceeds_start(self):
        cfg = config(n=12, g=1.0)
        t_post = 1.5 * tl.collision_time(cfg)
        history = tl.entanglement_history(cfg, [0.0, t_post])
        assert history[1][1] > history[0][1]

    def test_above_old_cap_matches_sparse_propagation(self):
        # oracle: the sparse Kronecker sum propagated by expm_multiply on the
        # default 61-time grid, at 64 sites (the old cap was 48)
        n = 64
        cfg = config(n=n, g=2.0, width=2.0)
        horizon = 2.5 * tl.collision_time(cfg)
        times = [i * horizon / 60.0 for i in range(61)]
        psi0 = tl.build_product_in_state(cfg).amplitudes
        states = expm_multiply(-1j * sparse_hamiltonian(cfg), psi0, start=0.0, stop=horizon, num=61, endpoint=True)
        got = [entropy for _, entropy in tl.entanglement_history(cfg, times)]
        assert np.abs(np.array(got) - schmidt_entropies(states, n)).max() <= 1e-9

    def test_odd_size_above_the_dense_oracle_matches_sparse_propagation(self):
        # the same oracle at 97 sites: for odd n each mirror pair (k, n - k) joins
        # an even and an odd sector
        n = 97
        cfg = config(n=n, g=2.0, width=2.0)
        horizon = 2.5 * tl.collision_time(cfg)
        times = [i * horizon / 60.0 for i in range(61)]
        psi0 = tl.build_product_in_state(cfg).amplitudes
        states = expm_multiply(-1j * sparse_hamiltonian(cfg), psi0, start=0.0, stop=horizon, num=61, endpoint=True)
        got = [entropy for _, entropy in tl.entanglement_history(cfg, times)]
        assert np.abs(np.array(got) - schmidt_entropies(states, n)).max() <= 1e-9
        assert max(got) > 0.1

    def test_site_cap_matches_sparse_propagation(self):
        # the same oracle at MAX_SITES, with packets 16 sites apart so that they
        # collide by t = 4 and the contact acts on both sampled times
        n = scattering.MAX_SITES
        cfg = tl.LatticeConfig(
            n, 1.0, 2.0, tl.WavePacket(n / 2 - 8.0, 2.0, HALF_PI), tl.WavePacket(n / 2 + 8.0, 2.0, -HALF_PI)
        )
        times = [2.0, 4.0]
        psi0 = tl.build_product_in_state(cfg)
        expected = expm_multiply(-1j * sparse_hamiltonian(cfg), psi0.amplitudes, start=2.0, stop=4.0, num=2)
        states = tl.evolve(psi0, tl.build_hamiltonian(cfg), times)
        assert max(np.abs(s.amplitudes - e).max() for s, e in zip(states, expected)) <= 1e-10
        got = np.array([entropy for _, entropy in tl.entanglement_history(cfg, times)])
        assert np.abs(got - schmidt_entropies(expected, n)).max() <= 1e-10
        assert got[1] > 0.1

    def test_one_stacked_eigh_of_the_sectors(self, monkeypatch):
        # structure guard: at 48 sites only the halves the contact acts on are
        # diagonalized, once per ring c = 0, ..., 24 that sectors c and -c share:
        # 13 real paths of 25 sites (even c) and 12 of 24 (odd c), never a full
        # 48 x 48 block, the 2304 x 2304 Kronecker sum or a complex block; the 3
        # times are one chunk, and the Schmidt step one values-only SVD
        eighs, svds = [], []
        eigh, svd = np.linalg.eigh, np.linalg.svd

        def recording_eigh(a, *args, **kwargs):
            eighs.append((np.shape(a), np.asarray(a).dtype))
            return eigh(a, *args, **kwargs)

        def recording_svd(a, *args, **kwargs):
            svds.append((np.shape(a), kwargs.get("compute_uv")))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        tl.entanglement_history(config(n=48), [0.0, 1.0, 2.0])
        assert eighs == [((13, 25, 25), np.float64), ((12, 24, 24), np.float64)]
        assert svds == [((3, 48, 48), False)]
        # for odd n every kept half has (n + 1) / 2 sites: still one eigh per
        # parity of the rings c = 0, ..., 24
        eighs.clear()
        tl.entanglement_history(config(n=49), [0.0])
        assert eighs == [((13, 25, 25), np.float64), ((12, 25, 25), np.float64)]

    @pytest.mark.parametrize("n, shapes", [
        (48, [(13, 25), (13, 23), (12, 24), (12, 24)]),
        (49, [(13, 25), (13, 24), (12, 25), (12, 24)]),
    ])
    def test_one_phase_table_per_ring(self, n, shapes, monkeypatch):
        # structure guard: the kept and the free phases are taken once per ring
        # c = 0, ..., n // 2, one row each, and serve both its sectors c and -c;
        # for odd n too, whose sectors c and n - c differ in parity
        tables = []
        phased = scattering._phased

        def recording_phased(energies, times):
            tables.append(np.shape(energies))
            return phased(energies, times)

        monkeypatch.setattr(scattering, "_phased", recording_phased)
        tl.entanglement_history(config(n=n), [0.0, 1.0])
        assert tables == shapes

    def test_rejects_unnormalized_evolution(self, monkeypatch):
        # the in-state is valid; the history checks the norm of each evolved slice
        psi0 = tl.build_product_in_state(config(n=8))
        drifted = 1.001 * psi0.amplitudes.reshape(1, 8, 8)
        monkeypatch.setattr(scattering, "_propagate", lambda *args: iter([drifted]))
        with pytest.raises(ValueError, match="not normalized"):
            tl.entanglement_history(config(n=8), [0.0])

    def test_rejects_non_finite_evolution(self, monkeypatch):
        monkeypatch.setattr(scattering, "_propagate", lambda *args: iter([np.full((2, 8, 8), np.nan + 0j)]))
        with pytest.raises(ValueError, match="finite"):
            tl.entanglement_history(config(n=8), [0.0, 1.0])

    def test_peak_memory_at_the_site_cap(self):
        # half-size eigenvectors and chunks of times: a 61-time history at the
        # 256-site cap peaks near 40 MB
        assert scattering.MAX_SITES == 256
        assert history_peak(256) <= 70e6

    def test_peak_memory_at_128_sites(self):
        # the old cap: 25 MB, where full real blocks and one (61, n, n) stack read 66 MB
        assert history_peak(128) <= 30e6

    def test_rejects_times_that_are_not_finite(self):
        with pytest.raises(ValueError, match="^times must be finite"):
            tl.entanglement_history(config(n=8), [0.0, np.nan])
        with pytest.raises(ValueError, match="^times must be finite"):
            tl.evolve(tl.build_product_in_state(config(n=8)), tl.build_hamiltonian(config(n=8)), [np.inf])

    def test_rejects_times_that_are_not_one_dimensional(self):
        with pytest.raises(ValueError, match=r"^times must be one-dimensional, got shape \(1, 2\)"):
            tl.entanglement_history(config(n=8), np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError, match=r"^times must be one-dimensional, got shape \(\)"):
            tl.entanglement_history(config(n=8), 1.0)

    def test_exchange_symmetry(self):
        # swapping the two packets mirrors the state; for the symmetric
        # Hamiltonian both orderings give the same entropy series
        n = 12
        p = tl.WavePacket(3.0, 1.2, HALF_PI)
        q = tl.WavePacket(9.0, 1.7, -HALF_PI)
        times = np.arange(0.0, 4.1, 0.5)
        first = tl.entanglement_history(tl.LatticeConfig(n, 1.0, 2.0, p, q), times)
        second = tl.entanglement_history(tl.LatticeConfig(n, 1.0, 2.0, q, p), times)
        for (_, s1), (_, s2) in zip(first, second):
            assert abs(s1 - s2) < 1e-10


@st.composite
def lattice_collisions(draw):
    """A lattice of 8 to 24 sites, either parity, with fractional packet centres."""
    n = draw(st.integers(8, 24))
    packets = [
        tl.WavePacket(
            draw(st.floats(0.0, n - 1.0)),
            draw(st.floats(0.8, 3.0)),
            draw(st.floats(-np.pi, np.pi, exclude_min=True)),
        )
        for _ in range(2)
    ]
    g = draw(st.floats(-3.0, 3.0))
    times = draw(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=3))
    return tl.LatticeConfig(n, 1.0, g, *packets), times


@settings(max_examples=25, deadline=None)
@given(case=lattice_collisions())
def test_sector_engine_matches_dense_expm(case):
    # oracle: exp(-i H t) of the dense Kronecker sum; the history must then be the
    # identity-frame entropy of those same states, bit for bit
    cfg, times = case
    n = cfg.n_sites
    psi = tl.build_product_in_state(cfg)
    h = dense_hamiltonian(cfg)
    states = tl.evolve(psi, tl.build_hamiltonian(cfg), times)
    for t, state in zip(times, states):
        error = np.abs(state.amplitudes - expm(-1j * t * h) @ psi.amplitudes).max()
        assert error <= 1e-12, (t, error)
    frame = tl.TpsFrame.identity(tl.Factorization(n * n, (n, n)))
    expected = [
        (float(t), tl.entanglement_entropy(
            tl.PureState(n * n, state.amplitudes / np.linalg.norm(state.amplitudes)), frame
        ))
        for t, state in zip(times, states)
    ]
    assert tl.entanglement_history(cfg, times) == expected


class TestCollisionTime:
    def test_counter_propagating_packets(self):
        cfg = tl.LatticeConfig(
            24, 1.0, 2.0, tl.WavePacket(6.0, 2.0, HALF_PI), tl.WavePacket(18.0, 2.0, -HALF_PI)
        )
        assert abs(tl.collision_time(cfg) - 3.0) < 1e-12

    def test_comoving_packets_have_no_collision(self):
        cfg = tl.LatticeConfig(
            16, 1.0, 2.0, tl.WavePacket(4.0, 1.5, HALF_PI), tl.WavePacket(12.0, 1.5, HALF_PI)
        )
        with pytest.raises(ValueError, match="approach"):
            tl.collision_time(cfg)

    def test_overflowing_closing_speed_is_refused(self):
        # 2 J sin k overflows to inf, and separation / inf would read as a time of 0
        cfg = tl.LatticeConfig(8, 1e308, 1.0, tl.WavePacket(2.0, 2.0, 1.0), tl.WavePacket(6.0, 2.0, -1.0))
        with pytest.raises(ValueError, match="closing speed of the packets is inf"):
            tl.collision_time(cfg)


def benchmark_collision(n: int, width: float = 2.0) -> tl.LatticeConfig:
    """The benchmark's ``scatter`` collision (momenta 1.5708 and -1.5708, g = 2) at n sites."""
    return tl.LatticeConfig(
        n, 1.0, 2.0, tl.WavePacket(n / 4.0, width, 1.5708), tl.WavePacket(3.0 * n / 4.0, width, -1.5708)
    )


def plateau_entropy(cfg: tl.LatticeConfig) -> float:
    """Scattering-theory oracle: the entropy the collision leaves, with no eigh and no propagation.

    The contact is a one-site impurity in the relative coordinate, and on a 1D
    lattice momentum and energy conservation allow only (k1, k2) -> (k1, k2)
    or (k2, k1).  A pair closing at dv = 2J (sin k1 - sin k2) > 0 is
    transmitted with tau = 1 / (1 + i g / dv) and reflected with rho = tau - 1;
    a pair that does not close passes through.  The out-state in momentum space
    is psi(k1, k2) = tau(k1, k2) a(k1) b(k2) + rho(k2, k1) a(k2) b(k1), with a
    and b the packets' orthonormal DFTs.  Free evolution afterwards is U (x) U
    and keeps its Schmidt spectrum until the packets meet again around the ring.

    Domain of validity: the engine reaches this plateau by 2.5 collision times
    only when the packets have separated by then, which needs momenta near
    +-pi/2 (where the velocity spread is least), widths of 2 or more and at
    least 96 sites.  Outside it (k = +-0.8, or a 48-site ring where the packets
    collide again) the engine's entropy is not yet, or no longer, the plateau.
    """
    n = cfg.n_sites
    a = np.fft.fft(scattering.single_particle_packet(n, cfg.packet_a), norm="ortho")
    b = np.fft.fft(scattering.single_particle_packet(n, cfg.packet_b), norm="ortho")
    sines = np.sin(2.0 * np.pi * np.fft.fftfreq(n))
    dv = 2.0 * cfg.hopping * (sines[:, None] - sines[None, :])
    closing = dv > 0
    tau = np.ones((n, n), dtype=complex)
    tau[closing] = 1.0 / (1.0 + 1j * cfg.interaction / dv[closing])
    psi = tau * np.outer(a, b) + (tau - 1.0).T * np.outer(b, a)
    probs = np.linalg.svd(psi, compute_uv=False) ** 2
    probs = probs[probs > 0] / probs.sum()
    return float(-(probs * np.log(probs)).sum())


class TestScatteringPlateau:
    @pytest.mark.parametrize("n", [96, 128, 255, 256])
    def test_benchmark_collision_reaches_the_plateau(self, n):
        # S_inf = 0.5146977003 at every size; the gaps read 3.9e-8 at 96 sites and
        # 5.6e-9, 4.8e-9, 4.8e-9 above.  At 96 sites the gap oscillates at that
        # level (3.8e-8, 1.5e-8, 3.9e-8 at 0.90, 0.95 and 1.0 x 2.5 t_c), so no
        # monotone fall is asserted
        cfg = benchmark_collision(n)
        [(_, entropy)] = tl.entanglement_history(cfg, [2.5 * tl.collision_time(cfg)])
        plateau = plateau_entropy(cfg)
        assert abs(plateau - 0.5146977003) < 1e-9
        assert abs(entropy - plateau) < 1e-7

    def test_oracle_tends_to_the_narrow_packet_limit(self):
        # wide packets are narrow in momentum, so S_inf tends to h(|tau|^2) at the
        # mean momenta: dv = 4 J and g = 2 give |tau|^2 = 0.8; measured at widths
        # 2, 4, 8, 16: 0.514698, 0.503895, 0.501271, 0.500623
        t2 = 1.0 / (1.0 + (2.0 / (4.0 * np.sin(1.5708))) ** 2)
        limit = -t2 * np.log(t2) - (1.0 - t2) * np.log(1.0 - t2)
        assert abs(limit - 0.500402) < 1e-6
        gaps = [plateau_entropy(benchmark_collision(256, width)) - limit for width in (2.0, 4.0, 8.0, 16.0)]
        assert all(0.0 < later < earlier for earlier, later in zip(gaps, gaps[1:]))
        assert gaps[-1] < 3e-4
