"""Tests for the lattice scattering module."""

import tracemalloc

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


class TestHamiltonian:
    def test_single_particle_spectrum(self):
        # periodic hopping has eigenvalues -2 J cos(2 pi k / N)
        h = hopping_matrix(8, 1.0)
        got = np.sort(np.linalg.eigvalsh(h))
        expected = np.sort(-2.0 * np.cos(2.0 * np.pi * np.arange(8) / 8))
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_hermitian(self):
        blocks = tl.build_hamiltonian(config(n=10)).blocks
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
        np.testing.assert_array_equal(h2.blocks - h0.blocks, expected)

    def test_free_propagator_is_local(self):
        # with g = 0 the evolution operator factors over the particles
        n = 8
        u_t = propagator(config(n=n, g=0.0), 0.7)
        fac = tl.Factorization(n * n, (n, n))
        assert tl.operator_schmidt_rank(u_t, fac, tol=1e-9) == 1

    def test_interacting_propagator_is_not_local(self):
        n = 8
        u_t = propagator(config(n=n, g=2.0), 0.7)
        fac = tl.Factorization(n * n, (n, n))
        assert tl.operator_schmidt_rank(u_t, fac, tol=1e-9) > 1

    @pytest.mark.parametrize("n", [8, 9])
    def test_sector_spectra_match_dense_oracle(self, n):
        cfg = config(n=n, g=2.0)
        sectors = np.sort(np.linalg.eigvalsh(tl.build_hamiltonian(cfg).blocks).ravel())
        np.testing.assert_allclose(sectors, np.linalg.eigvalsh(dense_hamiltonian(cfg)), rtol=0.0, atol=1e-12)

    def test_blocks_are_one_read_only_cube(self):
        h = tl.build_hamiltonian(config(n=12))
        assert h.blocks.shape == (12, 12, 12) and h.blocks.dtype == np.float64
        assert h.nbytes == h.blocks.nbytes
        with pytest.raises(ValueError):
            h.blocks[0, 0, 0] = 1.0

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
        np.testing.assert_allclose(tl.build_hamiltonian(cfg).blocks, np.array(expected), rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("shape", [(8, 8), (8, 8, 9), (8, 9, 9)])
    def test_rejects_non_cube_blocks(self, shape):
        with pytest.raises(ValueError, match="shape"):
            tl.LatticeHamiltonian(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_blocks(self, bad):
        blocks = np.zeros((8, 8, 8))
        blocks[2, 1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            tl.LatticeHamiltonian(blocks)


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
        blocks = tl.build_hamiltonian(config(n=8)).blocks.copy()
        blocks[3, 0, 1] += 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            tl.LatticeHamiltonian(blocks)

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

    def test_no_times_give_no_states(self):
        cfg = config(n=8)
        assert tl.evolve(tl.build_product_in_state(cfg), tl.build_hamiltonian(cfg), []) == []


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
        idx = np.arange(n)
        rows = np.concatenate([idx, (idx + 1) % n])
        cols = np.concatenate([(idx + 1) % n, idx])
        single = sp.csr_matrix((np.full(2 * n, -1.0), (rows, cols)), shape=(n, n))
        eye = sp.identity(n, format="csr")
        contact = np.zeros(n * n)
        contact[idx * n + idx] = 2.0
        h = (sp.kron(single, eye) + sp.kron(eye, single) + sp.diags(contact)).tocsr()
        psi0 = tl.build_product_in_state(cfg).amplitudes
        states = expm_multiply(-1j * h, psi0, start=0.0, stop=horizon, num=61, endpoint=True)
        expected = []
        for amps in states:
            s = np.linalg.svd(amps.reshape(n, n), compute_uv=False) ** 2
            p = s[s > 0.0] / s.sum()
            expected.append(float(-(p * np.log(p)).sum()))
        got = [entropy for _, entropy in tl.entanglement_history(cfg, times)]
        assert np.abs(np.array(got) - np.array(expected)).max() <= 1e-9

    def test_one_stacked_eigh_of_the_sectors(self, monkeypatch):
        # structure guard: 48 sites diagonalize as 48 real blocks of 48 x 48,
        # never as one 2304 x 2304 Kronecker sum or as complex blocks, and the
        # Schmidt step is one values-only SVD of all times at once
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
        assert eighs == [((48, 48, 48), np.float64)]
        assert svds == [((3, 48, 48), False)]

    def test_rejects_unnormalized_evolution(self, monkeypatch):
        # each time passes the checks of PureState, which the history does not build
        monkeypatch.setattr(scattering, "NORM_TOL", -1.0)
        with pytest.raises(ValueError, match="not normalized"):
            tl.entanglement_history(config(n=8), [0.0, 1.0])

    def test_rejects_non_finite_evolution(self, monkeypatch):
        monkeypatch.setattr(scattering, "_propagate", lambda *args: np.full((2, 8, 8), np.nan + 0j))
        with pytest.raises(ValueError, match="finite"):
            tl.entanglement_history(config(n=8), [0.0, 1.0])

    def test_peak_memory_at_the_site_cap(self):
        # real blocks and eigenvectors, and no PureState per time: a 61-time
        # history at 128 sites peaks near 67 MB, where complex blocks and 61
        # states read 116 MB
        n = scattering.MAX_SITES
        cfg = config(n=n, g=2.0, width=2.0)
        horizon = 2.5 * tl.collision_time(cfg)
        times = [i * horizon / 60.0 for i in range(61)]
        tracemalloc.start()
        try:
            tl.entanglement_history(cfg, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 70e6

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
