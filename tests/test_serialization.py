"""Round-trip and strictness tests for the JSON formats."""

import json

import numpy as np
import pytest

import tpslab as tl
from tpslab import serialization as ser


class TestPureState:
    def test_round_trip(self):
        psi = tl.random_pure(6, 0)
        again = ser.pure_state_from_dict(ser.pure_state_to_dict(psi))
        np.testing.assert_allclose(again.amplitudes, psi.amplitudes, atol=1e-15)

    def test_unknown_key_rejected(self):
        data = ser.pure_state_to_dict(tl.bell_state("phi+"))
        data["extra"] = 1
        with pytest.raises(ValueError, match="unknown"):
            ser.pure_state_from_dict(data)

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            ser.pure_state_from_dict({"dim": 2})


class TestDensityMatrix:
    def test_round_trip(self):
        rho = tl.random_density(4, 2, 1)
        again = ser.density_matrix_from_dict(ser.density_matrix_to_dict(rho))
        np.testing.assert_allclose(again.matrix, rho.matrix, atol=1e-15)

    def test_shape_mismatch_rejected(self):
        data = ser.density_matrix_to_dict(tl.random_density(4, 2, 1))
        data["dim"] = 3
        with pytest.raises(ValueError, match="matrix"):
            ser.density_matrix_from_dict(data)


class TestFrame:
    def test_round_trip(self):
        frame = tl.TpsFrame(tl.Factorization(6, (2, 3)), tl.random_unitary(6, 2))
        again = ser.frame_from_dict(ser.frame_to_dict(frame))
        np.testing.assert_allclose(again.frame, frame.frame, atol=1e-15)
        assert again.factorization == frame.factorization

    def test_identity_keyword(self):
        frame = ser.frame_from_dict({"d": 4, "factors": [2, 2], "frame": "identity"})
        np.testing.assert_array_equal(frame.frame, np.eye(4))

    def test_inconsistent_factors_rejected(self):
        with pytest.raises(ValueError):
            ser.frame_from_dict({"d": 4, "factors": [2, 3], "frame": "identity"})


class TestGaussianState:
    def test_round_trip(self):
        state = tl.two_mode_squeezed(0.8)
        again = ser.gaussian_state_from_dict(ser.gaussian_state_to_dict(state))
        np.testing.assert_allclose(again.cov.sigma, state.cov.sigma, atol=1e-15)
        np.testing.assert_allclose(again.mean, state.mean)

    def test_mean_defaults_to_zero(self):
        state = ser.gaussian_state_from_dict({"n_modes": 1, "sigma": [[1.0, 0.0], [0.0, 1.0]]})
        np.testing.assert_array_equal(state.mean, np.zeros(2))

    def test_invalid_covariance_rejected(self):
        with pytest.raises(tl.InvalidCovarianceError):
            ser.gaussian_state_from_dict({"n_modes": 1, "sigma": [[0.2, 0.0], [0.0, 0.2]]})


def pairs(z) -> list:
    return [float(z.real), float(z.imag)]


class TestRendering:
    """The documents equal those of the per-entry Python-float construction, byte for byte."""

    def test_complex_pairs(self):
        rho = tl.random_density(6, 3, 2)
        frame = tl.TpsFrame(tl.Factorization(6, (2, 3)), tl.random_unitary(6, 4))
        psi = tl.random_pure(6, 5)
        # a negative zero must keep its sign
        amplitudes = np.array([*psi.amplitudes[:5], complex(-0.0, 0.0)], dtype=complex)
        psi = tl.PureState(6, amplitudes / np.linalg.norm(amplitudes))
        assert json.dumps(ser.pure_state_to_dict(psi)) == json.dumps(
            {"dim": 6, "amplitudes": [pairs(z) for z in psi.amplitudes]}
        )
        assert json.dumps(ser.density_matrix_to_dict(rho)) == json.dumps(
            {"dim": 6, "matrix": [[pairs(z) for z in row] for row in rho.matrix]}
        )
        assert json.dumps(ser.frame_to_dict(frame)) == json.dumps(
            {"d": 6, "factors": [2, 3], "frame": [[pairs(z) for z in row] for row in frame.frame]}
        )

    def test_gaussian_state(self):
        state = tl.GaussianState(tl.two_mode_squeezed(0.7).cov, [0.5, -0.0, 1e-300, 3.0])
        assert json.dumps(ser.gaussian_state_to_dict(state)) == json.dumps({
            "n_modes": 2,
            "sigma": [[float(x) for x in row] for row in state.cov.sigma],
            "mean": [float(x) for x in state.mean],
        })


class TestIntegerFields:
    """Sizes must be JSON integers: a float, bool or string used to be truncated."""

    @pytest.mark.parametrize("dim", [2.7, 2.0, True, "2", None])
    def test_pure_state_dim(self, dim):
        data = {"dim": dim, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}
        with pytest.raises(ValueError, match="dim must be a JSON integer"):
            ser.pure_state_from_dict(data)

    @pytest.mark.parametrize("dim", [1.5, True, "1"])
    def test_density_matrix_dim(self, dim):
        with pytest.raises(ValueError, match="dim must be a JSON integer"):
            ser.density_matrix_from_dict({"dim": dim, "matrix": [[[1.0, 0.0]]]})

    @pytest.mark.parametrize(
        "d, factors, key",
        [
            (4.9, [2, 2], "d"),
            (4.0, [2, 2], "d"),
            ("4", [2, 2], "d"),
            (4, [2.2, 2.9], "factors"),
            (4, [2, 2.0], "factors"),
            (4, [True, 2], "factors"),
            (4, ["2", "2"], "factors"),
            (4, "22", "factors"),
            (4, {"2": 0, "3": 1}, "factors"),
        ],
    )
    def test_frame_sizes(self, d, factors, key):
        data = {"d": d, "factors": factors, "frame": "identity"}
        with pytest.raises(ValueError, match=f"^{key} must be a"):
            ser.frame_from_dict(data)

    @pytest.mark.parametrize("n_modes", [1.5, 1.0, True, "1"])
    def test_gaussian_n_modes(self, n_modes):
        data = {"n_modes": n_modes, "sigma": [[1.0, 0.0], [0.0, 1.0]]}
        with pytest.raises(ValueError, match="n_modes must be a JSON integer"):
            ser.gaussian_state_from_dict(data)


class TestFiles:
    def test_dump_and_load(self, tmp_path):
        path = tmp_path / "state.json"
        psi = tl.random_pure(4, 3)
        ser.dump_json(path, ser.pure_state_to_dict(psi))
        text = path.read_bytes()
        assert text.endswith(b"\n") and b"\r" not in text
        again = ser.pure_state_from_dict(ser.load_json(path))
        np.testing.assert_allclose(again.amplitudes, psi.amplitudes, atol=1e-15)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_load_rejects_non_finite_literals(self, tmp_path, literal):
        path = tmp_path / "state.json"
        path.write_text('{"dim": 1, "amplitudes": [[%s, 0.0]]}' % literal)
        with pytest.raises(ValueError, match="non-finite"):
            ser.load_json(path)


    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("existing", [True, False])
    def test_dump_refuses_what_load_refuses(self, tmp_path, bad, existing):
        path = tmp_path / "out.json"
        if existing:
            path.write_text("old contents\n")
        with pytest.raises(ValueError, match="not JSON compliant"):
            ser.dump_json(path, {"x": [1.0, bad]})
        assert [p.name for p in tmp_path.iterdir()] == (["out.json"] if existing else [])
        if existing:
            assert path.read_text() == "old contents\n"


def _fail_replace(src, dst):
    raise OSError("disk full")


class TestAtomicWrite:
    @pytest.mark.parametrize("existing", [True, False])
    def test_failed_commit_leaves_no_trace(self, tmp_path, monkeypatch, existing):
        path = tmp_path / "state.json"
        if existing:
            path.write_text("old contents\n")
        monkeypatch.setattr(ser.os, "replace", _fail_replace)
        with pytest.raises(OSError, match="disk full"):
            ser.dump_json(path, ser.pure_state_to_dict(tl.random_pure(4, 0)))
        assert [p.name for p in tmp_path.iterdir()] == (["state.json"] if existing else [])
        if existing:
            assert path.read_text() == "old contents\n"

    def test_failed_write_leaves_existing_file(self, tmp_path):
        # a lone surrogate cannot be encoded, so the write fails after the
        # temporary file exists
        path = tmp_path / "out.txt"
        path.write_text("old contents\n")
        with pytest.raises(UnicodeEncodeError):
            ser.write_text_atomic(path, "first line\nbad \ud800 line\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
        assert path.read_text() == "old contents\n"

    def test_writes_text_verbatim(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("a much longer earlier file\n" * 10)
        ser.write_text_atomic(path, "a\nb\n")
        assert path.read_bytes() == b"a\nb\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_symlink_is_written_through(self, tmp_path):
        target = tmp_path / "target.txt"
        target.write_text("old contents\n")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        ser.write_text_atomic(link, "new\n")
        assert link.is_symlink()
        assert target.read_text() == "new\n"
