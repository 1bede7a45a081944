"""End-to-end tests of the command-line interface."""

import csv
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import tpslab as tl
from tpslab import cli, gaussian, scattering, tailor
from tpslab import serialization as ser
from tpslab.cli import _write_csv, run


def write_bell(tmp_path, name="bell.json"):
    path = tmp_path / name
    ser.dump_json(path, ser.pure_state_to_dict(tl.bell_state("phi+")))
    return path


def write_tms(tmp_path, r=1.0, name="tms.json"):
    path = tmp_path / name
    ser.dump_json(path, ser.gaussian_state_to_dict(tl.two_mode_squeezed(r)))
    return path


def write_overflowing_frame(tmp_path):
    """A finite frame whose U^dag U overflows: NumPy warns, then the frame is refused."""
    u = np.kron([[1e200, 1e200], [1e200, -1e200]], np.eye(2))
    frame = {"d": 4, "factors": [2, 2], "frame": np.stack([u, 0.0 * u], axis=-1).tolist()}
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(frame))
    return path


def is_json_module_text(text: str) -> bool:
    """Whether ``text`` is what ``json.dumps`` writes for the document it holds."""
    return json.dumps(json.loads(text)) + "\n" == text


def csv_module_text(header, rows) -> str:
    """The CSV text ``csv.writer`` gives for the rows at 12 significant digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{float(x):.12g}" for x in row])
    return buf.getvalue()


def assert_refused(tmp_path, capsys, argv, message):
    """``run(argv)`` exits 1 with one JSON line for ``message``, prints nothing and writes no file."""
    before = sorted(tmp_path.iterdir())
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == json.dumps({"error": "ValueError", "message": message}) + "\n"
    assert sorted(tmp_path.iterdir()) == before


class TestTailorCommand:
    def test_bell_to_separable(self, tmp_path, capsys):
        state = write_bell(tmp_path)
        out = tmp_path / "frame.json"
        code = run(
            ["tailor", "--state", str(state), "--factors", "2,2", "--target", "1,0", "--out", str(out)]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("entropy_nats=")
        assert abs(float(lines[0].split("=")[1])) < 1e-10
        frame = ser.frame_from_dict(ser.load_json(out))
        assert tl.entanglement_entropy(tl.bell_state("phi+"), frame) < 1e-10

    def test_bits_flag(self, tmp_path, capsys):
        state = write_bell(tmp_path)
        out = tmp_path / "frame.json"
        code = run(
            [
                "tailor", "--state", str(state), "--factors", "2,2",
                "--target", "0.5,0.5", "--out", str(out), "--bits",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert abs(float(lines[0].split("=")[1]) - np.log(2)) < 1e-10
        assert abs(float(lines[1].split("=")[1]) - 1.0) < 1e-10

    def test_missing_flag_is_usage_error(self, tmp_path, capsys):
        code = run(["tailor", "--factors", "2,2", "--target", "1,0", "--out", "x.json"])
        assert code == 2

    def test_bad_target_is_computation_error(self, tmp_path, capsys):
        state = write_bell(tmp_path)
        out = tmp_path / "frame.json"
        code = run(
            ["tailor", "--state", str(state), "--factors", "2,2", "--target", "0.9,0.2", "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err.strip()
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert not out.exists()  # never a partial output file

    def test_repeated_run_is_byte_identical(self, tmp_path, capsys):
        state = tmp_path / "psi.json"
        ser.dump_json(state, ser.pure_state_to_dict(tl.random_pure(12, 7)))
        outputs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            argv = ["tailor", "--state", str(state), "--factors", "3,4", "--target", "0.6,0.3,0.1"]
            assert run(argv + ["--out", str(out), "--bits"]) == 0
            outputs.append((capsys.readouterr().out, out.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_frame_file_is_the_json_module_text(self, tmp_path, capsys):
        state = tmp_path / "psi.json"
        ser.dump_json(state, ser.pure_state_to_dict(tl.random_pure(64, 9)))
        out = tmp_path / "frame.json"
        target = ",".join(["0.125"] * 8)
        argv = ["tailor", "--state", str(state), "--factors", "8,8", "--target", target]
        assert run(argv + ["--out", str(out)]) == 0
        text = out.read_bytes().decode()
        assert is_json_module_text(text)
        assert json.dumps(ser.frame_to_dict(ser.frame_from_dict(json.loads(text)))) + "\n" == text


class TestZanardiCommand:
    def test_frame_report(self, tmp_path, capsys):
        state = write_bell(tmp_path)
        frame_path = tmp_path / "frame.json"
        run(["tailor", "--state", str(state), "--factors", "2,2", "--target", "1,0", "--out", str(frame_path)])
        capsys.readouterr()
        code = run(["zanardi", "--frame", str(frame_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "independence=true" in out
        assert "completeness=true" in out
        assert "local_accessibility=not assessed" in out

    def test_random_mode_is_seed_deterministic(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        argv = ["zanardi", "--random-frames", "3", "--dim", "4", "--factors", "2,2", "--seed", "11"]
        assert run(argv + ["--out", str(first)]) == 0
        assert run(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        out = capsys.readouterr().out
        assert "failures=0" in out

    def test_both_modes_count_through_the_frame(self, tmp_path, capsys, monkeypatch):
        # route guard: the CLI's sides share one frame, so at d = 36 the frame
        # witness settles completeness without the dense SVD, and its bound
        # stands for the measured commutator maximum
        def refuse(*args):
            raise AssertionError("check_zanardi left the frame witness")

        monkeypatch.setattr(tailor, "_dense_span_dimension", refuse)
        rng = np.random.default_rng(36)
        state = tmp_path / "psi.json"
        ser.dump_json(state, ser.pure_state_to_dict(tl.random_pure(36, rng)))
        frame_path = tmp_path / "frame.json"
        target = "0.5,0.2,0.1,0.1,0.05,0.05"
        argv = ["tailor", "--state", str(state), "--factors", "6,6", "--target", target]
        assert run(argv + ["--out", str(frame_path)]) == 0
        capsys.readouterr()
        single = tmp_path / "single.json"
        assert run(["zanardi", "--frame", str(frame_path), "--out", str(single)]) == 0
        assert "span_dimension=1296" in capsys.readouterr().out.splitlines()
        payload = json.loads(single.read_text())
        assert list(payload)[-1] == "commutator_route" and payload["commutator_route"] == "frame"
        report = tmp_path / "random.json"
        argv = ["zanardi", "--random-frames", "2", "--dim", "36", "--factors", "6,6"]
        assert run(argv + ["--out", str(report)]) == 0
        assert "failures=0" in capsys.readouterr().out.splitlines()
        reports = json.loads(report.read_text())["reports"]
        assert [r["span_dimension"] for r in reports] == [1296, 1296]
        assert [r["commutator_route"] for r in reports] == ["frame", "frame"]
        assert max(r["max_commutator_norm"] for r in reports) < tailor.COMMUTATOR_TOL

    def test_frame_with_nan_defect_gives_exit_1(self, tmp_path, capsys):
        path = write_overflowing_frame(tmp_path)
        assert run(["zanardi", "--frame", str(path)]) == 1
        # NumPy's overflow warnings go into the one JSON line
        (line,) = capsys.readouterr().err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "ValueError"
        assert payload["message"].startswith("frame is not unitary") and payload["message"].endswith("nan")
        assert all(w.startswith("RuntimeWarning: ") for w in payload.get("warnings", []))

    def test_requires_exactly_one_mode(self, capsys):
        assert run(["zanardi"]) == 1

    @pytest.mark.parametrize("given", [["--dim", "4"], ["--factors", "2,2"], []])
    def test_random_frames_require_dim_and_factors(self, given, capsys):
        assert run(["zanardi", "--random-frames", "2", *given]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        payload = json.loads(line)
        assert payload == {
            "error": "ValueError",
            "message": "--random-frames requires --dim and --factors",
        }

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_random_frame_count_below_one_is_rejected(self, count, capsys):
        argv = ["zanardi", "--random-frames", count, "--dim", "4", "--factors", "2,2"]
        assert run(argv) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ValueError"
        assert "--random-frames" in payload["message"]

    def test_factors_need_two_integers(self, tmp_path, capsys):
        argv = ["zanardi", "--random-frames", "1", "--dim", "36", "--factors", "6"]
        out = tmp_path / "report.json"
        message = "expected two comma-separated integers, got '6'"
        assert_refused(tmp_path, capsys, argv + ["--out", str(out)], message)


class TestGaussianCommand:
    def test_williamson_vacuum(self, tmp_path, capsys):
        path = tmp_path / "vacuum.json"
        ser.dump_json(path, {"n_modes": 2, "sigma": np.eye(4).tolist()})
        code = run(["gaussian", "williamson", "--in", str(path)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "nu=1,1"
        assert lines[1].startswith("S[0]=") and lines[4].startswith("S[3]=")
        assert float(lines[5].split("=")[1]) < 1e-10
        assert float(lines[6].split("=")[1]) < 1e-10

    def test_williamson_residual_is_computed_once(self, tmp_path, capsys, monkeypatch):
        # the command prints the residual williamson checked instead of forming S sigma S^T again
        calls = []

        def counting(*args):
            calls.append(1)
            return residual(*args)

        residual = gaussian.williamson_residual
        monkeypatch.setattr(gaussian, "williamson_residual", counting)
        if hasattr(cli, "williamson_residual"):
            monkeypatch.setattr(cli, "williamson_residual", counting)
        path = tmp_path / "cov.json"
        ser.dump_json(path, ser.gaussian_state_to_dict(tl.GaussianState(tl.random_covariance(3, 4), np.zeros(6))))
        assert run(["gaussian", "williamson", "--in", str(path)]) == 0
        assert len(calls) == 1
        line = capsys.readouterr().out.splitlines()[-2]
        assert line.startswith("reconstruction_residual=") and float(line.split("=")[1]) < 1e-12

    def test_williamson_writes_transform(self, tmp_path, capsys):
        path = write_tms(tmp_path)
        out = tmp_path / "transform.json"
        assert run(["gaussian", "williamson", "--in", str(path), "--out", str(out)]) == 0
        payload = ser.load_json(out)
        s = np.asarray(payload["S"])
        state = tl.two_mode_squeezed(1.0)
        normal = s @ state.cov.sigma @ s.T
        np.testing.assert_allclose(normal, np.eye(4), atol=1e-8)

    def test_entangle_two_mode_squeezed(self, tmp_path, capsys):
        path = write_tms(tmp_path, r=1.0)
        assert run(["gaussian", "entangle", "--in", str(path), "--partition", "1"]) == 0
        value = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
        assert abs(value - tl.thermal_entropy(np.cosh(2.0))) < 1e-10

    def test_entangle_bits(self, tmp_path, capsys):
        path = write_tms(tmp_path, r=1.0)
        assert run(["gaussian", "entangle", "--in", str(path), "--partition", "1", "--bits"]) == 0
        nats_line, bits_line = capsys.readouterr().out.splitlines()
        bits = tl.thermal_entropy(np.cosh(2.0)) / np.log(2.0)
        assert nats_line.startswith("entropy_nats=")
        assert bits_line.startswith("entropy_bits=")
        assert abs(float(bits_line.removeprefix("entropy_bits=")) - bits) < 1e-10

    @pytest.mark.parametrize("partition", ["0", "2"])
    def test_entangle_partition_outside_the_modes(self, tmp_path, capsys, partition):
        path = write_tms(tmp_path)
        message = f"--partition must be between 1 and 1, got {partition}"
        argv = ["gaussian", "entangle", "--in", str(path), "--partition", partition]
        assert_refused(tmp_path, capsys, argv, message)

    @pytest.mark.parametrize("partition", ["0", "1"])
    def test_entangle_one_mode_has_no_cut(self, tmp_path, capsys, partition):
        # the range check alone read "between 1 and 0"
        path = tmp_path / "vacuum.json"
        ser.dump_json(path, {"n_modes": 1, "sigma": np.eye(2).tolist()})
        message = "a mode cut needs at least two modes, but the state has 1"
        argv = ["gaussian", "entangle", "--in", str(path), "--partition", partition]
        assert_refused(tmp_path, capsys, argv, message)

    def test_entangle_mixed_state_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "thermal.json"
        ser.dump_json(
            path, {"n_modes": 2, "sigma": (1.5 * np.eye(4)).tolist(), "mean": [0.0] * 4}
        )
        code = run(["gaussian", "entangle", "--in", str(path), "--partition", "1"])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert "log_negativity" in payload["message"]

    def test_non_integer_mode_count_gives_exit_1(self, tmp_path, capsys):
        path = tmp_path / "float_modes.json"
        data = ser.gaussian_state_to_dict(tl.two_mode_squeezed(0.5))
        data["n_modes"] = 2.0
        ser.dump_json(path, data)
        code = run(["gaussian", "entangle", "--in", str(path), "--partition", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err.strip())
        assert payload == {"error": "ValueError", "message": "n_modes must be a JSON integer, got 2.0"}

    def test_booleans_and_strings_in_arrays_give_exit_1(self, tmp_path, capsys):
        # this file used to pass as the vacuum: true read as 1 and "0" as 0
        path = tmp_path / "vacuum.json"
        path.write_text('{"n_modes": 1, "sigma": [[true, false], [false, true]], "mean": ["0", "0"]}')
        argv = ["gaussian", "williamson", "--in", str(path), "--out", str(tmp_path / "transform.json")]
        assert_refused(tmp_path, capsys, argv, "sigma must hold only JSON numbers, got True")

    def test_invalid_covariance_gives_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        ser.dump_json(path, {"n_modes": 1, "sigma": [[0.1, 0.0], [0.0, 0.1]], "mean": [0.0, 0.0]})
        code = run(["gaussian", "williamson", "--in", str(path)])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "InvalidCovarianceError"

    def test_wrong_shape_covariance_gives_exit_1(self, tmp_path, capsys):
        path = tmp_path / "three.json"
        ser.dump_json(path, {"n_modes": 2, "sigma": np.eye(3)})
        code = run(["gaussian", "entangle", "--in", str(path), "--partition", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err.strip())
        assert payload == {
            "error": "InvalidCovarianceError",
            "message": "expected covariance matrix of shape (4, 4), got (3, 3)",
        }

    def test_transform_file_is_the_json_module_text(self, tmp_path, capsys):
        cov = tl.random_covariance(5, 2)
        path = tmp_path / "cov.json"
        ser.dump_json(path, ser.gaussian_state_to_dict(tl.GaussianState(cov, np.zeros(10))))
        out = tmp_path / "transform.json"
        assert run(["gaussian", "williamson", "--in", str(path), "--out", str(out)]) == 0
        text = out.read_bytes().decode()
        assert is_json_module_text(text)
        s, nu = tl.williamson(ser.gaussian_state_from_dict(ser.load_json(path)).cov)
        assert json.loads(text) == {"n_modes": 5, "S": s.matrix.tolist(), "nu": nu.tolist()}
        # stdout prints the same rows at 12 significant digits
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "nu=" + ",".join(f"{x:.12g}" for x in nu)
        assert lines[1:11] == [
            f"S[{i}]=" + ",".join(f"{x:.12g}" for x in row) for i, row in enumerate(s.matrix)
        ]


class TestTwobodyCommand:
    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(
            ["twobody", "sweep", "--m1", "1", "--m2", "1", "--omega", "1", "--kappa", "0:4:1", "--out", str(out)]
        )
        assert code == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "kappa,interparticle_entropy,internal_external_entropy"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.0
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_sweep_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["twobody", "sweep", "--m1", "1", "--m2", "2", "--omega", "1.5", "--kappa", "0:2:0.5"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_short_range_sweep_row_count(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(
            ["twobody", "sweep", "--m1", "1", "--m2", "1", "--omega", "1", "--kappa", "0:1:0.5", "--out", str(out)]
        ) == 0
        assert len(out.read_text().splitlines()) == 4

    @pytest.mark.parametrize(
        "omega, kappa, message",
        [
            ("0", "0:1:0.5", "need omega_trap > 0 or kappa > 0 for a bound system"),
            ("1", "nan", "two-body parameters must be finite"),
            ("1", "inf", "two-body parameters must be finite"),
            ("1", "-1:1:0.5", "trap frequency and coupling must be nonnegative"),
            (
                "0",
                "0.5:1:0.5",
                "system is unbound: normal-mode frequencies [0.         0.81649658] "
                "include a zero mode",
            ),
        ],
    )
    def test_sweep_errors_name_the_first_failing_kappa(
        self, tmp_path, capsys, omega, kappa, message
    ):
        # the messages a loop over the couplings gives, with the first failing kappa's values
        out = tmp_path / "sweep.csv"
        argv = ["twobody", "sweep", "--m1", "1", "--m2", "3", "--omega", omega]
        assert run(argv + [f"--kappa={kappa}", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == json.dumps({"error": "ValueError", "message": message}) + "\n"
        assert list(tmp_path.iterdir()) == []


class TestCsvOutput:
    def test_failure_partway_leaves_existing_file(self, tmp_path):
        # the second row cannot be formatted, after the header and the first
        # row have been rendered
        path = tmp_path / "rows.csv"
        path.write_text("old contents\n")
        with pytest.raises(ValueError):
            _write_csv(str(path), ["a", "b"], [[1.0, 2.0], ["not a number", 3.0]])
        assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]
        assert path.read_text() == "old contents\n"

    def test_rows_are_the_csv_module_text(self, tmp_path):
        rows = [
            [0.0, -0.0, 5e-324],
            [1e-5, 1e16, 1e22],
            [2.0**53 + 2, np.float64(1.0 / 3.0), 7],
            [float("nan"), float("inf"), -123456789.123456789],
        ]
        path = tmp_path / "rows.csv"
        _write_csv(str(path), ["a", "b", "c"], rows)
        assert path.read_bytes().decode() == csv_module_text(["a", "b", "c"], rows)

    def test_sweep_is_the_csv_module_text(self, tmp_path):
        out = tmp_path / "sweep.csv"
        argv = ["twobody", "sweep", "--m1", "1", "--m2", "3", "--omega", "1", "--kappa", "0:4:0.01"]
        assert run(argv + ["--out", str(out)]) == 0
        kappas = [i * 0.01 for i in range(401)]
        interparticle, internal_external = tl.coupling_sweep(1.0, 3.0, 1.0, kappas)
        header = ["kappa", "interparticle_entropy", "internal_external_entropy"]
        rows = zip(kappas, interparticle, internal_external)
        assert out.read_bytes().decode() == csv_module_text(header, rows)

    def test_scatter_is_the_csv_module_text(self, tmp_path):
        out = tmp_path / "history.csv"
        argv = ["scatter", "--sites", "16", "--hop", "1", "--g", "2", "--ka", "1.5708"]
        assert run(argv + ["--kb", "-1.5708", "--times", "0:12:0.25", "--out", str(out)]) == 0
        config = scattering.LatticeConfig(
            n_sites=16,
            hopping=1.0,
            interaction=2.0,
            packet_a=scattering.WavePacket(4.0, 2.0, 1.5708),
            packet_b=scattering.WavePacket(12.0, 2.0, -1.5708),
        )
        history = scattering.entanglement_history(config, [i * 0.25 for i in range(49)])
        assert out.read_bytes().decode() == csv_module_text(["t", "entropy_nats"], history)


class TestScatterCommand:
    def test_history_csv(self, tmp_path):
        out = tmp_path / "history.csv"
        code = run(
            [
                "scatter", "--sites", "12", "--hop", "1", "--g", "2",
                "--ka", "1.5708", "--kb", "-1.5708", "--times", "0:3:1", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,entropy_nats"
        assert len(lines) == 5
        assert float(lines[1].split(",")[1]) < 1e-10

    def test_default_time_grid(self, tmp_path):
        out = tmp_path / "history.csv"
        code = run(
            [
                "scatter", "--sites", "12", "--hop", "1", "--g", "1",
                "--ka", "1.5708", "--kb", "-1.5708", "--out", str(out),
            ]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 62

    @pytest.mark.parametrize("cb", ["4", "20"])
    def test_default_grid_refused_for_packets_at_one_site(self, tmp_path, capsys, cb):
        # collision_time is 0 when the centres agree mod n, so every default time would be t = 0
        argv = ["scatter", "--sites", "16", "--hop", "1", "--g", "2", "--ka", "1.5708", "--kb", "-1.5708"]
        argv += ["--ca", "4", "--cb", cb, "--out", str(tmp_path / "h.csv")]
        message = "the packets start at the same site, so the default grid is t = 0 only; give --times"
        assert_refused(tmp_path, capsys, argv, message)
        assert run(argv + ["--times", "0:2:1"]) == 0
        assert len((tmp_path / "h.csv").read_text().splitlines()) == 4

    def test_default_grid_refused_for_an_overflowing_closing_speed(self, tmp_path, capsys):
        # 2 J sin k overflows, and separation / inf = 0 read as packets at one site
        argv = ["scatter", "--sites", "8", "--hop", "1e308", "--g", "1", "--ka", "1", "--kb", "-1"]
        argv += ["--out", str(tmp_path / "h.csv")]
        message = "the closing speed of the packets is inf; no collision time"
        assert_refused(tmp_path, capsys, argv, message)

    @pytest.mark.parametrize(
        "hop, ka, kb, speed",
        [("1e308", "1", "1", "nan"), ("1e308", "0", "1", "nan"), ("8.9e307", "1.5", "-1.5", "inf")],
    )
    def test_non_finite_closing_speed_is_refused_without_warnings(self, tmp_path, capsys, hop, ka, kb, speed):
        # inf - inf, inf * 0 and an overflowing difference, each of which NumPy scalars warn about;
        # no warning may join the error line
        argv = ["scatter", "--sites", "8", "--hop", hop, "--g", "1", "--ka", ka, "--kb", kb]
        argv += ["--out", str(tmp_path / "h.csv")]
        message = f"the closing speed of the packets is {speed}; no collision time"
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            assert_refused(tmp_path, capsys, argv, message)

    def test_underflowing_width_is_refused_without_warnings(self, tmp_path, capsys):
        # the width's square underflows to 0, so the envelope at the center is 0/0
        argv = ["scatter", "--sites", "8", "--hop", "1", "--g", "1", "--ka", "1", "--kb", "-1"]
        argv += ["--wa", "1e-170", "--out", str(tmp_path / "h.csv")]
        message = "packet at center 2.0 with width 1e-170 has zero norm on the 8-site lattice"
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            assert_refused(tmp_path, capsys, argv, message)

    def test_narrow_width_runs_without_warnings(self, tmp_path, capsys):
        argv = ["scatter", "--sites", "8", "--hop", "1", "--g", "1", "--ka", "1", "--kb", "-1"]
        argv += ["--wa", "1e-160", "--times", "0:1:1", "--out", str(tmp_path / "h.csv")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(argv) == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        assert len((tmp_path / "h.csv").read_text().splitlines()) == 3

    def test_unknown_flag_is_usage_error(self, tmp_path):
        code = run(["scatter", "--sites", "12", "--bogus", "1"])
        assert code == 2

    @pytest.mark.parametrize("times", ["nan", "inf"])
    def test_non_finite_times_are_named(self, tmp_path, capsys, times):
        out = tmp_path / "history.csv"
        argv = ["scatter", "--sites", "12", "--hop", "1", "--g", "2", "--ka", "1.5708", "--kb", "-1.5708"]
        assert run(argv + ["--times", times, "--out", str(out)]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["message"] == "times must be finite"
        assert not out.exists()


SCATTER = [
    "scatter", "--sites", "12", "--hop", "1", "--g", "2", "--ka", "1.5708", "--kb", "-1.5708", "--times"
]
SWEEP = ["twobody", "sweep", "--m1", "1", "--m2", "3", "--omega", "1", "--kappa"]

RANGE_ERRORS = {
    "0:nan:1": "START, STOP and STEP must be finite, got '0:nan:1'",
    "0:inf:1": "START, STOP and STEP must be finite, got '0:inf:1'",
    "0:1:inf": "START, STOP and STEP must be finite, got '0:1:inf'",
    "nan:1:1": "START, STOP and STEP must be finite, got 'nan:1:1'",
    "1:2": "expected START:STOP:STEP, got '1:2'",
    "0:1:0": "step must be positive, got 0.0",
    "1:0:0.5": "stop 0.0 is below start 1.0",
    # refused before the list is built: the first count overflows to inf, the second is 1e12 + 1
    "0:1e300:1e-300": "START:STOP:STEP must give at most 100000 points, got '0:1e300:1e-300'",
    "0:1e12:1": "START:STOP:STEP must give at most 100000 points, got '0:1e12:1'",
}


class TestRangeErrors:
    @pytest.mark.parametrize("command", [SCATTER, SWEEP], ids=["scatter", "sweep"])
    @pytest.mark.parametrize("text", list(RANGE_ERRORS))
    def test_bad_range_is_refused(self, tmp_path, capsys, command, text):
        out = tmp_path / "out.csv"
        assert_refused(tmp_path, capsys, command + [text, "--out", str(out)], RANGE_ERRORS[text])


class TestNumberListErrors:
    # each used to name only the token that failed, as int() or float() words it
    @pytest.mark.parametrize("option, text, message", [
        ("--factors", "2,x", "expected two comma-separated integers, got '2,x'"),
        ("--target", "0.5,abc", "expected comma-separated numbers, got '0.5,abc'"),
        # an empty field is refused, as --factors 2,2, is, and not dropped
        ("--target", "1,,0", "expected comma-separated numbers, got '1,,0'"),
        ("--target", ",1,0", "expected comma-separated numbers, got ',1,0'"),
        ("--target", "1,0,", "expected comma-separated numbers, got '1,0,'"),
        ("--kappa", "0:x:1", "expected START:STOP:STEP, got '0:x:1'"),
    ])
    def test_message_names_the_whole_text(self, tmp_path, capsys, option, text, message):
        out = str(tmp_path / "out")
        if option == "--kappa":
            argv = SWEEP + [text, "--out", out]
        else:
            options = {"--factors": "2,2", "--target": "0.5,0.5", option: text}
            argv = ["tailor", "--state", str(write_bell(tmp_path)), "--out", out]
            argv += [word for pair in options.items() for word in pair]
        assert_refused(tmp_path, capsys, argv, message)


class TestOverflowingSweeps:
    # w^2, kappa / mu and the reduced mass overflow; each used to fail with an error naming none
    # of them (OverflowError, "include a zero mode", "must be finite") or with NumPy's warnings
    @pytest.mark.parametrize("options, message", [
        ("--m1 1 --m2 1 --omega 1e200 --kappa 1", "normal-mode frequencies"),
        ("--m1 1 --m2 1 --omega 1 --kappa 1e308", "normal-mode frequencies"),
        ("--m1 1e300 --m2 1e300 --omega 1 --kappa 1", "ground-state covariance overflows"),
    ])
    def test_one_line_without_warnings_and_no_csv(self, tmp_path, capsys, options, message):
        out = tmp_path / "sweep.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            assert run(["twobody", "sweep", *options.split(), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        payload = json.loads(line)
        assert list(payload) == ["error", "message"]
        assert payload["error"] == "ValueError"
        assert payload["message"].startswith(message) and "overflow" in payload["message"]
        assert not out.exists()


class TestDuplicateKeys:
    # the json module keeps the last value of a repeated key, so each file used to exit 0
    def test_repeated_size_in_a_state(self, tmp_path, capsys):
        path = tmp_path / "psi.json"
        path.write_text('{"dim": 2, "dim": 4, "amplitudes": [[0.5, 0], [0.5, 0], [0.5, 0], [0.5, 0]]}')
        argv = ["tailor", "--state", str(path), "--factors", "2,2", "--target", "1,0"]
        argv += ["--out", str(tmp_path / "frame.json")]
        assert_refused(tmp_path, capsys, argv, "duplicate key 'dim' in a JSON object")

    def test_repeated_frame(self, tmp_path, capsys):
        swap = np.stack([np.eye(4)[[1, 0, 3, 2]], np.zeros((4, 4))], axis=-1).tolist()
        path = tmp_path / "frame.json"
        path.write_text(f'{{"d": 4, "factors": [2, 2], "frame": "identity", "frame": {json.dumps(swap)}}}')
        argv = ["zanardi", "--frame", str(path), "--out", str(tmp_path / "report.json")]
        assert_refused(tmp_path, capsys, argv, "duplicate key 'frame' in a JSON object")


class TestWarnings:
    def test_exit_1_stderr_is_one_json_line(self, tmp_path):
        # no warning filter: NumPy's overflow warnings would print before the error line
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        path = write_overflowing_frame(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "tpslab.cli", "zanardi", "--frame", str(path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        payload = json.loads(line)
        assert list(payload) == ["error", "message", "warnings"]
        assert payload["error"] == "ValueError"
        assert payload["warnings"]
        assert all(w.startswith("RuntimeWarning: ") for w in payload["warnings"])

    def test_success_shows_its_warnings_unchanged(self, tmp_path, capsys, monkeypatch):
        sweep = tl.coupling_sweep

        def warning_sweep(*args):
            warnings.warn("raised inside the sweep", RuntimeWarning)
            return sweep(*args)

        monkeypatch.setattr(cli.twobody, "coupling_sweep", warning_sweep)
        out = tmp_path / "sweep.csv"
        argv = ["twobody", "sweep", "--m1", "1", "--m2", "1", "--omega", "1", "--kappa", "0:1:0.5"]
        with pytest.warns(RuntimeWarning, match="raised inside the sweep") as record:
            assert run(argv + ["--out", str(out)]) == 0
        assert [(w.filename, w.category) for w in record] == [(__file__, RuntimeWarning)]
        assert capsys.readouterr().err == ""
        assert len(out.read_text().splitlines()) == 4

    def test_error_without_warnings_has_no_warnings_key(self, capsys):
        assert run(["zanardi", "--random-frames", "0", "--dim", "4", "--factors", "2,2"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert list(json.loads(line)) == ["error", "message"]


class TestConsoleEntryPoint:
    def test_installed_script_runs(self, tmp_path):
        state = write_bell(tmp_path)
        out = tmp_path / "frame.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "tpslab.cli",
                "tailor", "--state", str(state), "--factors", "2,2",
                "--target", "0.5,0.5", "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("entropy_nats=")

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tpslab.cli", "no-such-command"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_import_loads_no_scipy(self):
        # SciPy is imported only inside evolve_gaussian, which no command reaches
        proc = subprocess.run(
            [
                sys.executable, "-c",
                "import sys, tpslab.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
