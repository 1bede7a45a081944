"""End-to-end tests of the command-line interface."""

import json
import subprocess
import sys

import numpy as np
import pytest

import tpslab as tl
from tpslab import serialization as ser
from tpslab import tailor
from tpslab.cli import _write_csv, run


def write_bell(tmp_path, name="bell.json"):
    path = tmp_path / name
    ser.dump_json(path, ser.pure_state_to_dict(tl.bell_state("phi+")))
    return path


def write_tms(tmp_path, r=1.0, name="tms.json"):
    path = tmp_path / name
    ser.dump_json(path, ser.gaussian_state_to_dict(tl.two_mode_squeezed(r)))
    return path


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

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_frame_with_nan_defect_gives_exit_1(self, tmp_path, capsys):
        u = np.kron([[1e200, 1e200], [1e200, -1e200]], np.eye(2))
        frame = {"d": 4, "factors": [2, 2], "frame": np.stack([u, 0.0 * u], axis=-1).tolist()}
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(frame))
        assert run(["zanardi", "--frame", str(path)]) == 1
        # NumPy's overflow warnings may print first; the JSON line is the last one
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ValueError"
        assert payload["message"].startswith("frame is not unitary") and payload["message"].endswith("nan")

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


class TestGaussianCommand:
    def test_williamson_vacuum(self, tmp_path, capsys):
        path = tmp_path / "vacuum.json"
        ser.dump_json(path, ser.gaussian_state_to_dict(tl.vacuum_state(2)))
        code = run(["gaussian", "williamson", "--in", str(path)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "nu=1,1"
        assert lines[1].startswith("S[0]=") and lines[4].startswith("S[3]=")
        assert float(lines[5].split("=")[1]) < 1e-10
        assert float(lines[6].split("=")[1]) < 1e-10

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

    def test_invalid_covariance_gives_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        ser.dump_json(path, {"n_modes": 1, "sigma": [[0.1, 0.0], [0.0, 0.1]], "mean": [0.0, 0.0]})
        code = run(["gaussian", "williamson", "--in", str(path)])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "InvalidCovarianceError"


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

    def test_unknown_flag_is_usage_error(self, tmp_path):
        code = run(["scatter", "--sites", "12", "--bogus", "1"])
        assert code == 2


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
