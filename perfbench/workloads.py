"""Seeded inputs and the tpslab command lines of the three workloads.

``prepare`` draws every input from one seed, writes the input files into
a run directory and returns the plan the workload process executes: one
pass runs the plan's commands in order.  Output paths hold ``{pass}``,
which the workload process replaces with that pass's own directory.
"""

from __future__ import annotations

import json
import os

import numpy as np
from scipy.linalg import expm

WORKLOADS = ("scatter", "frames", "oscillators")

# scatter: the collision of acceptance criterion 8 at the 48-site maximum,
# on the CLI's default 61-time grid; the seed does not enter
SCATTER = {"sites": 48, "hop": 1.0, "g": 2.0, "ka": 1.5708, "kb": -1.5708, "width": 2.0}

# frames: a d = 256 tailoring with a uniform target, a d = 36 tailoring
# with a seeded target, and the Zanardi checks at d = 36
TAILOR_BIG = {"dim": 256, "factors": (16, 16)}
TAILOR_SMALL = {"dim": 36, "factors": (6, 6)}
RANDOM_FRAMES = 2

# oscillators: the 4001-point sweep (no seed) and two seeded 200-mode states
SWEEP = {"m1": 1.0, "m2": 3.0, "omega": 1.0, "kappa": "0:4:0.001"}
GAUSSIAN_MODES = 200
PARTITION = 100
# K entries have this standard deviation before symmetrization; it keeps
# the squeezing of S = expm(Omega K) moderate (largest singular value of
# S about 1.8), so the library recovers every nu to ~1e-14
SQUEEZE_SCALE = 0.015
THERMAL_NU = (1.0, 3.0)


def _haar_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def _descending_spectrum(rng: np.random.Generator, length: int) -> np.ndarray:
    probs = np.sort(rng.dirichlet(np.ones(length)))[::-1]
    return probs / probs.sum()


def symplectic_form(n_modes: int) -> np.ndarray:
    """Omega for interleaved quadratures (x1, p1, ..., xn, pn)."""
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def seeded_symplectic(rng: np.random.Generator, n_modes: int) -> np.ndarray:
    """S = expm(Omega K) with K a random real symmetric matrix."""
    k = rng.normal(0.0, SQUEEZE_SCALE, (2 * n_modes, 2 * n_modes))
    return expm(symplectic_form(n_modes) @ (k + k.T))


def gaussian_covariance(s: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """sigma = S diag(nu_1, nu_1, ..., nu_n, nu_n) S^T, symmetrized."""
    sigma = (s * np.repeat(nu, 2)) @ s.T
    return 0.5 * (sigma + sigma.T)


def _write_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def _number(x: float) -> str:
    """Shortest decimal that reads back as the same double."""
    return repr(float(x))


def _command(name: str, argv: list[str], outputs: list[str]) -> dict:
    return {"name": name, "argv": argv, "outputs": outputs}


def _prepare_scatter(rng, inputs: str) -> tuple[list, dict]:
    p = SCATTER
    argv = ["scatter", "--sites", str(p["sites"])]
    for flag in ("hop", "g", "ka", "kb"):
        argv += [f"--{flag}", _number(p[flag])]
    return [_command("scatter", argv + ["--out", "{pass}/history.csv"], ["history.csv"])], {}


def _tailor(name: str, rng, inputs: str, spec: dict, target: np.ndarray, data: dict) -> dict:
    psi = _haar_state(rng, spec["dim"])
    size = spec["dim"]
    _write_json(
        os.path.join(inputs, f"haar{size}.json"),
        {"dim": size, "amplitudes": [[float(z.real), float(z.imag)] for z in psi]},
    )
    target_text = ",".join(_number(p) for p in target)
    data[name] = {"psi": psi, "target": [float(p) for p in target_text.split(",")],
                  "factors": spec["factors"]}
    k1, k2 = spec["factors"]
    return _command(name, [
        "tailor", "--state", f"inputs/haar{size}.json", "--factors", f"{k1},{k2}",
        "--target", target_text, "--out", f"{{pass}}/frame{size}.json",
    ], [f"frame{size}.json"])


def _prepare_frames(rng, inputs: str) -> tuple[list, dict]:
    data: dict = {}
    width = min(TAILOR_BIG["factors"])
    big = _tailor("tailor256", rng, inputs, TAILOR_BIG, np.full(width, 1.0 / width), data)
    small_target = _descending_spectrum(rng, min(TAILOR_SMALL["factors"]))
    small = _tailor("tailor36", rng, inputs, TAILOR_SMALL, small_target, data)
    k1, k2 = TAILOR_SMALL["factors"]
    commands = [
        big,
        small,
        _command("zanardi_frame", [
            "zanardi", "--frame", "{pass}/frame36.json", "--out", "{pass}/zanardi_frame.json",
        ], ["zanardi_frame.json"]),
        _command("zanardi_random", [
            "zanardi", "--random-frames", str(RANDOM_FRAMES), "--dim", str(TAILOR_SMALL["dim"]),
            "--factors", f"{k1},{k2}", "--seed", str(int(rng.integers(2**31))),
            "--out", "{pass}/zanardi_random.json",
        ], ["zanardi_random.json"]),
    ]
    return commands, data


def _prepare_oscillators(rng, inputs: str) -> tuple[list, dict]:
    n = GAUSSIAN_MODES
    nu = np.sort(rng.uniform(*THERMAL_NU, n))[::-1]
    mixed = gaussian_covariance(seeded_symplectic(rng, n), nu)
    pure = gaussian_covariance(seeded_symplectic(rng, n), np.ones(n))
    for name, sigma in (("mixed200.json", mixed), ("pure200.json", pure)):
        _write_json(
            os.path.join(inputs, name),
            {"n_modes": n, "sigma": [[float(x) for x in row] for row in sigma]},
        )
    s = SWEEP
    sweep = ["twobody", "sweep"]
    for flag in ("m1", "m2", "omega"):
        sweep += [f"--{flag}", _number(s[flag])]
    commands = [
        _command("sweep", sweep + ["--kappa", s["kappa"], "--out", "{pass}/sweep.csv"],
                 ["sweep.csv"]),
        _command("williamson", [
            "gaussian", "williamson", "--in", "inputs/mixed200.json",
            "--out", "{pass}/williamson.json",
        ], ["williamson.json"]),
        _command("entangle", [
            "gaussian", "entangle", "--in", "inputs/pure200.json", "--partition", str(PARTITION),
        ], []),
    ]
    return commands, {"nu": nu, "mixed": mixed, "pure": pure}


_PREPARE = {
    "scatter": _prepare_scatter,
    "frames": _prepare_frames,
    "oscillators": _prepare_oscillators,
}


def prepare(workload: str, seed: int, run_dir: str) -> tuple[list, dict]:
    """Write the workload's inputs under ``run_dir/inputs``.

    Returns ``(commands, data)``: the JSON-ready commands of one pass, each
    with its name, argument list and output files, and the generated
    values the correctness checks compare against.
    """
    inputs = os.path.join(run_dir, "inputs")
    os.makedirs(inputs, exist_ok=True)
    return _PREPARE[workload](np.random.default_rng(seed), inputs)
