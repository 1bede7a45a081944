"""JSON formats for states, frames and Gaussian states.

Complex numbers are written as ``[re, im]`` pairs and matrices row-major;
all numbers are plain IEEE-754 doubles in decimal.  Parsing is strict:
unknown or missing keys, sizes that are not JSON integers, and the
non-standard ``NaN``/``Infinity`` literals are rejected rather than
ignored or truncated.  Files are written atomically.
"""

from __future__ import annotations

import json
import os

import numpy as np

from ._checks import frozen_array
from .findim import DensityMatrix, Factorization, PureState, TpsFrame
from .gaussian import CovarianceMatrix, GaussianState

__all__ = [
    "pure_state_to_dict",
    "pure_state_from_dict",
    "density_matrix_to_dict",
    "density_matrix_from_dict",
    "frame_to_dict",
    "frame_from_dict",
    "gaussian_state_to_dict",
    "gaussian_state_from_dict",
    "load_json",
    "dump_json",
    "write_text_atomic",
]


def _check_keys(data: dict, required: set, optional: set = frozenset()) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    keys = set(data)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise ValueError(f"missing keys: {sorted(missing)}")
    if unknown:
        raise ValueError(f"unknown keys: {sorted(unknown)}")


def _json_int(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be a JSON integer, got {value!r}")
    return value


def _complex_to_pairs(a: np.ndarray) -> list:
    """Nested lists of the entries of ``a`` as ``[re, im]`` pairs of Python floats."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _pairs_to_complex(what: str, pairs, shape: tuple) -> np.ndarray:
    arr = frozen_array(f"{what} of [re, im] pairs", pairs, (*shape, 2))
    return arr[..., 0] + 1j * arr[..., 1]


def pure_state_to_dict(state: PureState) -> dict:
    return {"dim": state.dim, "amplitudes": _complex_to_pairs(state.amplitudes)}


def pure_state_from_dict(data: dict) -> PureState:
    _check_keys(data, {"dim", "amplitudes"})
    dim = _json_int("dim", data["dim"])
    return PureState(dim, _pairs_to_complex("amplitudes", data["amplitudes"], (dim,)))


def density_matrix_to_dict(rho: DensityMatrix) -> dict:
    return {"dim": rho.dim, "matrix": _complex_to_pairs(rho.matrix)}


def density_matrix_from_dict(data: dict) -> DensityMatrix:
    _check_keys(data, {"dim", "matrix"})
    dim = _json_int("dim", data["dim"])
    return DensityMatrix(dim, _pairs_to_complex("matrix", data["matrix"], (dim, dim)))


def frame_to_dict(frame: TpsFrame) -> dict:
    return {
        "d": frame.d,
        "factors": [frame.k1, frame.k2],
        "frame": _complex_to_pairs(frame.frame),
    }


def frame_from_dict(data: dict) -> TpsFrame:
    _check_keys(data, {"d", "factors", "frame"})
    d = _json_int("d", data["d"])
    factors = data["factors"]
    if not isinstance(factors, list) or len(factors) != 2:
        raise ValueError(f"factors must be a list of two integers, got {factors!r}")
    factorization = Factorization(d, tuple(_json_int("factors", k) for k in factors))
    if data["frame"] == "identity":
        return TpsFrame.identity(factorization)
    return TpsFrame(factorization, _pairs_to_complex("frame", data["frame"], (d, d)))


def gaussian_state_to_dict(state: GaussianState) -> dict:
    return {
        "n_modes": state.n_modes,
        "sigma": state.cov.sigma.tolist(),
        "mean": state.mean.tolist(),
    }


def gaussian_state_from_dict(data: dict) -> GaussianState:
    _check_keys(data, {"n_modes", "sigma"}, optional={"mean"})
    n = _json_int("n_modes", data["n_modes"])
    return GaussianState(CovarianceMatrix(n, data["sigma"]), data.get("mean", np.zeros(2 * n)))


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, exactly as given, or not at all.

    The text goes to a temporary file in the same directory, which then
    replaces ``path`` in one step; on any failure the temporary file is
    removed and an existing ``path`` is left untouched.  A symbolic link,
    pipe or device is written through in place instead, since replacing
    it would remove it.
    """
    if os.path.islink(path) or (os.path.exists(path) and not os.path.isfile(path)):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def dump_json(path, data: dict) -> None:
    """Write a JSON document with LF endings and a trailing newline.

    Non-finite floats raise ``ValueError`` before anything is written,
    since ``load_json`` refuses the ``NaN``/``Infinity`` literals.
    """
    write_text_atomic(path, json.dumps(data, allow_nan=False) + "\n")
