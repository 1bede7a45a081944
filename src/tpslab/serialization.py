"""JSON formats for states, frames and Gaussian states.

Complex numbers are written as ``[re, im]`` pairs and matrices row-major;
all numbers are plain IEEE-754 doubles in decimal.  Parsing is strict:
unknown, missing or repeated keys, sizes that are not JSON integers, array
entries that are not JSON numbers, and the non-standard ``NaN``/``Infinity``
literals are rejected rather than ignored, converted or truncated.  Files
are written atomically.

``dump_json`` also takes float64 and complex128 NumPy arrays as values and
writes the same text ``json.dumps`` gives their nested lists, without
building those lists: ``json.dumps`` lays out the document with each
innermost row of an array standing in as a marker, and the rows' texts are
streamed in at the markers.  A non-finite entry is refused before anything
is written.  A row's digits come from orjson, which writes the shortest
round-trip digits as ``float.__repr__`` does; the entries ``repr`` writes
in exponent form, |x| < 1e-4 but not zero and |x| >= 1e16, go through
``repr`` itself.  Loading reads each ``[re, im]`` pair as one complex
number through the float64 view, so signed zeros survive a load and save.
The ``*_to_dict`` functions return plain lists.

``load_json`` parses plain objects, as the state, frame and Gaussian files
are, with orjson, whose floats are those of ``json``; any other text, and
each one orjson refuses, goes through ``json``.  Files read to the same
values and are refused with the same errors as when ``json`` read them
all, except that an integer beyond 64 bits reads as a float.
"""

from __future__ import annotations

import io
import json
import math
import os
from itertools import chain

import numpy as np

from ._checks import frozen_array
from .findim import Factorization, PureState, TpsFrame
from .gaussian import CovarianceMatrix, GaussianState

__all__ = [
    "pure_state_to_dict",
    "pure_state_from_dict",
    "frame_to_dict",
    "frame_from_dict",
    "gaussian_state_to_dict",
    "gaussian_state_from_dict",
    "load_json",
    "dump_json",
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


def _json_numbers(key: str, value):
    """``value``, once every entry of its nested lists is a JSON number.

    ``frozen_array`` would read ``true`` as 1 and ``"0.5"`` as 0.5, so a boolean,
    string, null or object among the entries is refused here, naming the key.
    """
    level, kinds = [value], {type(value)}
    while kinds == {list}:
        level = list(chain.from_iterable(level))
        kinds = set(map(type, level))
    bad = kinds - {int, float, list}
    if bad:
        entry = next(v for v in level if type(v) in bad)
        raise ValueError(f"{key} must hold only JSON numbers, got {entry!r}")
    return value


def _complex_to_pairs(a: np.ndarray) -> list:
    """Nested lists of the entries of ``a`` as ``[re, im]`` pairs of Python floats."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _pairs_to_complex(what: str, pairs, shape: tuple) -> np.ndarray:
    arr = frozen_array(f"{what} of [re, im] pairs", _json_numbers(what, pairs), (*shape, 2))
    return arr.view(complex)[..., 0]


def pure_state_to_dict(state: PureState) -> dict:
    return {"dim": state.dim, "amplitudes": _complex_to_pairs(state.amplitudes)}


def pure_state_from_dict(data: dict) -> PureState:
    _check_keys(data, {"dim", "amplitudes"})
    dim = _json_int("dim", data["dim"])
    return PureState(dim, _pairs_to_complex("amplitudes", data["amplitudes"], (dim,)))


def _frame_document(frame: TpsFrame) -> dict:
    """The frame file's layout, holding the matrix itself, which ``dump_json`` streams."""
    return {"d": frame.d, "factors": [frame.k1, frame.k2], "frame": frame.frame}


def frame_to_dict(frame: TpsFrame) -> dict:
    return {**_frame_document(frame), "frame": _complex_to_pairs(frame.frame)}


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
    cov = CovarianceMatrix(n, _json_numbers("sigma", data["sigma"]))
    return GaussianState(cov, _json_numbers("mean", data["mean"]) if "mean" in data else np.zeros(2 * n))


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


def _unique_keys(pairs: list) -> dict:
    """The JSON object of ``pairs``; ``json`` alone would keep the last value of a repeated key."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"duplicate key {key!r} in a JSON object")
        data[key] = value
    return data


# every byte but the seven that shape a JSON text: quote, backslash, colon, brackets, braces
_UNSTRUCTURAL = bytes(sorted(set(range(256)) - set(b'"\\:[]{}')))
# the step in nesting depth of each structural byte outside strings, as an int8
_NESTING_STEPS = bytes.maketrans(b":[{]}", b"\x00\x01\x01\xff\xff")
# orjson reads a text only if it nests no deeper than this: orjson may recurse on
# the native stack without bound, where json raises RecursionError at its own limit
_ORJSON_MAX_DEPTH = 64


def _key_count(raw: bytes):
    """The number of keys the JSON text ``raw`` spells, or None if orjson is not to read it.

    orjson reads only a text with no backslash, in which each quote opens
    or closes a string, and that nests at most ``_ORJSON_MAX_DEPTH`` deep.
    Each colon outside the strings of such a text ends one key of one of
    its objects, so an object parsed from it repeats no key, and holds no
    object with keys, exactly when its length is this count.
    """
    skeleton = raw.translate(None, _UNSTRUCTURAL)
    if b"\\" in skeleton:
        return None
    outside = b"".join(skeleton.split(b'"')[::2])
    steps = np.frombuffer(outside.translate(_NESTING_STEPS), np.int8)
    if np.cumsum(steps, dtype=np.int64).max(initial=0) > _ORJSON_MAX_DEPTH:
        return None
    return outside.count(b":")


def load_json(path) -> dict:
    """The JSON document in the UTF-8 file ``path``, parsed strictly.

    A text ``_key_count`` passes is parsed by orjson, whose floats are those
    of ``json``, and kept if it is an object that repeats no key and holds
    no object with keys.  Every other text, each one orjson refuses
    included, is parsed by ``json`` from the text ``open`` would give, so it
    gives the value or raises the error it always did.  The one difference:
    orjson reads an integer beyond 64 bits as a float, where ``json`` reads
    an int.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    n_keys = _key_count(raw)
    if n_keys is not None:
        # imported here, so that importing the CLI does not load it
        import orjson

        try:
            data = orjson.loads(raw)
        except orjson.JSONDecodeError:
            data = None
        if isinstance(data, dict) and len(data) == n_keys:
            return data
    text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
    return json.load(text, parse_constant=_reject_constant, object_pairs_hook=_unique_keys)


def _write_atomic(path, chunks) -> None:
    """Write the text ``chunks``, concatenated, to ``path`` as UTF-8 or not at all.

    The chunks go, as they are produced, to a temporary file in the same
    directory, which then replaces ``path`` in one step; on any failure it is
    removed and an existing ``path`` is left untouched.  A symbolic link, pipe
    or device is written through in place, since replacing it would remove it.
    """
    if os.path.islink(path) or (os.path.exists(path) and not os.path.isfile(path)):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        return
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _array_rows(a: np.ndarray):
    """The texts ``json.dumps`` gives ``a``'s innermost rows, one at a time in C order.

    A row's floats are spelled by one ``orjson.dumps`` call, whose shortest
    round-trip digits are those of ``float.__repr__``, which ``json``
    calls, for 1e-4 <= |x| < 1e16 and zero.  ``repr`` writes the rest in
    exponent form (``1e-05``, ``1e+16``) and orjson does not (``0.00001``,
    ``1e16``), so the entries in those ranges, found by one mask over the
    array, go through ``repr``.  The row's numbers then fill a
    ``%``-template built for the shape; a complex array is read through
    its float64 view, which interleaves re and im.
    """
    # imported here, so that importing the CLI does not load it
    import orjson

    entry = "%s"
    width = a.shape[-1]
    a = np.ascontiguousarray(a)
    if a.dtype == np.complex128:
        entry = "[%s, %s]"
        a = a.view(np.float64)
    # the rows in C order; a -1 size would be ambiguous for zero-width rows
    a = a.reshape(math.prod(a.shape[:-1]), a.shape[-1])
    exponent_form = (a >= 1e16) | (a <= -1e16) | ((a < 1e-4) & (a > -1e-4) & (a != 0))
    template = "[" + ", ".join([entry] * width) + "]"
    for row, row_exponent_form in zip(a, exponent_form):
        text = orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
        # a zero-width row has no numbers, though its empty text splits into one
        parts = text.split(",") if text else []
        for i in np.flatnonzero(row_exponent_form).tolist():
            parts[i] = repr(float(row[i]))
        yield template % tuple(parts)


def dump_json(path, data: dict) -> None:
    """Write a JSON document with LF endings and a trailing newline.

    Values may be float64 or complex128 NumPy arrays of one or more
    dimensions, complex entries standing for ``[re, im]`` pairs.  Each is
    written as the same text its nested lists would give, without building
    those lists or the whole document: ``json.dumps`` lays out every
    bracket and separator around one marker per innermost row, and the
    rows' texts are streamed to the file in their place.  Non-finite
    floats, in arrays or not, raise ``ValueError`` before anything is
    written, since ``load_json`` refuses the ``NaN``/``Infinity`` literals.
    """
    arrays = []
    marker = os.urandom(16).hex()

    def hold(value):
        if not (
            isinstance(value, np.ndarray)
            and value.dtype in (np.float64, np.complex128)
            and value.ndim > 0
        ):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        if not np.isfinite(value).all():
            raise ValueError("Out of range float values are not JSON compliant")
        arrays.append(value)
        return np.full(value.shape[:-1], marker, dtype=object).tolist()

    # each innermost row of an array stands in as a random marker string, so json
    # renders every key, bracket, separator and scalar; the text is then cut at the
    # markers and the rows' texts, in the order json met them, go in between
    pieces = json.dumps(data, allow_nan=False, default=hold).split(f'"{marker}"')

    def chunks():
        yield pieces[0]
        for row, piece in zip(chain.from_iterable(map(_array_rows, arrays)), pieces[1:]):
            yield row
            yield piece
        yield "\n"

    _write_atomic(path, chunks())
