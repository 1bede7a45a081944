"""Round-trip and strictness tests for the JSON formats."""

import json
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import tpslab as tl
from tpslab import serialization as ser
from tpslab.cli import run


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


@pytest.mark.parametrize(
    "from_dict",
    [
        ser.pure_state_from_dict,
        ser.frame_from_dict,
        ser.gaussian_state_from_dict,
    ],
    ids=lambda f: f.__name__,
)
def test_json_array_is_not_a_document(from_dict):
    with pytest.raises(ValueError, match="^expected a JSON object, got list$"):
        from_dict([])


def pairs(z) -> list:
    return [float(z.real), float(z.imag)]


class TestRendering:
    """The documents equal those of the per-entry Python-float construction, byte for byte."""

    def test_complex_pairs(self):
        frame = tl.TpsFrame(tl.Factorization(6, (2, 3)), tl.random_unitary(6, 4))
        psi = tl.random_pure(6, 5)
        # a negative zero must keep its sign
        amplitudes = np.array([*psi.amplitudes[:5], complex(-0.0, 0.0)], dtype=complex)
        psi = tl.PureState(6, amplitudes / np.linalg.norm(amplitudes))
        assert json.dumps(ser.pure_state_to_dict(psi)) == json.dumps(
            {"dim": 6, "amplitudes": [pairs(z) for z in psi.amplitudes]}
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


def identity_pairs_ending_in(entry) -> list:
    """The 4 x 4 identity as [re, im] pairs, its last real part replaced by ``entry``."""
    frame = np.stack([np.eye(4), np.zeros((4, 4))], axis=-1).tolist()
    frame[3][3][0] = entry
    return frame


class TestNumericArrays:
    """Arrays must hold JSON numbers: a boolean was read as 1 and a string as its number."""

    @pytest.mark.parametrize(
        "from_dict, data, message",
        [
            (
                ser.pure_state_from_dict,
                {"dim": 2, "amplitudes": [["0.7071067811865476", 0.0], [True, 0.0]]},
                "amplitudes must hold only JSON numbers, got '0.7071067811865476'",
            ),
            (
                ser.frame_from_dict,
                {"d": 4, "factors": [2, 2], "frame": identity_pairs_ending_in(True)},
                "frame must hold only JSON numbers, got True",
            ),
            (
                ser.gaussian_state_from_dict,
                {"n_modes": 1, "sigma": [[1.0, False], [0.0, 1.0]]},
                "sigma must hold only JSON numbers, got False",
            ),
            (
                ser.gaussian_state_from_dict,
                {"n_modes": 1, "sigma": [[1.0, 0.0], [0.0, 1.0]], "mean": ["0", None]},
                "mean must hold only JSON numbers, got '0'",
            ),
        ],
        ids=["amplitudes", "frame", "sigma", "mean"],
    )
    def test_non_numbers_are_refused_by_key(self, from_dict, data, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            from_dict(data)


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
        payloads = [
            {"x": [1.0, bad]},
            {"x": np.array([[1.0, 2.0], [3.0, bad]])},
            {"y": 1, "x": np.array([1.0, complex(0.0, bad)])},
            # the bad array comes after one that would be streamed first
            {"ok": np.ones((3, 3), dtype=complex), "x": np.array([[[bad]]])},
        ]
        for payload in payloads:
            with pytest.raises(ValueError, match="not JSON compliant"):
                ser.dump_json(path, payload)
            assert [p.name for p in tmp_path.iterdir()] == (["out.json"] if existing else [])
            if existing:
                assert path.read_text() == "old contents\n"

    @pytest.mark.parametrize("kind", ["state", "frame"])
    def test_signed_zeros_survive_load_and_save(self, tmp_path, kind):
        if kind == "state":
            amplitudes = [[-0.0, -0.0], [1.0, -0.0], [0.0, -0.0], [-0.0, 0.0]]
            document = {"dim": 4, "amplitudes": amplitudes}
            from_dict, to_dict = ser.pure_state_from_dict, ser.pure_state_to_dict
        else:
            # -I, its other parts zeros of random sign
            signs = np.sign(np.random.default_rng(33).standard_normal((4, 4, 2)))
            pairs = np.where(np.eye(4, dtype=bool)[..., None], [-1.0, -0.0], 0.0 * signs)
            document = {"d": 4, "factors": [2, 2], "frame": pairs.tolist()}
            from_dict, to_dict = ser.frame_from_dict, ser._frame_document
        text = json.dumps(document) + "\n"
        assert "[-0.0, -0.0]" in text and "[0.0, -0.0]" in text
        path = tmp_path / f"{kind}.json"
        path.write_text(text)
        ser.dump_json(path, to_dict(from_dict(ser.load_json(path))))
        assert path.read_text() == text


# floats whose shortest repr takes each of float.__repr__'s forms: a signed zero,
# the least subnormal, the switches to exponent notation at 1e-5 and 1e16, a
# power of ten beyond 2**53, and an even integer above 2**53
EDGE_FLOATS = [-0.0, 5e-324, 1e-5, 1e16, 1e22, 2.0**53 + 2]

finite_floats = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


def as_pairs(a: np.ndarray) -> np.ndarray:
    """A complex array's float64 pairs, each part with its sign of zero."""
    return np.stack([a.real, a.imag], axis=-1)


class TestStreamedArrays:
    """``dump_json`` streams arrays as the text ``json.dumps`` gives their nested lists."""

    @settings(max_examples=150, deadline=None)
    @given(
        shape=array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5),
        as_complex=st.booleans(),
        data=st.data(),
    )
    def test_file_is_the_json_module_text(self, tmp_path_factory, shape, as_complex, data):
        # a complex array is drawn as its [re, im] pairs, which are also its lists
        values = data.draw(
            arrays(np.float64, (*shape, 2) if as_complex else shape, elements=finite_floats)
        )
        array = values.view(np.complex128)[..., 0] if as_complex else values
        lists = values.tolist()
        path = tmp_path_factory.mktemp("stream") / "out.json"
        ser.dump_json(path, {"n": 1, "a": array, "nested": [{"b": array}, -0.0]})
        want = json.dumps({"n": 1, "a": lists, "nested": [{"b": lists}, -0.0]}) + "\n"
        assert path.read_bytes().decode() == want

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_edge_floats_in_every_position(self, tmp_path, dtype):
        values = np.array(EDGE_FLOATS + [-x for x in EDGE_FLOATS])
        array = values.reshape(2, 3, 2) if dtype is float else values.view(complex).reshape(2, 3)
        lists = array.tolist() if dtype is float else as_pairs(array).tolist()
        path = tmp_path / "out.json"
        ser.dump_json(path, {"a": array})
        assert path.read_text() == json.dumps({"a": lists}) + "\n"

    # orjson spells each row and float.__repr__ the entries it writes in exponent
    # form; these cases pin the two to json.dumps at the seams between them
    @staticmethod
    def assert_json_module_text(path, array):
        lists = as_pairs(array).tolist() if array.dtype == complex else array.tolist()
        ser.dump_json(path, {"a": array})
        assert path.read_text() == json.dumps({"a": lists}) + "\n"

    def test_neighbours_of_powers_of_ten(self, tmp_path):
        # 10**-5 .. 10**-4 and 10**16 are where repr switches to exponent form
        tens = 10.0 ** np.arange(-6, 18)
        tens = np.concatenate([tens, -tens])
        values = np.stack([np.nextafter(tens, 0), tens, np.nextafter(tens, 2 * tens)], axis=-1)
        self.assert_json_module_text(tmp_path / "out.json", values)

    def test_powers_of_two_subnormals_and_signed_zeros(self, tmp_path):
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        subnormals = np.array([5e-324, 1e-323, 2.2250738585072009e-308, 1.5e-310])
        values = np.concatenate([powers, -powers, subnormals, -subnormals, [0.0, -0.0]])
        self.assert_json_module_text(tmp_path / "out.json", values.reshape(-1, 2))

    def test_random_bit_patterns(self, tmp_path):
        # about 1 in 2048 patterns is a NaN or an infinity, which dump_json refuses
        values = np.random.default_rng(32).integers(0, 2**64, 100_000, dtype=np.uint64).view(float)
        values = values[np.isfinite(values)][:99_000].reshape(99, 1000)
        self.assert_json_module_text(tmp_path / "out.json", values)

    @pytest.mark.parametrize("shape", [(2, 0), (0,), (0, 3), (3, 0, 2), (2, 2, 0)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_zero_width_rows(self, tmp_path, shape, dtype):
        self.assert_json_module_text(tmp_path / "out.json", np.zeros(shape, dtype))

    def test_fortran_ordered_and_strided_arrays(self, tmp_path):
        rng = np.random.default_rng(5)
        square = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        square[0, :3] = [1e-7, -1e17 + 3e-5j, 5e-324j]
        for array in (np.asfortranarray(square), square[::2, 1::3], square.T, square.real.T[::-2]):
            self.assert_json_module_text(tmp_path / "out.json", array)

    def test_frame_file_equals_the_list_document(self, tmp_path):
        frame = tl.TpsFrame(tl.Factorization(12, (3, 4)), tl.random_unitary(12, 8))
        path = tmp_path / "frame.json"
        ser.dump_json(path, ser._frame_document(frame))
        assert path.read_text() == json.dumps(ser.frame_to_dict(frame)) + "\n"
        again = ser.frame_from_dict(ser.load_json(path))
        np.testing.assert_array_equal(again.frame, frame.frame)

    @pytest.mark.parametrize(
        "value", [np.arange(3), np.float32([1.0]), np.array(1.0), np.array(["a"]), 1j]
    )
    def test_other_values_are_refused_as_json_refuses_them(self, tmp_path, value):
        path = tmp_path / "out.json"
        with pytest.raises(TypeError, match="is not JSON serializable"):
            ser.dump_json(path, {"x": value})
        assert list(tmp_path.iterdir()) == []

    def test_frame_dump_peak_memory_is_about_a_row(self, tmp_path):
        # the list route held 65 536 pair lists and the whole 3 MB text: a 14.8 MB peak
        frame = tl.TpsFrame(tl.Factorization(256, (16, 16)), tl.random_unitary(256, 3))
        document = ser._frame_document(frame)
        path = tmp_path / "frame.json"
        tracemalloc.start()
        try:
            ser.dump_json(path, document)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        assert path.stat().st_size > 3_000_000


def stdlib_load(path):
    """The reader ``load_json`` replaced: ``json`` with the strict hooks, on the text ``open`` gives."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=ser._reject_constant, object_pairs_hook=ser._unique_keys)


def assert_same_values(got, want):
    """Equal documents, each float equal through its int64 view and each int still an int."""
    assert type(got) is type(want), (got, want)
    if isinstance(got, dict):
        assert list(got) == list(want)
        for key in got:
            assert_same_values(got[key], want[key])
    elif isinstance(got, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_values(g, w)
    elif isinstance(got, float):
        assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64), (got, want)
    else:
        assert got == want


def assert_same_outcome(path):
    """``load_json`` gives what the standard-library reader gives: the same value or error."""
    try:
        want = stdlib_load(path)
    except Exception as exc:
        with pytest.raises(type(exc)) as info:
            ser.load_json(path)
        assert str(info.value) == str(exc)
    else:
        assert_same_values(ser.load_json(path), want)


# the spacing json.dumps puts around separators, and one with whitespace before each colon
SEPARATORS = st.sampled_from([(", ", ": "), (",", ":"), (" ,\n", " :\t")])
json_numbers = st.one_of(finite_floats, st.integers(-(2**63), 2**64 - 1))


def number_arrays(*shape):
    return arrays(object, shape, elements=json_numbers).map(lambda a: a.tolist())


state_documents = st.integers(0, 4).flatmap(
    lambda n: st.fixed_dictionaries({"dim": st.just(n), "amplitudes": number_arrays(n, 2)})
)
frame_documents = st.integers(1, 3).flatmap(
    lambda k: st.fixed_dictionaries({
        "d": st.just(k * k),
        "factors": st.just([k, k]),
        "frame": st.one_of(st.just("identity"), number_arrays(k * k, k * k, 2)),
    })
)
gaussian_documents = st.integers(1, 3).flatmap(
    lambda n: st.fixed_dictionaries(
        {"n_modes": st.just(n), "sigma": number_arrays(2 * n, 2 * n)},
        optional={"mean": number_arrays(2 * n)},
    )
)


class TestLoadMatchesTheStandardLibrary:
    """``load_json`` reads through orjson what the ``json`` reader read, to the bit or the error."""

    @settings(max_examples=150, deadline=None)
    @given(
        document=st.one_of(state_documents, frame_documents, gaussian_documents),
        separators=SEPARATORS,
    )
    def test_documents_of_each_format(self, tmp_path_factory, document, separators):
        path = tmp_path_factory.mktemp("load") / "in.json"
        path.write_text(json.dumps(document, separators=separators))
        assert_same_values(ser.load_json(path), stdlib_load(path))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_edge_floats_from_a_file(self, tmp_path, dtype):
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        values = np.concatenate([EDGE_FLOATS, powers, [x * 10.0**-k for x in (1, 3) for k in range(4, 7)]])
        values = np.concatenate([values, -values])
        path = tmp_path / "edges.json"
        ser.dump_json(path, {"a": values if dtype is float else values.view(complex)})
        assert_same_values(ser.load_json(path), stdlib_load(path))

    @pytest.mark.parametrize(
        "text",
        [
            # escapes, nested objects, 1e400 and nesting past orjson's reach go to json
            b'{"k\\u00e9y": "a\\"b", "d": 1}',
            b'{"a": {"b": [1, 2]}, "c": [{"d": 0.5}]}',
            b'{"sigma": [[1e400, -1e400], [1e-400, 0]]}',
            b'{"a": ' + b"[" * 100 + b"]" * 100 + b"}",
            b'[1, 2.5, {"a": null}]',
            # CR and CRLF line ends, which open() turns into LF
            b'{\r\n"dim": 1,\r"amplitudes": [[1.0, 0.0]]\r\n}\r\n',
        ],
        ids=["escapes", "nested-objects", "overflow", "deep-array", "top-level-array", "cr-lf"],
    )
    def test_documents_orjson_does_not_read_alone(self, tmp_path, text):
        path = tmp_path / "in.json"
        path.write_bytes(text)
        assert_same_outcome(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            (b'{"dim": 2, "dim": 4, "amplitudes": []}', "duplicate key 'dim' in a JSON object"),
            (b'{"a": {"b": 1, "b": 2}}', "duplicate key 'b' in a JSON object"),
            (b'{"dim": 2, "d\\u0069m": 4}', "duplicate key 'dim' in a JSON object"),
            (b'{"dim" : 2, "dim"\n\t: 4}', "duplicate key 'dim' in a JSON object"),
            (b'{"{": 1, "{": 2}', "duplicate key '{' in a JSON object"),
            (b'{"x": [[NaN]]}', "non-finite number NaN is not allowed"),
            (b'{"x": [Infinity]}', "non-finite number Infinity is not allowed"),
            (b'{"x": -Infinity}', "non-finite number -Infinity is not allowed"),
            (b'\xef\xbb\xbf{"dim": 1}', "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
            (b'{"dim": "\xff"}', "invalid start byte"),
            (b'{"dim": 1} {"dim": 2}', "Extra data: line 1 column 12 (char 11)"),
            (b"", "Expecting value: line 1 column 1 (char 0)"),
            # positions count a CRLF as the one LF open() gives
            (b'{\r\n"a": 1,\r\n"b": }', "Expecting value: line 3 column 6 (char 15)"),
            (b"[" * 2000 + b"]" * 2000, "maximum recursion depth exceeded"),
            (b'{"sigma": ' + b"[" * 2000 + b"]" * 2000 + b"}", "maximum recursion depth exceeded"),
        ],
        ids=[
            "top-level", "nested", "escaped-spelling", "space-before-colon", "brace-key",
            "nan", "infinity", "minus-infinity", "bom", "invalid-utf8", "trailing-data", "empty",
            "crlf-position", "deep-array", "deep-array-in-object",
        ],
    )
    def test_refusals_are_unchanged(self, tmp_path, text, message):
        path = tmp_path / "in.json"
        path.write_bytes(text)
        with pytest.raises(Exception, match=re.escape(message)):
            stdlib_load(path)
        assert_same_outcome(path)

    @pytest.mark.parametrize(
        "text",
        [
            b'{"a": "{", "a": 1}',
            b'{"a": "x: y", "b": 1, "b": 2}',
            b'{"a": "{\\"b\\": 1}", "a": 1}',
            # an odd count of escaped quotes would shift which text is outside strings
            b'{"a": "\\"", "a": 1}',
            b'{"s": "[[[[", "s": 1}',
        ],
    )
    def test_braces_and_colons_in_strings_hide_no_repeated_key(self, tmp_path, text):
        path = tmp_path / "in.json"
        path.write_bytes(text)
        with pytest.raises(ValueError, match="^duplicate key '[abs]' in a JSON object$"):
            ser.load_json(path)

    def test_a_million_nested_arrays_are_refused_without_a_crash(self, tmp_path):
        # orjson recurses on the native stack and can crash on such a file, so
        # load_json hands it to json, which raises RecursionError
        path = tmp_path / "deep.json"
        path.write_bytes(b'{"sigma": ' + b"[" * 1_000_000 + b"]" * 1_000_000 + b"}")
        script = "import sys; from tpslab import serialization as ser; ser.load_json(sys.argv[1])"
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines()[-1].startswith("RecursionError: maximum recursion depth exceeded")

    def test_size_beyond_64_bits_is_still_refused(self, tmp_path, capsys):
        # the one documented difference: orjson reads such an integer as a float,
        # so the refusal names the float where it named the int
        path = tmp_path / "psi.json"
        path.write_text('{"dim": %d, "amplitudes": [[1.0, 0.0]]}' % 2**64)
        assert type(stdlib_load(path)["dim"]) is int
        assert ser.load_json(path)["dim"] == float(2**64)
        argv = ["tailor", "--state", str(path), "--factors", "1,1", "--target", "1"]
        assert run(argv + ["--out", str(tmp_path / "frame.json")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "ValueError", "message": "dim must be a JSON integer, got 1.8446744073709552e+19"
        }
        assert [p.name for p in tmp_path.iterdir()] == ["psi.json"]


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
            ser._write_atomic(path, ("first line\nbad \ud800 line\n",))
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
        assert path.read_text() == "old contents\n"

    def test_writes_text_verbatim(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("a much longer earlier file\n" * 10)
        ser._write_atomic(path, ("a\nb\n",))
        assert path.read_bytes() == b"a\nb\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_symlink_is_written_through(self, tmp_path):
        target = tmp_path / "target.txt"
        target.write_text("old contents\n")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        ser._write_atomic(link, ("new\n",))
        assert link.is_symlink()
        assert target.read_text() == "new\n"
