"""Tests for the tolerance table and the checks every validated type shares.

The table test reads the package's source: a tolerance typed as a bare
literal anywhere but ``_checks.py`` is a second definition of it.  The
owner tests read it too: each shared rule's message is written once, and
the top-level names are the modules' ``__all__``.
"""

import ast
import importlib
import inspect
import json
import pathlib
import types
import warnings

import numpy as np
import pytest

import tpslab as tl
from tpslab import _checks, findim, gaussian, serialization, tailor
from tpslab.cli import run
from tpslab.gaussian import InvalidCovarianceError

PACKAGE = pathlib.Path(tl.__file__).parent
# the modules whose __all__ the package re-exports
MODULES = ["findim", "gaussian", "scattering", "tailor", "twobody"]

# every tolerance that had a name before the table, with its module and value
OLD_TOLERANCES = [
    ("findim", "NORM_TOL", 1e-12),
    ("findim", "HERMITICITY_TOL", 1e-12),
    ("findim", "TRACE_TOL", 1e-12),
    ("findim", "EIGENVALUE_FLOOR", -1e-10),
    ("findim", "UNITARITY_TOL", 1e-10),
    ("gaussian", "SYMMETRY_TOL", 1e-12),
    ("gaussian", "SYMPLECTIC_TOL", 1e-10),
    ("gaussian", "NU_CONSTRUCTOR_TOL", 1e-8),
    ("gaussian", "PURITY_NU_TOL", 1e-8),
    ("gaussian", "WILLIAMSON_RESIDUAL_TOL", 1e-8),
    ("tailor", "COMMUTATOR_TOL", 1e-8),
    ("tailor", "RANK_TOL", 1e-8),
    ("tailor", "CERTIFICATE_MARGIN", 1e-2),
    ("twobody", "UNBOUND_FREQUENCY_RATIO", 1e-7),
    ("scattering", "MIN_SITES", 8),
    ("scattering", "MAX_SITES", 256),
    ("scattering", "CHUNK_BYTES", 1 << 22),
]


def small_float_literals(path: pathlib.Path) -> list[tuple[int, float]]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < abs(node.value) < 1e-6
    ]


class TestToleranceTable:
    def test_no_tolerance_literal_outside_the_table(self):
        found = {
            path.name: small_float_literals(path)
            for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "_checks.py"
        }
        assert {name: hits for name, hits in found.items() if hits} == {}

    def test_scan_sees_the_table(self):
        # guards the test above against a scan that finds nothing anywhere
        assert len(small_float_literals(PACKAGE / "_checks.py")) >= 13

    def test_table_names_are_assigned_only_in_the_table(self):
        table = {name for name in vars(_checks) if name.isupper()}
        assigned = {
            path.name: sorted(table & {
                node.id
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            })
            for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "_checks.py"
        }
        assert {"MIN_SITES", "MAX_SITES", "CHUNK_BYTES"} <= table
        assert {name: names for name, names in assigned.items() if names} == {}

    @pytest.mark.parametrize("module, name, value", OLD_TOLERANCES)
    def test_old_names_import_from_their_modules(self, module, name, value):
        assert getattr(importlib.import_module(f"tpslab.{module}"), name) == value
        assert getattr(_checks, name) == value

    def test_operator_rank_default_is_unchanged(self, monkeypatch):
        # the rank counts above the table's 1e-10, read when called: patching the name reaches it
        assert findim.OPERATOR_RANK_TOL == 1e-10
        assert list(inspect.signature(tl.operator_schmidt_rank).parameters) == ["matrix", "factorization"]
        fac = tl.Factorization(4, (2, 2))
        x, z = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
        operator = np.kron(x, x) + 1e-9 * np.kron(z, z)
        assert tl.operator_schmidt_rank(operator, fac) == 2
        monkeypatch.setattr(findim, "OPERATOR_RANK_TOL", 1e-8)
        assert tl.operator_schmidt_rank(operator, fac) == 1


class TestOneOwner:
    def test_top_level_names_are_the_modules_all(self):
        modules = [importlib.import_module(f"tpslab.{name}") for name in MODULES]
        public = {
            name
            for name, value in vars(tl).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        }
        assert public == set().union(*(module.__all__ for module in modules))

    @pytest.mark.parametrize("message", ["state is not normalized", "side must be 'A' or 'B'"])
    def test_rule_is_written_once(self, message):
        sources = [path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")]
        assert sum(text.count(message) for text in sources) == 1


SYMPLECTIC_2 = gaussian._random_symplectic(2, 3).matrix
PACKET = tl.WavePacket(4.0, 2.0, 1.0)

# each size-checking constructor with the float size it is given
NON_INTEGER_SIZES = {
    "PureState.dim": (4.0, lambda n: tl.PureState(n, np.full(4, 0.5))),
    "DensityMatrix.dim": (2.0, lambda n: tl.DensityMatrix(n, np.eye(2) / 2)),
    "LatticeConfig.n_sites": (24.0, lambda n: tl.LatticeConfig(n, 1.0, 2.0, PACKET, PACKET)),
    "symplectic_form": (2.0, tl.symplectic_form),
    "random_density.rank": (2.0, lambda n: tl.random_density(6, n, 0)),
    "hermitian_basis": (2.0, tailor._hermitian_basis),
    "SymplecticMatrix.n_modes": (2.0, lambda n: tl.SymplecticMatrix(n, SYMPLECTIC_2)),
    "CovarianceMatrix.n_modes": (2.0, lambda n: tl.CovarianceMatrix(n, np.eye(4))),
    "QuadraticHamiltonian.n_modes": (2.0, lambda n: tl.QuadraticHamiltonian(n, np.eye(4))),
}


class TestIntegerSizes:
    @pytest.mark.parametrize("size, build", NON_INTEGER_SIZES.values(), ids=list(NON_INTEGER_SIZES))
    def test_float_size_is_rejected(self, size, build):
        # the message names the size passed, not a shape derived from it
        with pytest.raises(ValueError, match=f"must be integers, got {size!r}$"):
            build(size)

    def test_numpy_integer_sizes_are_accepted(self):
        two = np.int64(2)
        assert tl.PureState(two, np.array([1.0, 0.0])).dim == 2
        assert tl.CovarianceMatrix(two, np.eye(4)).nu.tolist() == [1.0, 1.0]
        assert tl.symplectic_form(two).shape == (4, 4)
        # each constructor keeps the checked size as an int, not the value given
        built = {
            "PureState.dim": tl.PureState(two, np.array([1.0, 0.0])).dim,
            "DensityMatrix.dim": tl.DensityMatrix(two, np.eye(2) / 2).dim,
            "LatticeConfig.n_sites": tl.LatticeConfig(
                np.int64(24), 1.0, 2.0, PACKET, PACKET
            ).n_sites,
            "SymplecticMatrix.n_modes": tl.SymplecticMatrix(two, SYMPLECTIC_2).n_modes,
            "CovarianceMatrix.n_modes": tl.CovarianceMatrix(two, np.eye(4)).n_modes,
            "QuadraticHamiltonian.n_modes": tl.QuadraticHamiltonian(two, np.eye(4)).n_modes,
            "CovarianceMatrix(True)": tl.CovarianceMatrix(True, np.eye(2)).n_modes,
        }
        assert {name: type(size) for name, size in built.items()} == dict.fromkeys(built, int)

    def test_sizes_given_as_numpy_integers_or_bool_round_trip_through_json(self, tmp_path):
        two = np.int64(2)
        pure = (serialization.pure_state_to_dict, serialization.pure_state_from_dict)
        gaussian = (serialization.gaussian_state_to_dict, serialization.gaussian_state_from_dict)
        cases = [
            (tl.PureState(np.int64(4), np.full(4, 0.5)), *pure),
            (tl.GaussianState(tl.CovarianceMatrix(two, np.eye(4)), np.zeros(4)), *gaussian),
            (tl.GaussianState(tl.CovarianceMatrix(True, np.eye(2)), np.zeros(2)), *gaussian),
        ]
        for value, to_dict, from_dict in cases:
            path = tmp_path / "value.json"
            serialization.dump_json(path, to_dict(value))
            assert to_dict(from_dict(serialization.load_json(path))) == to_dict(value)


# each validated type that holds an array, built afresh on each call from equal input
ARRAY_HOLDERS = {
    "PureState": lambda: tl.random_pure(4, 1),
    "DensityMatrix": lambda: tl.random_density(4, 2, 1),
    "TpsFrame": lambda: tl.TpsFrame.identity(tl.Factorization(4, (2, 2))),
    "SchmidtData": lambda: tl.schmidt_decompose(
        tl.bell_state("phi+"), tl.TpsFrame.identity(tl.Factorization(4, (2, 2)))
    ),
    "TargetSpectrum": lambda: tl.TargetSpectrum([0.5, 0.5]),
    "SubalgebraBasis": lambda: tl.subalgebra_generators(
        tl.TpsFrame.identity(tl.Factorization(4, (2, 2))), "A"
    ),
    "SymplecticMatrix": lambda: tl.SymplecticMatrix(2, SYMPLECTIC_2),
    "CovarianceMatrix": lambda: tl.random_covariance(2, 1),
    "GaussianState": lambda: tl.GaussianState(tl.random_covariance(1, 1), [0.0, 0.0]),
    "QuadraticHamiltonian": lambda: tl.QuadraticHamiltonian(1, np.eye(2)),
    "LatticeHamiltonian": lambda: tl.LatticeHamiltonian(np.zeros(8), 2.0),
}


@pytest.mark.parametrize("build", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_array_holders_compare_and_hash_by_identity(build):
    # a generated __eq__ compared the arrays and raised on their truth value, and
    # the generated __hash__ raised TypeError on them
    x, y = build(), build()
    assert (x == y) is False and (x != y) is True
    assert x == x and hash(x) == hash(x)
    assert x in [x] and x not in [y]
    assert len({x, y, x}) == 2


# a real constructor, a valid real input, the error it raises and the attribute that keeps it
REAL_INPUTS = {
    "CovarianceMatrix": (lambda m: tl.CovarianceMatrix(1, m), np.eye(2), InvalidCovarianceError, "sigma"),
    "SymplecticMatrix": (lambda m: tl.SymplecticMatrix(1, m), np.eye(2), ValueError, "matrix"),
    "QuadraticHamiltonian": (lambda m: tl.QuadraticHamiltonian(1, m), np.eye(2), ValueError, "matrix"),
    "LatticeHamiltonian": (lambda b: tl.LatticeHamiltonian(b, 2.0), np.zeros(8), ValueError, "bonds"),
}


class TestRealInput:
    @pytest.mark.parametrize("build, real, error, attribute", REAL_INPUTS.values(), ids=REAL_INPUTS.keys())
    def test_imaginary_part_is_rejected(self, build, real, error, attribute):
        # the imaginary part was dropped with a ComplexWarning, or a nested list raised TypeError
        value = real.astype(complex)
        value.flat[0] += 5j
        with pytest.raises(error, match="must be real"):
            build(value)
        with pytest.raises(error, match="must be real"):
            build(value.tolist())

    @pytest.mark.parametrize("build, real, error, attribute", REAL_INPUTS.values(), ids=REAL_INPUTS.keys())
    def test_zero_imaginary_part_is_accepted(self, build, real, error, attribute):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for value in (real.astype(complex), real.astype(complex).tolist()):
                kept = getattr(build(value), attribute)
                assert kept.dtype == np.float64
                np.testing.assert_array_equal(kept, real)


NUMERIC_MESSAGES = {
    "PureState": lambda: tl.PureState(2, np.array([1.0, 1.0])),
    "TpsFrame": lambda: tl.TpsFrame(tl.Factorization(4, (2, 2)), 2.0 * np.eye(4)),
    "DensityMatrix": lambda: tl.DensityMatrix(2, np.eye(2)),
    "SchmidtData": lambda: tl.SchmidtData(np.array([0.7, 0.2]), np.eye(2), np.eye(2)),
    "TargetSpectrum": lambda: tl.TargetSpectrum(np.array([0.7, 0.2])),
    "CovarianceMatrix": lambda: tl.CovarianceMatrix(2, np.diag([0.5, 0.5, 1.0, 1.0])),
    "SymplecticMatrix": lambda: tl.SymplecticMatrix(1, np.diag([2.0, 2.0])),
    "PureState.dim": lambda: tl.PureState(np.float64(2.0), np.array([1.0, 0.0])),
}


class TestMessages:
    @pytest.mark.parametrize("build", NUMERIC_MESSAGES.values(), ids=NUMERIC_MESSAGES.keys())
    def test_numbers_print_as_python_numbers(self, build):
        with pytest.raises(ValueError) as err:
            build()
        assert "np." not in str(err.value)
        assert any(c.isdigit() for c in str(err.value))

    def test_williamson_residual_prints_a_python_float(self, monkeypatch):
        monkeypatch.setattr(gaussian, "WILLIAMSON_RESIDUAL_TOL", 0.0)
        with pytest.raises(tl.WilliamsonError, match=r"^reconstruction residual [0-9.e-]+ exceeds"):
            tl.williamson(tl.random_covariance(3, 12))

    def test_cli_error_line_has_no_numpy_repr(self, tmp_path, capsys):
        path = tmp_path / "below.json"
        state = {"n_modes": 2, "sigma": np.diag([0.5, 0.5, 1.0, 1.0]).tolist()}
        serialization.dump_json(path, state)
        assert run(["gaussian", "entangle", "--in", str(path), "--partition", "1"]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "InvalidCovarianceError"
        assert payload["message"].startswith("uncertainty bound violated: smallest symplectic")
        assert "np." not in payload["message"]


class TestProbabilityVectors:
    @pytest.mark.parametrize(
        "coefficients, message",
        [([1.5, -0.5], "nonnegative"), ([np.nan, 1.0], "finite"), ([[1.0]], "1d")],
    )
    def test_schmidt_data_checks_like_a_target_spectrum(self, coefficients, message):
        with pytest.raises(ValueError, match=message):
            tl.SchmidtData(np.array(coefficients), np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match=message):
            tl.TargetSpectrum(np.array(coefficients))

    def test_schmidt_vectors_must_be_finite(self):
        with pytest.raises(ValueError, match="left vectors must be finite"):
            tl.SchmidtData(np.array([1.0, 0.0]), np.full((2, 2), np.nan), np.eye(2))


class TestChunkedHermitianCheck:
    @pytest.mark.parametrize("bad", range(7))
    def test_defect_found_in_every_piece(self, monkeypatch, bad):
        # pieces of two matrices: the seven-matrix stack is walked in four pieces
        rng = np.random.default_rng(bad)
        m = rng.standard_normal((7, 5, 5)) + 1j * rng.standard_normal((7, 5, 5))
        stack = m + m.conj().swapaxes(1, 2)
        monkeypatch.setattr(_checks, "CHUNK_BYTES", 2 * stack[0].nbytes)
        _checks.require_hermitian("stack", stack, 1e-12)
        stack[bad, 1, 3] += 1e-9
        with pytest.raises(ValueError, match="stack is not Hermitian"):
            _checks.require_hermitian("stack", stack, 1e-12)

    def test_matrix_larger_than_a_piece_is_checked_whole(self, monkeypatch):
        monkeypatch.setattr(_checks, "CHUNK_BYTES", 8)
        sym = np.eye(6)
        _checks.require_hermitian("matrix", sym, 1e-12)
        sym[5, 0] = 1.0
        with pytest.raises(ValueError, match="matrix is not symmetric"):
            _checks.require_hermitian("matrix", sym, 1e-12)
