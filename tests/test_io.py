from __future__ import annotations

import dataclasses
import json
import re

import numpy as np
import pytest
from support import set_entry

from unimeas.cli import main
from unimeas.measurement import build_canonical_model
from unimeas.modelio import (
    ModelFormatError,
    load_matrix,
    load_model,
    load_observable,
    load_vector,
    model_from_document,
    model_to_document,
    save_matrix,
    save_model,
    save_vector,
)
from unimeas.rand import rand_hermitian, rand_ket, rand_model
from unimeas.spectral import spectral_decompose


@pytest.fixture
def model(rng):
    return rand_model(3, rng)


def _legacy_document(model, unitary) -> dict:
    """The model as earlier versions wrote it: the dense unitary in place of the isometry."""
    doc = model_to_document(model)
    del doc["isometry"]
    doc["unitary"] = np.stack([unitary.real, unitary.imag], -1).tolist()
    return doc


def _saved_twice(tmp_path, model):
    """(the model loaded from its file, that file's bytes, the bytes of the loaded model's file)."""
    first, second = tmp_path / "model.json", tmp_path / "again.json"
    save_model(model, first)
    loaded = load_model(first)
    save_model(loaded, second)
    return loaded, first.read_bytes(), second.read_bytes()


def _assert_loads_exactly(loaded, model) -> None:
    """Every array of loaded is model's bit for bit: assert_array_equal would let 0.0 match -0.0."""
    assert (loaded.dim_a, loaded.dim_b) == (model.dim_a, model.dim_b)
    assert loaded.isometry.tobytes() == model.isometry.tobytes()
    assert loaded.instrument_state.tobytes() == model.instrument_state.tobytes()
    for sf, ref in ((loaded.observable, model.observable), (loaded.pointer, model.pointer)):
        assert sf.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
        assert sf.projectors.tobytes() == ref.projectors.tobytes()


class TestModelRoundTrip:
    def test_save_load_save_is_byte_identical(self, tmp_path, model):
        _, first, second = _saved_twice(tmp_path, model)
        assert first == second

    def test_load_reproduces_arrays_exactly(self, tmp_path, model):
        _assert_loads_exactly(_saved_twice(tmp_path, model)[0], model)

    def test_document_round_trip(self, model):
        doc = model_to_document(model)
        rebuilt = model_from_document(json.loads(json.dumps(doc)))
        np.testing.assert_array_equal(rebuilt.isometry, model.isometry)


class TestVectorMatrixFiles:
    def test_vector_round_trip(self, tmp_path, rng):
        v = rand_ket(5, rng)
        path = tmp_path / "v.json"
        save_vector(v, path)
        np.testing.assert_array_equal(load_vector(path), v)

    def test_matrix_round_trip(self, tmp_path, rng):
        m = rand_hermitian(4, rng)
        path = tmp_path / "m.json"
        save_matrix(m, path)
        np.testing.assert_array_equal(load_matrix(path), m)

    def test_signed_zeros_round_trip(self, tmp_path):
        v = np.array([complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)])
        path = tmp_path / "v.json"
        save_vector(v, path)
        assert load_vector(path).tobytes() == v.tobytes()

    def test_vector_file_is_complex_pairs(self, tmp_path):
        path = tmp_path / "v.json"
        save_vector(np.array([1.0, 1.0j]), path)
        assert path.read_text() == "[[1.0,0.0],[0.0,1.0]]\n"

    @pytest.mark.parametrize(
        "save, array",
        [(save_vector, np.eye(2)), (save_vector, np.float64(1.0)), (save_matrix, np.ones(2))],
        ids=["vector-2d", "vector-0d", "matrix-1d"],
    )
    def test_save_wrong_rank_rejected(self, tmp_path, save, array):
        path = tmp_path / "a.json"
        with pytest.raises(ValueError, match="-D, got shape"):
            save(array, path)
        assert not path.exists()

    def test_ragged_matrix_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[[[1,0],[0,0]],[[1,0]]]")
        with pytest.raises(ModelFormatError, match="inconsistent"):
            load_matrix(path)


class TestLayouts:
    def test_seed_indented_layout_loads_exactly(self, tmp_path, model):
        path = tmp_path / "indented.json"
        path.write_text(json.dumps(model_to_document(model), indent=2) + "\n")
        _assert_loads_exactly(load_model(path), model)

    def test_round_trip_at_joint_256(self, tmp_path):
        model = build_canonical_model(spectral_decompose(rand_hermitian(16, np.random.default_rng(7))))
        assert model.dim == 256
        loaded, first, second = _saved_twice(tmp_path, model)
        assert first == second
        _assert_loads_exactly(loaded, model)

    def test_round_trip_at_joint_1024(self, tmp_path):
        model = build_canonical_model(spectral_decompose(rand_hermitian(32, np.random.default_rng(7))))
        assert model.dim == 1024
        loaded, first, second = _saved_twice(tmp_path, model)
        assert len(first) < 4_000_000 and first == second
        _assert_loads_exactly(loaded, model)

    def test_save_refuses_non_finite(self, tmp_path, model):
        w = np.array(model.isometry)
        w[0, 0] = np.nan
        path = tmp_path / "model.json"
        with pytest.raises(ValueError):
            save_model(dataclasses.replace(model, isometry=w), path)
        assert not path.exists()


class TestUnitaryFilesRefused:
    """A model document holds the interaction as the isometry alone; one holding the
    dense unitary of earlier versions is refused by the field rule, naming the field."""

    @pytest.fixture
    def documents(self, model, controlled_shift):
        legacy = _legacy_document(model, controlled_shift(model.observable))
        both = model_to_document(model)
        both["unitary"] = legacy["unitary"]
        return {"unitary-only": legacy, "both": both}

    @pytest.mark.parametrize(
        "kind, message",
        [("unitary-only", "missing fields: isometry"), ("both", "unknown fields: unitary")],
        ids=["unitary-only", "both"],
    )
    def test_refused(self, documents, kind, message, tmp_path, capsys):
        with pytest.raises(ModelFormatError, match=f"^{message}$"):
            model_from_document(documents[kind])
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(documents[kind]))
        assert main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


PAIR = r"expected a \[re, im\] pair"

# case: (field path in the document, replacement, message the loader must give)
MALFORMED = {
    "bool-in-pair": (
        ("isometry", 3, 1), [True, 0.0], rf"^isometry\[3\]\[1\]: {PAIR}, got \[True, 0\.0\]$"
    ),
    "string": (
        ("isometry", 3, 1), ["0.5", 0.0], rf"^isometry\[3\]\[1\]: {PAIR}, got \['0\.5', 0\.0\]$"
    ),
    "string-scalar": (("instrument_state", 0), "1", rf"^instrument_state\[0\]: {PAIR}, got '1'$"),
    "one-element-pair": (("isometry", 3, 1), [0.5], rf"^isometry\[3\]\[1\]: {PAIR}"),
    "three-element-pair": (("isometry", 3, 1), [0.5, 0.0, 0.0], rf"^isometry\[3\]\[1\]: {PAIR}"),
    "nested-pair": (("instrument_state", 1), [[1.0, 0.0], [0.0, 0.0]], rf"^instrument_state\[1\]: {PAIR}"),
    "nan-token": (
        ("isometry", 3, 1), [float("nan"), 0.0], r"^isometry\[3\]\[1\]: non-finite value \[nan, 0\.0\]$"
    ),
    "infinity-token": (
        ("instrument_state", 0),
        [0.0, float("inf")],
        r"^instrument_state\[0\]: non-finite value \[0\.0, inf\]$",
    ),
    "int-overflow": (("isometry", 0, 0), [10**400, 0], r"^isometry\[0\]\[0\]: non-finite value"),
    "empty-vector": (
        ("instrument_state",), [], r"^instrument_state: expected a non-empty array of complex scalars$"
    ),
    "empty-matrix": (("isometry",), [], r"^isometry: expected a non-empty array of rows$"),
    "ragged-rows": (("isometry", 2), [[1.0, 0.0]], r"^isometry: rows have inconsistent lengths$"),
    "empty-row": (("isometry", 2), [], r"^isometry\[2\]: expected a non-empty array of complex scalars$"),
    "vector-for-matrix": (("isometry",), [[1.0, 0.0], [0.0, 0.0]], rf"^isometry\[0\]\[0\]: {PAIR}, got 1\.0$"),
    "matrix-for-vector": (("instrument_state",), [[[1.0, 0.0]]], rf"^instrument_state\[0\]: {PAIR}"),
    "projector-depth": (
        ("pointer", "projectors", 1), [[1.0, 0.0]], rf"^pointer\.projectors\[1\]\[0\]\[0\]: {PAIR}"
    ),
    "number-for-matrix": (("isometry",), 5, r"^isometry: expected a non-empty array of rows$"),
    "object-for-vector": (
        ("instrument_state",), {"a": 1}, r"^instrument_state: expected a non-empty array of complex scalars$"
    ),
    "empty-eigenvalues": (
        ("observable", "eigenvalues"),
        [],
        r"^observable\.eigenvalues: expected a non-empty array of real numbers$",
    ),
    "bool-eigenvalue": (
        ("observable", "eigenvalues"),
        [True, 1.0],
        r"^observable\.eigenvalues: expected a non-empty array of real numbers$",
    ),
    "empty-projectors": (
        ("observable", "projectors"), [], r"^observable\.projectors: expected a non-empty array of matrices$"
    ),
}


class TestMalformedArrays:
    """Every malformed array is rejected with the offending field path."""

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_rejected_with_field_path(self, tmp_path, model, case, dense_document):
        where, value, message = MALFORMED[case]
        doc = (dense_document if "projectors" in where else model_to_document)(model)
        set_entry(doc, where, value)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    def test_eigenvalue_overflow_rejected(self, model):
        doc = model_to_document(model)
        doc["observable"]["eigenvalues"][0] = 10**400
        with pytest.raises(ModelFormatError, match=r"^observable\.eigenvalues: "):
            model_from_document(doc)

    def test_non_finite_eigenvalue_named(self, model):
        doc = model_to_document(model)
        doc["observable"]["eigenvalues"][0] = float("nan")
        with pytest.raises(ModelFormatError, match="observable"):
            model_from_document(doc)


# three 2 x 2 projectors where a 3 x 3 stack belongs
TWO_BY_TWO = [
    [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
]
# a number past CPython's default limit of 4300 digits for int(); a build without that limit
# reads it, and the loader refuses it as a non-finite value
LONG_INTEGER = "1" + "0" * 5000


def _refused(doc, path, value, message) -> None:
    """model_from_document refuses doc, its entry at path set to value, with message."""
    set_entry(doc, path, value)
    with pytest.raises(ModelFormatError, match=message):
        model_from_document(doc)


def _unparseable(fault, loader, model) -> bytes:
    """The text of a file that json.loads cannot return: one fault, in the loader's kind of file."""
    if fault == "nested-100000-deep":
        return b"[" * 100_000 + b"]" * 100_000
    if fault == "not-utf-8":
        return b"[[1.0,\xff0.0]]"
    # the loader's kind of file, with LONG_INTEGER as the real part of its first entry (of W in a model)
    if loader is load_model:
        doc = model_to_document(model)
        set_entry(doc, ("isometry", 0, 0), "N")
        text = json.dumps(doc)
    else:
        text = '["N"]' if loader is load_vector else '[["N"]]'
    return text.replace('"N"', f"[{LONG_INTEGER}, 0]").encode()


class TestFieldDiagnostics:
    def test_outcome_count_mismatch_named(self, tmp_path, outcome_mismatch_document):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(outcome_mismatch_document))
        with pytest.raises(ModelFormatError, match=r"^observable has 2 outcomes, pointer has 3$"):
            load_model(path)

    def test_bad_dim_named(self, model):
        _refused(model_to_document(model), ("dim_a",), 0, r"^dim_a: expected a positive integer, got 0$")

    def test_bool_dim_rejected(self, model):
        _refused(model_to_document(model), ("dim_b",), True, r"^dim_b: expected a positive integer, got True$")

    def test_bad_complex_pair_path_named(self, model):
        message = rf"^instrument_state\[0\]: {PAIR}, got \[1\.0\]$"
        _refused(model_to_document(model), ("instrument_state", 0), [1.0], message)

    def test_non_finite_entry_rejected(self, model):
        message = r"^instrument_state\[0\]: non-finite value \[nan, 0\.0\]$"
        _refused(model_to_document(model), ("instrument_state", 0), [float("nan"), 0.0], message)

    def test_spectral_count_mismatch_named(self, model):
        doc = model_to_document(model)
        eigenvalues = [*doc["observable"]["eigenvalues"], 99.0]
        _refused(doc, ("observable", "eigenvalues"), eigenvalues, r"^observable: 4 eigenvalues but 3 ranks$")

    def test_wrong_size_pointer_projector_named(self, model, dense_document):
        message = r"^pointer: projector 1 has shape \(2, 2\), expected \(3, 3\)$"
        _refused(dense_document(model), ("pointer", "projectors", 1), TWO_BY_TWO[0], message)

    def test_wrong_size_pointer_projector_0_named(self, model, dense_document):
        message = r"^pointer: projector 0 has shape \(2, 2\), expected \(3, 3\)$"
        _refused(dense_document(model), ("pointer", "projectors", 0), TWO_BY_TWO[0], message)

    def test_uniformly_wrong_size_pointer_named_by_dimension(self, model, dense_document):
        message = r"^pointer: projector 0 has shape \(2, 2\), expected \(3, 3\)$"
        _refused(dense_document(model), ("pointer", "projectors"), TWO_BY_TWO, message)

    def test_uniformly_wrong_size_observable_named_by_dimension(self, model, dense_document):
        message = r"^observable: projector 0 has shape \(2, 2\), expected \(3, 3\)$"
        _refused(dense_document(model), ("observable", "projectors"), TWO_BY_TWO, message)

    def test_spectral_unknown_key_named(self, model):
        message = r"^pointer: expected an object with keys \['basis', 'eigenvalues', 'ranks'\] or "
        _refused(model_to_document(model), ("pointer", "labels"), [1], message)

    def test_non_isometric_matrix_named(self, model):
        message = r"^isometry: isometry defect 2\.500e\+01 exceeds 1e-09$"
        _refused(model_to_document(model), ("isometry", 0, 0), [5.0, 0.0], message)

    def test_dense_matrix_in_isometry_field_named(self, model, controlled_shift):
        unitary = _legacy_document(model, controlled_shift(model.observable))["unitary"]
        message = r"^isometry: shape \(9, 9\), expected \(9, 3\)$"
        _refused(model_to_document(model), ("isometry",), unitary, message)

    def test_non_object_document(self):
        with pytest.raises(ModelFormatError, match="^model document must be a JSON object$"):
            model_from_document([1, 2, 3])

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"dim_a": 2,')
        with pytest.raises(ModelFormatError, match=rf"^{re.escape(str(path))}: invalid JSON \("):
            load_model(path)

    @pytest.mark.parametrize("loader", [load_model, load_vector, load_observable], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("fault", ["nested-100000-deep", "not-utf-8", "long-integer"])
    def test_unparseable_file_named(self, tmp_path, model, fault, loader):
        """Refused as invalid JSON naming the file, not as a RecursionError, a UnicodeDecodeError
        or a bare ValueError."""
        path = tmp_path / "bad.json"
        path.write_bytes(_unparseable(fault, loader, model))
        message = rf"^{re.escape(str(path))}: invalid JSON \(" + ("|: non-finite value" if fault == "long-integer" else "")
        with pytest.raises(ModelFormatError, match=message):
            loader(path)

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(ModelFormatError, match=rf"^cannot read {re.escape(str(path))}: "):
            load_model(path)

    def test_error_type_is_value_error(self):
        assert issubclass(ModelFormatError, ValueError)


# case: (change to the observable of a basis document, message the loader must give)
BASIS_FIELD_FAULTS = {
    "basis-nan": (
        lambda sf: sf["basis"][0].__setitem__(1, [float("nan"), 0.0]),
        r"^observable\.basis\[0\]\[1\]: non-finite value \[nan, 0\.0\]$",
    ),
    "basis-inf": (
        lambda sf: sf["basis"][2].__setitem__(0, [0.0, float("-inf")]),
        r"^observable\.basis\[2\]\[0\]: non-finite value \[0\.0, -inf\]$",
    ),
    "basis-not-square": (
        lambda sf: sf.__setitem__("basis", sf["basis"][:2]),
        r"^observable: basis has shape \(2, 3\), expected \(3, 3\)$",
    ),
    "basis-wrong-dim": (
        lambda sf: sf.__setitem__("basis", [row[:2] for row in sf["basis"][:2]]),
        r"^observable: basis has shape \(2, 2\), expected \(3, 3\)$",
    ),
    "basis-not-unitary": (
        lambda sf: sf["basis"][0].__setitem__(0, [5.0, 0.0]),
        r"^observable: basis: unitarity defect [0-9.e+]+ exceeds 1e-09$",
    ),
    "basis-overflowing": (
        lambda sf: sf["basis"][0].__setitem__(0, [1e300, 0.0]),
        r"^observable: basis: unitarity defect inf exceeds 1e-09$",
    ),
    "rank-zero": (
        lambda sf: sf.__setitem__("ranks", [0, 2, 1]),
        r"^observable: ranks must be positive integers adding up to 3, got \[0, 2, 1\]$",
    ),
    "rank-negative": (
        lambda sf: sf.__setitem__("ranks", [-1, 3, 1]),
        r"^observable: ranks must be positive integers adding up to 3, got \[-1, 3, 1\]$",
    ),
    "rank-huge": (
        lambda sf: sf.__setitem__("ranks", [10**30, 1, 1]),
        r"^observable: ranks must be positive integers adding up to 3",
    ),
    "rank-wrapping": (
        lambda sf: sf.__setitem__("ranks", [2**63 - 1, 2**63 - 1, 5]),  # int64 sum wraps to 3
        r"^observable: ranks must be positive integers adding up to 3",
    ),
    "rank-bool": (
        lambda sf: sf.__setitem__("ranks", [True, 1, 1]),
        r"^observable\.ranks: expected an array of integers$",
    ),
    "rank-float": (
        lambda sf: sf.__setitem__("ranks", [1.0, 1, 1]),
        r"^observable\.ranks: expected an array of integers$",
    ),
    "ranks-not-a-list": (
        lambda sf: sf.__setitem__("ranks", 3),
        r"^observable\.ranks: expected an array of integers$",
    ),
    "ranks-sum": (
        lambda sf: sf.__setitem__("ranks", [1, 1, 2]),
        r"^observable: ranks must be positive integers adding up to 3, got \[1, 1, 2\]$",
    ),
    "counts-differ": (
        lambda sf: sf.__setitem__("ranks", [1, 2]),
        r"^observable: 3 eigenvalues but 2 ranks$",
    ),
    "basis-and-projectors": (
        lambda sf: sf.__setitem__("projectors", [np.eye(3).tolist()]),
        r"^observable: expected an object with keys \['basis', 'eigenvalues', 'ranks'\] or "
        r"\['eigenvalues', 'projectors'\]$",
    ),
    "neither": (
        lambda sf: (sf.pop("basis"), sf.pop("ranks")),
        r"^observable: expected an object with keys",
    ),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(BASIS_FIELD_FAULTS))
def test_basis_field_faults_rejected(tmp_path, model, case, capsys):
    """Each fault in the fields of a stored spectral form is named, and the CLI exits 2."""
    change, message = BASIS_FIELD_FAULTS[case]
    doc = model_to_document(model)
    change(doc["observable"])
    with pytest.raises(ModelFormatError, match=message):
        model_from_document(json.loads(json.dumps(doc)))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: observable")


class TestObservableFiles:
    def test_matrix_form(self, tmp_path):
        path = tmp_path / "obs.json"
        save_matrix(np.diag([1.0, -1.0]), path)
        sf = load_observable(path)
        np.testing.assert_allclose(sf.eigenvalues, [1.0, -1.0], atol=1e-12)

    def test_explicit_spectral_form(self, tmp_path):
        sf = spectral_decompose(np.diag([3.0, 3.0, 7.0]))
        e = sf.projectors
        doc = {"eigenvalues": sf.eigenvalues.tolist(), "projectors": np.stack([e.real, e.imag], -1).tolist()}
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(doc))
        loaded = load_observable(path)
        assert loaded.outcomes == 2
        np.testing.assert_allclose(loaded.eigenvalues, sf.eigenvalues, atol=1e-12)

    def test_non_hermitian_matrix_rejected(self, tmp_path):
        path = tmp_path / "obs.json"
        save_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]), path)
        with pytest.raises(ModelFormatError, match="observable"):
            load_observable(path)

    @pytest.mark.parametrize(
        "eigenvalues,basis,message",
        [
            ([1.0, 1.0], np.eye(2), r"^observable: eigenvalues 0 and 1 are equal \(1\.0\)$"),
            ([1.0, -1.0], [[1.0, 1.0], [0.0, 1.0]], r"^observable: basis: unitarity defect "),
        ],
        ids=["equal-eigenvalues", "non-unitary-basis"],
    )
    def test_basis_form_failing_validate_rejected(self, tmp_path, capsys, eigenvalues, basis, message):
        b = np.asarray(basis, dtype=np.complex128)
        doc = {"eigenvalues": eigenvalues, "ranks": [1, 1], "basis": np.stack([b.real, b.imag], -1).tolist()}
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=message):
            load_observable(path)
        assert main(["build", str(path), "--out", str(tmp_path / "model.json")]) == 2
        assert capsys.readouterr().err.startswith("error: observable: ")
        assert not (tmp_path / "model.json").exists()

    def test_incomplete_spectral_form_rejected(self, tmp_path):
        doc = {"eigenvalues": [1.0], "projectors": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]}
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="observable"):
            load_observable(path)


class TestBuiltModelFiles:
    def test_built_model_parses_and_validates(self, tmp_path):
        model = build_canonical_model(spectral_decompose(np.diag([1.0, -1.0])))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        loaded.validate(1e-9)
