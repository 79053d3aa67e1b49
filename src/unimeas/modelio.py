"""JSON serialization of models, states, and operators.

Complex scalars are written as [re, im] pairs, matrices as arrays of rows,
vectors as arrays of complex scalars. Files are written compactly, without
indentation or spaces, and floats use Python's shortest round-trip
representation, so save(load(f)) is byte-identical for files this version
wrote. Files written with other whitespace, such as the earlier indented
layout, still load to the same arrays. Saving a non-finite value raises
ValueError before any file is written; loading one raises ModelFormatError.

A model file stores the interaction on the initial subspace, the isometry
W = U(I (x) phi_B), as a (dim_a*dim_b) x dim_a matrix. Files of earlier
versions store the dense unitary U under "unitary" instead; they still load,
their U checked as a whole and reduced to W, and are saved again with W.
The file's dim_a and dim_b must be positive ints. A model reads its
dimensions from its spectral forms, so they reach it through the shape rule
(linalg.projector_stack): every observable projector must be dim_a x dim_a
and every pointer projector dim_b x dim_b.

Encoding and decoding are array operations. Decoding checks each complex
array as a whole first; when that check fails, a per-element walk finds
the offending entry and names its field path in the error.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .linalg import DEFAULT_EPS, projector_stack
from .measurement import MeasurementModel, isometry_from_unitary
from .spectral import SpectralForm, spectral_decompose


class ModelFormatError(ValueError):
    """A file failed to parse or violated a type invariant."""


# every model field but the interaction, which is "isometry" or, in files of
# earlier versions, "unitary"
_MODEL_FIELDS = ("dim_a", "dim_b", "observable", "pointer", "instrument_state")


def _complex_out(a: np.ndarray) -> list:
    """Nested lists of the same shape as a, each complex entry as a [re, im] pair."""
    return np.stack([a.real, a.imag], -1).tolist()


def _pairs_fast(node, ndim: int) -> np.ndarray | None:
    """Complex array of ndim dimensions from nested [re, im] pairs, or None.

    None means the node is not a regular, finite, list-nested array of
    int/float pairs, and the caller's per-element walk must diagnose it.
    """
    rows = node if ndim == 2 else [node]
    if type(node) is not list or not all(type(row) is list for row in rows):
        return None
    try:
        a = np.array(node, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None
    if a.ndim != ndim + 1 or a.shape[-1] != 2 or not np.isfinite(a).all():
        return None
    # np.array converts true/false and numeric strings to floats
    if not all(type(x) is float or type(x) is int for row in rows for pair in row for x in pair):
        return None
    # a view keeps every bit, signed zeros included, as complex(re, im) does
    return a.view(np.complex128)[..., 0]


def _complex_in(node, where: str) -> complex:
    if (
        not isinstance(node, (list, tuple))
        or len(node) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in node)
    ):
        raise ModelFormatError(f"{where}: expected a [re, im] pair, got {node!r}")
    try:
        z = complex(node[0], node[1])
    except OverflowError:
        raise ModelFormatError(f"{where}: non-finite value {node!r}") from None
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise ModelFormatError(f"{where}: non-finite value {node!r}")
    return z


def _vector_in(node, where: str) -> np.ndarray:
    fast = _pairs_fast(node, 1)
    if fast is not None:
        return fast
    if not isinstance(node, list) or not node:
        raise ModelFormatError(f"{where}: expected a non-empty array of complex scalars")
    return np.array(
        [_complex_in(z, f"{where}[{i}]") for i, z in enumerate(node)], dtype=np.complex128
    )


def _matrix_in(node, where: str) -> np.ndarray:
    fast = _pairs_fast(node, 2)
    if fast is not None:
        return fast
    if not isinstance(node, list) or not node:
        raise ModelFormatError(f"{where}: expected a non-empty array of rows")
    rows = [_vector_in(row, f"{where}[{i}]") for i, row in enumerate(node)]
    width = rows[0].size
    if any(r.size != width for r in rows):
        raise ModelFormatError(f"{where}: rows have inconsistent lengths")
    return np.vstack(rows)


def _real_array_in(node, where: str) -> np.ndarray:
    if (
        not isinstance(node, list)
        or not node
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in node)
    ):
        raise ModelFormatError(f"{where}: expected a non-empty array of real numbers")
    try:
        return np.array(node, dtype=np.float64)
    except OverflowError:
        raise ModelFormatError(f"{where}: value too large for a float") from None


def _spectral_out(sf: SpectralForm) -> dict:
    return {
        "eigenvalues": sf.eigenvalues.tolist(),
        "projectors": _complex_out(sf.projectors),
    }


def _spectral_in(node, where: str, dim: int | None = None) -> SpectralForm:
    """The spectral form in node; the first projector that is not dim x dim is named."""
    if not isinstance(node, dict):
        raise ModelFormatError(f"{where}: expected an object with eigenvalues and projectors")
    extra = set(node) - {"eigenvalues", "projectors"}
    if extra:
        raise ModelFormatError(f"{where}: unknown keys {sorted(extra)}")
    if "eigenvalues" not in node or "projectors" not in node:
        raise ModelFormatError(f"{where}: missing eigenvalues or projectors")
    vals = _real_array_in(node["eigenvalues"], f"{where}.eigenvalues")
    projs_node = node["projectors"]
    if not isinstance(projs_node, list) or not projs_node:
        raise ModelFormatError(f"{where}.projectors: expected a non-empty array of matrices")
    projs = tuple(
        _matrix_in(p, f"{where}.projectors[{k}]") for k, p in enumerate(projs_node)
    )
    if vals.size != len(projs):
        raise ModelFormatError(
            f"{where}: {vals.size} eigenvalues but {len(projs)} projectors"
        )
    try:
        return SpectralForm(vals, projector_stack(projs, dim=dim))
    except ValueError as exc:  # a projector that is not square, or not dim x dim
        raise ModelFormatError(f"{where}: {exc}") from exc


def model_to_document(model: MeasurementModel) -> dict:
    return {
        "dim_a": model.dim_a,
        "dim_b": model.dim_b,
        "observable": _spectral_out(model.observable),
        "pointer": _spectral_out(model.pointer),
        "instrument_state": _complex_out(model.instrument_state),
        "isometry": _complex_out(model.isometry),
    }


def model_from_document(doc, eps: float = DEFAULT_EPS) -> MeasurementModel:
    """Build and validate a model from a parsed JSON document.

    The interaction is read from "isometry", or from a legacy "unitary",
    which must then be a dim x dim unitary; a document holding both is refused.

    Raises:
        ModelFormatError: structural problems or type-invariant violations,
            naming the offending field.
    """
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    legacy = "unitary" in doc
    if legacy and "isometry" in doc:
        raise ModelFormatError("both isometry and legacy unitary given; expected one")
    fields = _MODEL_FIELDS + ("unitary" if legacy else "isometry",)
    missing = [f for f in fields if f not in doc]
    if missing:
        raise ModelFormatError(f"missing fields: {', '.join(missing)}")
    extra = set(doc) - set(fields)
    if extra:
        raise ModelFormatError(f"unknown fields: {', '.join(sorted(extra))}")
    for name in ("dim_a", "dim_b"):
        if not isinstance(doc[name], int) or isinstance(doc[name], bool) or doc[name] < 1:
            raise ModelFormatError(f"{name}: expected a positive integer, got {doc[name]!r}")
    observable = _spectral_in(doc["observable"], "observable", doc["dim_a"])
    pointer = _spectral_in(doc["pointer"], "pointer", doc["dim_b"])
    instrument_state = _vector_in(doc["instrument_state"], "instrument_state")
    if legacy:
        unitary = _matrix_in(doc["unitary"], "unitary")
        try:
            isometry = isometry_from_unitary(
                unitary, doc["dim_a"], doc["dim_b"], instrument_state, eps
            )
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from exc
    else:
        isometry = _matrix_in(doc["isometry"], "isometry")
    model = MeasurementModel(
        observable=observable,
        pointer=pointer,
        instrument_state=instrument_state,
        isometry=isometry,
    )
    try:
        model.validate(eps)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc
    return model


def _dump(doc) -> str:
    return json.dumps(doc, separators=(",", ":"), allow_nan=False) + "\n"


def _parse(path) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ModelFormatError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: invalid JSON ({exc})") from exc


def save_model(model: MeasurementModel, path) -> None:
    Path(path).write_text(_dump(model_to_document(model)), encoding="utf-8")


def load_model(path, eps: float = DEFAULT_EPS) -> MeasurementModel:
    return model_from_document(_parse(path), eps)


def save_vector(v: np.ndarray, path) -> None:
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 1:
        raise ValueError(f"vector must be 1-D, got shape {v.shape}")
    Path(path).write_text(_dump(_complex_out(v)), encoding="utf-8")


def load_vector(path) -> np.ndarray:
    return _vector_in(_parse(path), "vector")


def save_matrix(m: np.ndarray, path) -> None:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {m.shape}")
    Path(path).write_text(_dump(_complex_out(m)), encoding="utf-8")


def load_matrix(path) -> np.ndarray:
    return _matrix_in(_parse(path), "matrix")


def load_observable(path, eps: float = DEFAULT_EPS) -> SpectralForm:
    """Read an observable file: a Hermitian matrix or an explicit spectral form.

    Raises:
        ModelFormatError: malformed file, non-Hermitian matrix, or invalid
            spectral form.
    """
    doc = _parse(path)
    if isinstance(doc, dict):
        sf = _spectral_in(doc, "observable")
        try:
            sf.validate(eps)
        except ValueError as exc:
            raise ModelFormatError(f"observable: {exc}") from exc
        return sf
    matrix = _matrix_in(doc, "observable")
    try:
        return spectral_decompose(matrix, eps)
    except ValueError as exc:
        raise ModelFormatError(f"observable: {exc}") from exc
