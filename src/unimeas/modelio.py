"""JSON serialization of models, states, and operators.

Complex scalars are written as [re, im] pairs, matrices as arrays of rows,
vectors as arrays of complex scalars. Files are written compactly, without
indentation or spaces, and floats use Python's shortest round-trip
representation, so save(load(f)) is byte-identical for files this version
wrote. Files written with other whitespace, such as the earlier indented
layout, still load to the same arrays. Saving a non-finite value raises
ValueError before any file is written; loading one raises ModelFormatError.

A model file stores the interaction on the initial subspace, the isometry
W = U(I (x) phi_B), as a (dim_a*dim_b) x dim_a matrix. The file's dim_a and
dim_b must be positive ints. Spectral forms are stored as held,
{"eigenvalues", "ranks" (ints), "basis"}; dense {"eigenvalues", "projectors"},
from earlier versions or observable files, go through spectral.from_projectors and
are saved with a basis. Observable matrices are dim_a square, pointer ones dim_b.

Encoding and decoding are array operations. One decoder reads every complex
array, as a whole; when it refuses one, a per-element walk only names the
first offending entry, with its field path, and builds nothing. A number is
what json.loads yields, of type float or int (int alone for dims and ranks):
bools, numeric strings and numpy scalars are refused, by this one rule.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path

import numpy as np

from .linalg import DEFAULT_EPS
from .measurement import MeasurementModel
from .spectral import SpectralForm, from_projectors, spectral_decompose


class ModelFormatError(ValueError):
    """A file failed to parse or violated a type invariant."""


_MODEL_FIELDS = ("dim_a", "dim_b", "observable", "pointer", "instrument_state", "isometry")
# the keys of a spectral form: a basis with ranks, or the dense form of earlier versions
_SPECTRAL_KEYS = ({"eigenvalues", "ranks", "basis"}, {"eigenvalues", "projectors"})


def _complex_out(a: np.ndarray) -> list:
    """Nested lists of the same shape as a, each complex entry as a [re, im] pair."""
    return np.stack([a.real, a.imag], -1).tolist()


def _complex_in(node, ndim: int, where: str) -> np.ndarray:
    """Complex array of ndim dimensions (1 or 2) from nested [re, im] pairs.

    The node is decoded as a whole; when it is not a regular, finite array of
    int/float pairs, _diagnose raises at its first bad entry.
    """
    try:
        a = np.array(node, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        a = np.empty(0)  # 1-D: refused below
    rows = node if ndim == 2 else [node]
    # np.array converts true/false and numeric strings to floats, so the types are scanned too
    if a.ndim == ndim + 1 and a.shape[-1] == 2 and np.isfinite(a).all() and all(
        type(x) is float or type(x) is int for row in rows for pair in row for x in pair
    ):
        # a view keeps every bit, signed zeros included
        return a.view(np.complex128)[..., 0]
    _diagnose(node, ndim, where)
    # every entry is a finite pair, so only the row lengths can differ
    raise ModelFormatError(f"{where}: rows have inconsistent lengths")


def _diagnose(node, ndim: int, where: str) -> None:
    """Raise at node's first entry, in document order, that is not a finite [re, im] pair
    or a non-empty array of its kind; return when there is none."""
    if ndim == 0:
        if (
            not isinstance(node, (list, tuple))
            or len(node) != 2
            or not all(type(x) is float or type(x) is int for x in node)
        ):
            raise ModelFormatError(f"{where}: expected a [re, im] pair, got {node!r}")
        try:
            finite = np.isfinite(complex(node[0], node[1]))
        except OverflowError:
            finite = False
        if not finite:
            raise ModelFormatError(f"{where}: non-finite value {node!r}")
        return
    if not isinstance(node, list) or not node:
        items = "rows" if ndim == 2 else "complex scalars"
        raise ModelFormatError(f"{where}: expected a non-empty array of {items}")
    for i, entry in enumerate(node):
        _diagnose(entry, ndim - 1, f"{where}[{i}]")


def _real_array_in(node, where: str) -> np.ndarray:
    if not isinstance(node, list) or not node or not all(type(x) is float or type(x) is int for x in node):
        raise ModelFormatError(f"{where}: expected a non-empty array of real numbers")
    try:
        return np.array(node, dtype=np.float64)
    except OverflowError:
        raise ModelFormatError(f"{where}: value too large for a float") from None


def _spectral_out(sf: SpectralForm) -> dict:
    return {
        "eigenvalues": sf.eigenvalues.tolist(),
        "ranks": sf.ranks.tolist(),
        "basis": _complex_out(sf.basis),
    }


def _spectral_in(node, where: str, dim: int | None, eps: float) -> SpectralForm:
    """The spectral form in node; a basis or projector that is not dim x dim is named."""
    if not isinstance(node, dict) or set(node) not in _SPECTRAL_KEYS:
        keys = " or ".join(str(sorted(k)) for k in _SPECTRAL_KEYS)
        raise ModelFormatError(f"{where}: expected an object with keys {keys}")
    vals = _real_array_in(node["eigenvalues"], f"{where}.eigenvalues")
    if "projectors" in node:
        projs = node["projectors"]
        if not isinstance(projs, list) or not projs:
            raise ModelFormatError(f"{where}.projectors: expected a non-empty array of matrices")
        projs = [_complex_in(p, 2, f"{where}.projectors[{k}]") for k, p in enumerate(projs)]
        build = partial(from_projectors, vals, projs, eps, dim)
    else:
        basis = _complex_in(node["basis"], 2, f"{where}.basis")
        ranks = node["ranks"]
        if not isinstance(ranks, list) or not all(type(r) is int for r in ranks):
            raise ModelFormatError(f"{where}.ranks: expected an array of integers")
        if dim is not None and basis.shape != (dim, dim):
            raise ModelFormatError(f"{where}: basis has shape {basis.shape}, expected {(dim, dim)}")
        build = partial(SpectralForm, vals, ranks, basis)
    try:
        return build()
    except ValueError as exc:
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

    Raises:
        ModelFormatError: structural problems or type-invariant violations,
            naming the offending field.
    """
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    missing = [f for f in _MODEL_FIELDS if f not in doc]
    if missing:
        raise ModelFormatError(f"missing fields: {', '.join(missing)}")
    extra = set(doc) - set(_MODEL_FIELDS)
    if extra:
        raise ModelFormatError(f"unknown fields: {', '.join(sorted(extra))}")
    for name in ("dim_a", "dim_b"):
        if type(doc[name]) is not int or doc[name] < 1:
            raise ModelFormatError(f"{name}: expected a positive integer, got {doc[name]!r}")
    observable = _spectral_in(doc["observable"], "observable", doc["dim_a"], eps)
    pointer = _spectral_in(doc["pointer"], "pointer", doc["dim_b"], eps)
    instrument_state = _complex_in(doc["instrument_state"], 1, "instrument_state")
    isometry = _complex_in(doc["isometry"], 2, "isometry")
    try:
        model = MeasurementModel(
            observable=observable,
            pointer=pointer,
            instrument_state=instrument_state,
            isometry=isometry,
        )
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
    return _complex_in(_parse(path), 1, "vector")


def save_matrix(m: np.ndarray, path) -> None:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {m.shape}")
    Path(path).write_text(_dump(_complex_out(m)), encoding="utf-8")


def load_matrix(path) -> np.ndarray:
    return _complex_in(_parse(path), 2, "matrix")


def load_observable(path, eps: float = DEFAULT_EPS) -> SpectralForm:
    """Read an observable file: a Hermitian matrix or an explicit spectral form,
    given by a basis with ranks or by dense projectors.

    Raises:
        ModelFormatError: malformed file, non-Hermitian matrix, or invalid
            spectral form.
    """
    doc = _parse(path)
    if isinstance(doc, dict):
        sf = _spectral_in(doc, "observable", None, eps)
        try:
            sf.validate(eps)
        except ValueError as exc:
            raise ModelFormatError(f"observable: {exc}") from exc
        return sf
    matrix = _complex_in(doc, 2, "observable")
    try:
        return spectral_decompose(matrix, eps)
    except ValueError as exc:
        raise ModelFormatError(f"observable: {exc}") from exc
