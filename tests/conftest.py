from __future__ import annotations

import numpy as np
import pytest

from unimeas.measurement import build_canonical_model
from unimeas.modelio import model_to_document
from unimeas.spectral import spectral_decompose


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def controlled_shift():
    """Dense reference for canonical models: observable -> U = sum_k E_k (x) S^k.

    S|j> = |j+1 mod n> on the n-outcome pointer. The library never forms U;
    tests compare its isometry W with U's initial-subspace columns.
    """

    def build(observable) -> np.ndarray:
        shift = np.roll(np.eye(observable.outcomes), 1, axis=0)
        return sum(
            np.kron(e_k, np.linalg.matrix_power(shift, k))
            for k, e_k in enumerate(observable.projectors)
        )

    return build


@pytest.fixture
def dense_document():
    """model -> its document with each spectral form as dense projectors, as earlier versions wrote it."""

    def build(model) -> dict:
        doc = model_to_document(model)
        for name in ("observable", "pointer"):
            sf = getattr(model, name)
            e = sf.projectors
            doc[name] = {
                "eigenvalues": sf.eigenvalues.tolist(),
                "projectors": np.stack([e.real, e.imag], -1).tolist(),
            }
        return doc

    return build


@pytest.fixture
def outcome_mismatch_document() -> dict:
    """A model document with 2 object and 3 pointer outcomes, every field valid on its own:
    a qubit Z observable, the canonical 3-outcome pointer, |0> and W e_a = e_a (x) |a>."""
    three = build_canonical_model(spectral_decompose(np.diag([1.0, 2.0, 3.0])))
    doc = model_to_document(build_canonical_model(spectral_decompose(np.diag([1.0, -1.0]))))
    w = np.zeros((6, 2), dtype=complex)
    w[0, 0] = w[4, 1] = 1.0
    doc.update(
        dim_b=3,
        pointer=model_to_document(three)["pointer"],
        instrument_state=model_to_document(three)["instrument_state"],
        isometry=np.stack([w.real, w.imag], -1).tolist(),
    )
    return doc
