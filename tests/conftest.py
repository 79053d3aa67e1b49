from __future__ import annotations

import numpy as np
import pytest

from unimeas.modelio import model_to_document


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
