"""Spectral forms held as range bases: parity with the dense-stack checks they replaced.

The checks of the version that held each spectral form as a dense
(outcomes, dim, dim) projector stack are kept in support as references, fed
with the model's dense projectors: the batched-eigh calibration, the dynamical
check with W E_k, probability reproducibility through the pointer branches,
spectral validation with the pairwise and completeness loops, and the
eigh-block spectral decomposition. On the benchmark's zoo (ZooVerify seeds
0-5) and on the hypothesis zoo, the basis checks give the same verdicts and
witnesses, with residuals within 1e-12.

tests/data/dense_*.json were written by that version (dense "projectors" in
each spectral form) from rand seeded with 2015: a plain, a degenerate
([1, 3]), a redundant-pointer, a perturbed and a swapped model. They load to
the reference verdicts and are saved again with bases, the isometry
bit-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import seed
from support import (
    DENSE_RESIDUAL_TOL,
    TOL,
    ZOO_EXAMPLES,
    ZOO_SETTINGS,
    _outcome,
    assert_checks_match,
    assert_model_matches,
    bench_workloads,
    dense_decompose,
    dense_validate,
    hypothesis_zoo_model,
    zoo_model,
)

from unimeas.linalg import uniform_ket
from unimeas.measurement import build_canonical_model, check_calibration
from unimeas.modelio import load_model, save_model
from unimeas.rand import perturb_model, rand_ket, swap_pointer, with_redundant_pointer
from unimeas.spectral import SpectralForm, spectral_decompose

DENSE_FILES = sorted((Path(__file__).parent / "data").glob("dense_*.json"))


# --- the benchmark zoo and the hypothesis zoo ------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_zoo_verify_parity(seed, tmp_path):
    """Every model of the benchmark's zoo, built as its op builds it."""
    zoo = bench_workloads().ZooVerify(seed, tmp_path)
    for inp in zoo.inputs:
        sf = spectral_decompose(inp.h, TOL)
        vals, stack = dense_decompose(inp.h)
        np.testing.assert_allclose(sf.eigenvalues, vals, rtol=0, atol=DENSE_RESIDUAL_TOL)
        np.testing.assert_allclose(sf.projectors, stack, rtol=0, atol=DENSE_RESIDUAL_TOL)
        model = build_canonical_model(sf)
        if inp.variant == "redundant":
            model = with_redundant_pointer(model, 2, np.random.default_rng(inp.seed))
        elif inp.variant == "perturbed":
            model = perturb_model(model, np.random.default_rng(inp.seed))
        elif inp.variant == "swapped":
            model = swap_pointer(model)
        assert_model_matches(model, inp.phi)
        assert check_calibration(model, TOL).passed == (inp.variant in zoo.POSITIVE)


@seed(0x60bada30a90f9c59fb1fcce7e493cc5d56ca24acbdd8075335667989d7efc2ee3f62229cd354aca726466b995f3dcf9d)
@ZOO_SETTINGS
@ZOO_EXAMPLES
def test_hypothesis_zoo_parity(dim_a, variant, seed):
    model, rng = hypothesis_zoo_model(dim_a, variant, seed)
    assert_model_matches(model, rand_ket(dim_a, rng))


@pytest.mark.parametrize("scale,passes", [(1e-6, False), (1e-13, True)])
def test_validate_verdicts_on_a_disturbed_basis(rng, scale, passes):
    """A basis off unitary by `scale` fails or passes validate as its projectors fail or
    pass the dense validation."""
    sf = zoo_model("degenerate", 6, rng).observable
    basis = sf.basis + scale * (rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    disturbed = SpectralForm(sf.eigenvalues, sf.ranks, basis)
    assert (_outcome(lambda: disturbed.validate(TOL)) is None) == passes
    assert (_outcome(lambda: dense_validate(sf.eigenvalues, disturbed.projectors)) is None) == passes


# --- model files with dense projectors ---------------------------------------------------


def _dense_arrays(doc):
    def cplx(node):
        return np.array(node, dtype=np.float64).view(np.complex128)[..., 0]

    return (
        cplx(doc["observable"]["projectors"]),
        cplx(doc["pointer"]["projectors"]),
        cplx(doc["isometry"]),
    )


def test_dense_fixtures_cover_the_variants():
    assert [p.stem for p in DENSE_FILES] == [
        "dense_degenerate", "dense_perturbed", "dense_plain", "dense_redundant", "dense_swapped"
    ]


@pytest.mark.parametrize("path", DENSE_FILES, ids=lambda p: p.stem)
def test_dense_file_loads_to_reference_verdicts_and_saves_with_bases(path, tmp_path):
    doc = json.loads(path.read_text())
    assert set(doc["observable"]) == set(doc["pointer"]) == {"eigenvalues", "projectors"}
    e, f, w = _dense_arrays(doc)
    model = load_model(path)
    phi = uniform_ket(model.dim_a)
    assert_checks_match(model, e, f, w, phi)
    assert model.isometry.tobytes() == w.tobytes()

    again = tmp_path / "again.json"
    save_model(model, again)
    saved = json.loads(again.read_text())
    for name in ("observable", "pointer"):
        assert set(saved[name]) == {"eigenvalues", "ranks", "basis"}
        assert saved[name]["eigenvalues"] == doc[name]["eigenvalues"]
    # the isometry's text, signed zeros included, is written back unchanged
    assert json.dumps(saved["isometry"]) == json.dumps(doc["isometry"])
    reloaded = load_model(again)
    assert_checks_match(reloaded, e, f, w, phi)
    third = tmp_path / "third.json"
    save_model(reloaded, third)
    assert third.read_bytes() == again.read_bytes()
