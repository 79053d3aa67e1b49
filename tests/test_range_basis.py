"""Spectral forms held as range bases: parity with the dense-stack checks they replaced.

The checks of the version that held each spectral form as a dense
(outcomes, dim, dim) projector stack are kept here as references, fed with
the model's dense projectors: the batched-eigh calibration, the dynamical
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

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_properties import MAX_JOINT_DIM, NEGATIVE, POSITIVE, _model

from unimeas.branches import check_prc
from unimeas.linalg import stack_defect, sum_defect, uniform_ket, validate_hermitian
from unimeas.measurement import build_canonical_model, check_calibration, check_dynamical
from unimeas.modelio import load_model, save_model
from unimeas.rand import perturb_model, rand_ket, swap_pointer, with_redundant_pointer
from unimeas.spectral import DEGENERACY_TOL, SpectralForm, _ranges, spectral_decompose

TOL = 1e-9
RESIDUAL_TOL = 1e-12
ROOT = Path(__file__).resolve().parents[1]
DENSE_FILES = sorted((Path(__file__).parent / "data").glob("dense_*.json"))


# --- the dense-stack references -------------------------------------------------------


def dense_sector(f: np.ndarray, k, states: np.ndarray) -> np.ndarray:
    """I_A (x) F_k from the dense pointer stack f; a slice of outcomes adds a leading axis."""
    f_k = f[k]
    dim_b = f_k.shape[-1]
    sectors = states.reshape(len(states) // dim_b, dim_b, -1)
    return (f_k[..., None, :, :] @ sectors).reshape(f_k.shape[:-2] + states.shape)


def lifted_pointer(model, k) -> np.ndarray:
    """Dense I_A (x) F_k of shape (dim, dim): the joint-space reference for F_k, dim^2 memory."""
    return np.kron(np.eye(model.dim_a), model.pointer.projectors[k])


def dense_report(residuals, eps, column, columns=None):
    """(passed, per-outcome residuals, witness) from per-column residuals; with `columns`,
    only its True entries are columns, numbered from 0 along each row."""
    above = np.argwhere(~(residuals <= eps))
    witness = None
    if above.size:
        k, i = above[0]
        j = i if columns is None else np.count_nonzero(columns[k, :i])
        witness = f"outcome {k}, {column} {j}: residual {residuals[k, i]:.3e}"
    per_outcome = np.max(residuals, axis=1)
    return float(np.max(per_outcome)) <= eps, per_outcome, witness


def dense_calibration(e, f, w, eps=TOL):
    """Range bases from one batched eigh of the object stack e, then F_k W B_k = W B_k."""
    bad = stack_defect(e, eps)
    if bad is not None:
        raise ValueError(f"projector {bad[1]}")
    in_range, vecs = _ranges(e)
    finals = vecs.transpose(0, 2, 1)[in_range] @ w.T
    ends = np.cumsum(in_range.sum(axis=1)).tolist()
    pointed = np.concatenate([
        dense_sector(f, k, finals[start:end].T).T
        for k, (start, end) in enumerate(zip([0] + ends, ends))
    ])
    residuals = np.zeros(in_range.shape)
    residuals[in_range] = np.linalg.norm(pointed - finals, axis=1)
    return dense_report(residuals, eps, "range basis vector", in_range)


def dense_dynamical(e, f, w, eps=TOL):
    residuals = np.array([
        np.linalg.norm(dense_sector(f, k, w) - w @ e_k, axis=0) for k, e_k in enumerate(e)
    ])
    return dense_report(residuals, eps, "basis vector")


def dense_prc(e, f, w, phi, eps=TOL):
    final = w @ phi
    branches = np.ascontiguousarray(dense_sector(f, slice(None), final).T)
    pointer_probs = (final.conj() @ branches).real
    object_probs = ((e @ phi) @ phi.conj()).real
    residuals = np.abs(pointer_probs - object_probs)
    above = np.flatnonzero(~(residuals <= eps))
    witness = None
    if above.size:
        k = int(above[0])
        witness = (
            f"outcome {k}: pointer probability {pointer_probs[k]:.12g} "
            f"vs object probability {object_probs[k]:.12g}"
        )
    return float(np.max(residuals)) <= eps, residuals, witness


def dense_validate(eigenvalues, e, eps=TOL):
    """Finite eigenvalues, projectors, pairwise orthogonality, completeness, distinctness."""
    if not np.all(np.isfinite(eigenvalues)):
        raise ValueError("eigenvalues must be finite")
    bad = stack_defect(e, eps, idempotent=True)
    if bad is not None:
        raise ValueError(f"projector {bad[0]} {bad[1]}")
    for k in range(len(e) - 1):
        overlap = abs(e[k] @ e[k + 1 :]).max(axis=(1, 2))
        if overlap.max() > eps:
            raise ValueError(f"projectors {k} and {k + 1 + int(np.argmax(overlap > eps))} are not orthogonal")
    residual = sum_defect(e, np.eye(e.shape[1]))
    if not residual <= eps:
        raise ValueError(f"projectors do not sum to identity (residual {residual:.3e})")
    if len(set(eigenvalues.tolist())) < len(eigenvalues):
        raise ValueError("eigenvalues are not distinct")


def dense_decompose(h, eps=TOL):
    """(eigenvalues, projector stack): eigh blocks multiplied out, descending eigenvalues."""
    h = validate_hermitian(h, eps, "observable")
    vals, vecs = np.linalg.eigh((h + h.conj().T) / 2.0)
    cuts = [vals.size, *(np.flatnonzero(np.diff(vals) > DEGENERACY_TOL) + 1).tolist()[::-1], 0]
    blocks = [vecs[:, cuts[j + 1] : cuts[j]] for j in range(len(cuts) - 1)]
    means = [vals[cuts[j + 1] : cuts[j]].mean() for j in range(len(cuts) - 1)]
    return np.array(means), np.array([b @ b.conj().T for b in blocks])


# --- comparison -----------------------------------------------------------------------


def _outcome(call) -> str | None:
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


def assert_same(report, reference):
    passed, residuals, witness = reference
    assert report.passed == passed
    assert report.witness == witness
    np.testing.assert_allclose(report.per_outcome_residuals, residuals, rtol=0, atol=RESIDUAL_TOL)


def assert_checks_match(model, e, f, w, phi):
    """Calibration, dynamical and prc of the model against the references on dense arrays."""
    assert_same(check_calibration(model, TOL), dense_calibration(e, f, w))
    assert_same(check_dynamical(model, TOL), dense_dynamical(e, f, w))
    assert_same(check_prc(model, phi, TOL), dense_prc(e, f, w, phi))


def assert_model_matches(model, phi):
    e, f = model.observable.projectors, model.pointer.projectors
    assert_checks_match(model, e, f, model.isometry, phi)
    for sf, stack in ((model.observable, e), (model.pointer, f)):
        assert _outcome(lambda: sf.validate(TOL)) is None
        assert _outcome(lambda: dense_validate(sf.eigenvalues, stack)) is None


# --- the benchmark zoo and the hypothesis zoo ------------------------------------------


def _zoo_verify():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module.ZooVerify


@pytest.mark.parametrize("seed", range(6))
def test_zoo_verify_parity(seed, tmp_path):
    """Every model of the benchmark's zoo, built as its op builds it."""
    zoo = _zoo_verify()(seed, tmp_path)
    for inp in zoo.inputs:
        sf = spectral_decompose(inp.h, TOL)
        vals, stack = dense_decompose(inp.h)
        np.testing.assert_allclose(sf.eigenvalues, vals, rtol=0, atol=RESIDUAL_TOL)
        np.testing.assert_allclose(sf.projectors, stack, rtol=0, atol=RESIDUAL_TOL)
        model = build_canonical_model(sf)
        if inp.variant == "redundant":
            model = with_redundant_pointer(model, 2, np.random.default_rng(inp.seed))
        elif inp.variant == "perturbed":
            model = perturb_model(model, np.random.default_rng(inp.seed))
        elif inp.variant == "swapped":
            model = swap_pointer(model)
        assert_model_matches(model, inp.phi)
        assert check_calibration(model, TOL).passed == (inp.variant in zoo.POSITIVE)


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(
    dim_a=st.integers(2, 16),
    variant=st.sampled_from(POSITIVE + NEGATIVE),
    seed=st.integers(0, 2**32 - 1),
)
def test_hypothesis_zoo_parity(dim_a, variant, seed):
    assume(dim_a * dim_a * (2 if variant == "redundant" else 1) <= MAX_JOINT_DIM)
    rng = np.random.default_rng(seed)
    model = _model(dim_a, variant, rng)
    assert_model_matches(model, rand_ket(dim_a, rng))


@pytest.mark.parametrize("scale,passes", [(1e-6, False), (1e-13, True)])
def test_validate_verdicts_on_a_disturbed_basis(rng, scale, passes):
    """A basis off unitary by `scale` fails or passes validate as its projectors fail or
    pass the dense validation."""
    sf = _model(6, "degenerate", rng).observable
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
