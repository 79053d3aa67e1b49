"""What the test modules share: the model zoo, the benchmark's workloads, and two reference
families the checks are compared with, kept as separate code paths: the dense-stack references
(within 1e-12) and the loop references (within 1e-14, the rounding of the same complex128
products taken in another grouping)."""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from unimeas.branches import check_prc
from unimeas.linalg import stack_defect, sum_defect, validate_hermitian, validate_projector
from unimeas.measurement import MeasurementModel, build_canonical_model, check_calibration, check_dynamical
from unimeas.rand import perturb_model, rand_model, rand_unitary, swap_pointer, with_redundant_pointer
from unimeas.spectral import DEGENERACY_TOL, SpectralForm, _ranges, range_basis, spectral_decompose

TOL = 1e-9
DENSE_RESIDUAL_TOL = 1e-12
LOOP_RESIDUAL_TOL = 1e-14
ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"


# --- the model zoo ----------------------------------------------------------------------

POSITIVE = ("plain", "degenerate", "redundant")
NEGATIVE = ("perturbed", "swapped")
VARIANTS = POSITIVE + NEGATIVE
# the canonical instrument has one dimension per outcome, doubled by a redundant factor
MAX_JOINT_DIM = 256


def z_model() -> MeasurementModel:
    """The canonical model of the qubit observable diag(1, -1)."""
    return build_canonical_model(spectral_decompose(np.diag([1.0, -1.0])))


def zoo_model(variant: str, dim: int, rng: np.random.Generator) -> MeasurementModel:
    """A seeded model as the benchmark zoo makes it: a plain or degenerate (1 to dim - 1 outcomes)
    canonical model, a redundant (uncoupled) pointer factor, a perturbed isometry or a swapped
    pointer; a one-outcome model is never swapped."""
    if variant == "degenerate":
        k = int(rng.integers(1, dim))
        cuts = np.sort(rng.choice(np.arange(1, dim), size=k - 1, replace=False))
        model = rand_model(dim, rng, np.diff(np.concatenate(([0], cuts, [dim]))).tolist())
    else:
        model = rand_model(dim, rng)
    if variant == "redundant":
        return with_redundant_pointer(model, 2, rng)
    if variant == "perturbed":
        return perturb_model(model, rng)
    if variant == "swapped" and model.outcomes > 1:
        return swap_pointer(model)
    return model


# The hypothesis zoo. Its tests pin hypothesis's seed with @seed: derandomize=True alone derives
# it from the test's source, so that editing the test's body would change the models it draws.
ZOO_SETTINGS = settings(derandomize=True, deadline=None, max_examples=40, database=None)
ZOO_EXAMPLES = given(
    dim_a=st.integers(2, 16),
    variant=st.sampled_from(VARIANTS),
    seed=st.integers(0, 2**32 - 1),
)


def hypothesis_zoo_model(dim_a: int, variant: str, seed: int):
    """(model, the rng that built it) of a hypothesis zoo example; one above MAX_JOINT_DIM is rejected."""
    assume(dim_a * dim_a * (2 if variant == "redundant" else 1) <= MAX_JOINT_DIM)
    rng = np.random.default_rng(seed)
    return zoo_model(variant, dim_a, rng), rng


def rotated_instrument(model: MeasurementModel, rng: np.random.Generator) -> MeasurementModel:
    """The model in a random complex instrument basis V: F_k -> V F_k V^dag, W -> (I (x) V) W."""
    v = rand_unitary(model.dim_b, rng)
    w = v @ model.isometry.reshape(model.dim_a, model.dim_b, model.dim_a)
    p = model.pointer
    return dataclasses.replace(
        model,
        pointer=SpectralForm(p.eigenvalues, p.ranks, v @ p.basis),
        instrument_state=v @ model.instrument_state,
        isometry=w.reshape(model.dim, model.dim_a),
    )


def set_entry(doc, path, value) -> None:
    """Replace the entry of a nested document at path, a sequence of keys and indices."""
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def bench_workloads():
    """perfbench/workloads.py as a module, loaded from its file: perfbench is not a package."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


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


# --- the loop references ----------------------------------------------------------------


def loop_validate_projectors(projectors, dim, eps=TOL, label="projector"):
    """The projector checks of from_projectors as one check per projector, then one
    product of range bases per pair; every shape is checked before any content.

    Pairs are compared through their range bases, max |B_k^dag B_k'|, as
    from_projectors reads them from the Gram matrix. Earlier versions took
    max |E_k E_k'|, which differs from it near eps when a projector is only
    idempotent within about eps (the "scale" corruption).
    """
    for k, p in enumerate(projectors):
        if p.shape != (dim, dim):
            raise ValueError(f"{label} {k} has shape {p.shape}, expected {(dim, dim)}")
    for k, p in enumerate(projectors):
        validate_projector(p, eps, f"{label} {k}")
    bases = [range_basis(p, eps) for p in projectors]
    for k, basis in enumerate(bases):
        if not basis:
            raise ValueError(f"{label} {k} is zero")
    for k in range(len(bases)):
        for kp in range(k + 1, len(bases)):
            if np.max(np.abs(np.column_stack(bases[k]).conj().T @ np.column_stack(bases[kp]))) > eps:
                raise ValueError(f"{label}s {k} and {kp} are not orthogonal")


def loop_calibration(model: MeasurementModel, eps: float = TOL):
    """(per-outcome residuals, witness) of check_calibration, one range_basis per outcome,
    the pointer projectors applied as dense matrices."""
    column_residuals = []
    for k in range(model.outcomes):
        basis = range_basis(model.observable.projectors[k], eps)
        if not basis:
            column_residuals.append(np.zeros(0))
            continue
        finals = model.isometry @ np.column_stack(basis)
        column_residuals.append(
            np.linalg.norm(dense_sector(model.pointer.projectors, k, finals) - finals, axis=0)
        )
    residuals = np.array([np.max(r, initial=0.0) for r in column_residuals])
    for k, r in enumerate(column_residuals):
        above = np.flatnonzero(~(r <= eps))
        if above.size:
            j = int(above[0])
            return residuals, f"outcome {k}, range basis vector {j}: residual {r[j]:.3e}"
    return residuals, None


# --- comparison -----------------------------------------------------------------------


def _outcome(call) -> str | None:
    """The message of the ValueError call raises, or None when it returns."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


def assert_same(report, reference):
    passed, residuals, witness = reference
    assert report.passed == passed
    assert report.witness == witness
    np.testing.assert_allclose(report.per_outcome_residuals, residuals, rtol=0, atol=DENSE_RESIDUAL_TOL)


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
