"""Projectors as one (outcomes, dim, dim) stack: construction, batched checks, parity.

The batched validators and the batched calibration check are compared with
the per-projector loops they replaced, kept here as references (as
lifted_pointer is kept for apply_pointer): equal verdicts, equal witness
and error strings, and residuals within 1e-14, a bound set by complex128
rounding of the same products taken in a different grouping.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from unimeas.linalg import projector_stack, validate_projector, validate_projector_stack
from unimeas.measurement import MeasurementModel, check_calibration
from unimeas.rand import (
    perturb_model,
    rand_hermitian,
    rand_model,
    rand_unitary,
    swap_pointer,
    with_redundant_pointer,
)
from unimeas.spectral import SpectralForm, range_basis, refine, spectral_decompose

RESIDUAL_TOL = 1e-14
VARIANTS = ("plain", "degenerate", "redundant", "perturbed", "swapped")
DIMS = (2, 3, 4, 5, 6, 7, 8, 16, 32)


def loop_validate_projectors(projectors, dim, eps=1e-9, label="projector"):
    """projector_stack and validate_projector_stack as one check per projector, then one
    product per pair; every shape is checked before any content."""
    for k, p in enumerate(projectors):
        if p.shape != (dim, dim):
            raise ValueError(f"{label} {k} has shape {p.shape}, expected {(dim, dim)}")
    for k, p in enumerate(projectors):
        validate_projector(p, eps, f"{label} {k}")
    for k in range(len(projectors)):
        for kp in range(k + 1, len(projectors)):
            if np.max(np.abs(projectors[k] @ projectors[kp])) > eps:
                raise ValueError(f"{label}s {k} and {kp} are not orthogonal")


def loop_calibration(model: MeasurementModel, eps: float = 1e-9):
    """(per-outcome residuals, witness) of check_calibration, one range_basis per outcome."""
    column_residuals = []
    for k in range(model.outcomes):
        basis = range_basis(model.observable.projectors[k], eps)
        if not basis:
            column_residuals.append(np.zeros(0))
            continue
        finals = model.isometry @ np.column_stack(basis)
        column_residuals.append(
            np.linalg.norm(model._pointer_sector(k, finals) - finals, axis=0)
        )
    residuals = np.array([np.max(r, initial=0.0) for r in column_residuals])
    for k, r in enumerate(column_residuals):
        above = np.flatnonzero(~(r <= eps))
        if above.size:
            j = int(above[0])
            return residuals, f"outcome {k}, range basis vector {j}: residual {r[j]:.3e}"
    return residuals, None


def zoo_model(variant: str, dim: int, rng: np.random.Generator) -> MeasurementModel:
    if variant == "degenerate":
        k = int(rng.integers(2, dim)) if dim > 2 else 1
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


def rotated_instrument(model: MeasurementModel, rng: np.random.Generator) -> MeasurementModel:
    """The model in a random complex instrument basis V: F_k -> V F_k V^dag, W -> (I (x) V) W."""
    v = rand_unitary(model.dim_b, rng)
    w = v @ model.isometry.reshape(model.dim_a, model.dim_b, model.dim_a)
    return dataclasses.replace(
        model,
        pointer=SpectralForm(model.pointer.eigenvalues, v @ model.pointer.projectors @ v.conj().T),
        instrument_state=v @ model.instrument_state,
        isometry=w.reshape(model.dim, model.dim_a),
    )


ZOO = [(v, d, seed) for v in VARIANTS for d in DIMS for seed in range(2)]


def _zoo(variant, dim, seed):
    return zoo_model(variant, dim, np.random.default_rng([VARIANTS.index(variant), dim, seed]))


def _outcome(call) -> str | None:
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


def _corruptions(mats: list[np.ndarray], rng: np.random.Generator):
    """The stack as is, and copies with one defect each at a random projector."""
    n, d = len(mats), mats[0].shape[0]
    k = int(rng.integers(n))
    yield mats
    for name in ("idempotent", "hermitian", "scale", "nan", "duplicate"):
        bad = [np.array(p) for p in mats]
        if name == "idempotent":
            bad[k] = bad[k] + 1e-6 * rand_hermitian(d, rng)
        elif name == "hermitian":
            bad[k] = bad[k] + 1e-6 * rng.normal(size=(d, d))
        elif name == "scale":  # a defect near eps, where rounding decides
            bad[k] = bad[k] + 1e-9 * rand_hermitian(d, rng)
        elif name == "nan":
            bad[k][0, d - 1] = np.nan
        elif n > 1:
            bad[k] = bad[(k + 1) % n]
        yield bad


class TestLoopParity:
    @pytest.mark.parametrize("variant,dim,seed", ZOO)
    def test_validate_projectors(self, variant, dim, seed):
        model = _zoo(variant, dim, seed)
        rng = np.random.default_rng([dim, seed])
        for sf in (model.observable, model.pointer):
            for mats in _corruptions(list(sf.projectors), rng):
                batched = _outcome(
                    lambda: validate_projector_stack(projector_stack(mats, dim=sf.dim))
                )
                assert batched == _outcome(lambda: loop_validate_projectors(mats, sf.dim))

    @pytest.mark.parametrize("variant,dim,seed", ZOO)
    def test_calibration(self, variant, dim, seed):
        model = _zoo(variant, dim, seed)
        assert check_calibration(model).passed == (variant in ("plain", "degenerate", "redundant"))
        w = np.array(model.isometry)
        w[dim // 2, 0] = np.nan
        rotated = rotated_instrument(model, np.random.default_rng([dim, seed]))
        for m in (model, dataclasses.replace(model, isometry=w), rotated):
            report = check_calibration(m)
            residuals, witness = loop_calibration(m)
            assert report.witness == witness
            assert report.passed == (witness is None)
            np.testing.assert_allclose(report.per_outcome_residuals, residuals, rtol=0, atol=RESIDUAL_TOL)
            assert report.max_residual == pytest.approx(np.max(residuals), rel=0, abs=RESIDUAL_TOL, nan_ok=True)

    @pytest.mark.parametrize("mutate", ["nan", "hermitian"])
    def test_calibration_errors(self, mutate):
        model = _zoo("plain", 4, 0)
        e = np.array(model.observable.projectors)
        e[2, 0, 1] = np.nan if mutate == "nan" else 1e-3
        e[3, 1, 0] = np.nan  # a later defect is not the one reported
        bad = dataclasses.replace(model, observable=SpectralForm(model.observable.eigenvalues, e))
        with pytest.raises(ValueError) as batched:
            check_calibration(bad)
        with pytest.raises(ValueError) as loop:
            loop_calibration(bad)
        assert str(batched.value) == str(loop.value)


class TestCalibrationMemory:
    def test_peak_is_a_few_isometries(self):
        """A degenerate observable and a large pointer: F_k is applied per outcome, not gathered
        per range vector (that would be dim_a * dim_b^2 entries, here 32 MB)."""
        rng = np.random.default_rng(5)
        model = with_redundant_pointer(rand_model(32, rng, [16, 16]), 128, rng)
        assert model.dim_b == 256
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            check_calibration(model)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4 * (model.isometry.nbytes + model.pointer.projectors.nbytes)


class TestFirstFailure:
    """A batched validator still reports the first failing item."""

    def test_not_idempotent_before_later_not_hermitian(self):
        p0 = np.diag([1.0, 0.5, 0.0])
        p1 = np.diag([0.0, 1.0, 0.0])
        p1[0, 2] = 1.0
        with pytest.raises(ValueError, match=r"^projector 0 is not idempotent$"):
            validate_projector_stack(projector_stack([p0, p1, np.eye(3)], dim=3))

    @pytest.mark.parametrize(
        "diagonals,pair",
        [
            ([[1, 0, 0], [0, 1, 0], [1, 1, 0]], "0 and 2"),  # (0, 2) and (1, 2) overlap
            ([[1, 1, 0], [1, 0, 0], [0, 1, 0]], "0 and 1"),  # (0, 1) and (0, 2) overlap
        ],
    )
    def test_first_non_orthogonal_pair(self, diagonals, pair):
        projectors = [np.diag(np.array(d, dtype=float)) for d in diagonals]
        with pytest.raises(ValueError, match=rf"^projectors {pair} are not orthogonal$"):
            validate_projector_stack(projector_stack(projectors, dim=3))

    def test_first_equal_eigenvalue_pair(self):
        sf = SpectralForm(np.array([1.0, 2.0, 1.0, 2.0]), np.eye(4)[:, None] * np.eye(4)[:, :, None])
        with pytest.raises(ValueError, match=r"^eigenvalues 0 and 2 are equal \(1\.0\)$"):
            sf.validate()

    def test_defect_before_later_wrong_shape(self):
        """Every sub-projector's shape is checked before any content."""
        with pytest.raises(ValueError, match=r"^sub-projector 1 has shape \(3, 3\), expected \(2, 2\)$"):
            refine(spectral_decompose(np.eye(2)), 0, [np.eye(2) * 0.5, np.eye(3)])


class TestStackConstruction:
    def test_projectors_are_one_read_only_stack(self):
        sf = spectral_decompose(np.diag([1.0, 2.0, 2.0]))
        assert isinstance(sf.projectors, np.ndarray)
        assert sf.projectors.shape == (2, 3, 3) and sf.projectors.dtype == np.complex128
        assert not sf.projectors.flags.writeable
        assert len(sf.projectors) == 2
        np.testing.assert_array_equal(list(sf.projectors)[1], sf.projectors[1])

    def test_tuple_and_stack_give_equal_forms(self):
        mats = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        a = SpectralForm(np.array([1.0, -1.0]), mats)
        b = SpectralForm(np.array([1.0, -1.0]), np.stack(mats))
        np.testing.assert_array_equal(a.projectors, b.projectors)

    def test_stack_is_a_copy(self):
        mats = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
        sf = SpectralForm(np.array([1.0, -1.0]), mats)
        mats[0, 0, 0] = 5.0
        assert sf.projectors[0, 0, 0] == 1.0

    @pytest.mark.parametrize(
        "projectors,message",
        [
            ((np.array(1.0),), r"^projector 0 must be a non-empty square matrix, got shape \(\)$"),
            ((np.zeros((0, 0)),), r"^projector 0 must be a non-empty square matrix, got shape \(0, 0\)$"),
            ((np.eye(2), np.zeros((2, 3))), r"^projector 1 must be a non-empty square matrix, got shape \(2, 3\)$"),
            ((np.eye(2), np.ones(2)), r"^projector 1 must be a non-empty square matrix, got shape \(2,\)$"),
            ((np.eye(3), np.eye(2)), r"^projector 1 has shape \(2, 2\), expected \(3, 3\)$"),
        ],
    )
    def test_malformed_refused_naming_index(self, projectors, message):
        with pytest.raises(ValueError, match=message):
            SpectralForm(np.arange(len(projectors), dtype=float), projectors)

    def test_scalar_eigenvalue_validates(self):
        SpectralForm(np.float64(1.0), (np.eye(2),)).validate()

    def test_reconstruct_matches_weighted_sum(self, rng):
        h = rand_hermitian(6, rng)
        sf = spectral_decompose(h)
        expected = sum(v * p for v, p in zip(sf.eigenvalues, sf.projectors))
        np.testing.assert_allclose(sf.reconstruct(), expected, rtol=0, atol=1e-14)
        np.testing.assert_allclose(sf.reconstruct(), h, rtol=0, atol=1e-12)
