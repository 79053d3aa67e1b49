"""Every public entry point rejects input it cannot give a meaningful number for.

Linear maps accept any finite vector of the right shape; functions that
return probabilities also require a unit vector. A failing check report
always names a witness, also when its residual is nan.
"""

from __future__ import annotations

import dataclasses
import inspect
import re

import numpy as np
import pytest
from support import lifted_pointer, set_entry, z_model

from unimeas.branches import (
    BranchDecomposition,
    check_prc,
    decompose_final,
    decompose_initial,
    evolve_branch,
    verify,
)
from unimeas.collapse import OutcomeDistribution, SampleReport, final_density, sample
from unimeas.linalg import (
    basis_ket,
    density_eigh,
    ket,
    projector_stack,
    uniform_ket,
    validate_projector,
)
from unimeas.measurement import (
    CheckReport,
    MeasurementModel,
    build_canonical_model,
    check_calibration,
    check_dynamical,
    premeasure,
)
from unimeas.mixed import Purification, mixed_probability
from unimeas.modelio import model_from_document, model_to_document
from unimeas.probability import born_form, expectation_form, forms_triple, trace_form
from unimeas.rand import (
    perturb_model,
    rand_ket,
    rand_model,
    rand_observable,
    rand_projector,
    swap_pointer,
    with_redundant_pointer,
)
from unimeas.spectral import SpectralForm, from_projectors, range_basis, refine, spectral_decompose

MODEL = z_model()
ONE_OUTCOME = build_canonical_model(spectral_decompose(np.eye(2)))  # dim_b 1
NAN_STATE = np.array([np.nan, 0.0])
UNNORMALIZED = np.array([3.0, 4.0])
P0 = np.diag([1.0, 0.0])
E0 = [np.array([1.0, 0.0])]

THREE = build_canonical_model(spectral_decompose(np.diag([1.0, 2.0, 3.0])))
# every eigenvalue is >= -eps, but their negative part sums to -8.91e-8: density_eigh
# refuses it, so mixed_probability never sees the purified route drop what the trace route counts
ALMOST_PSD = np.diag([1.0 + 99 * 0.9e-9] + [-0.9e-9] * 99)


def _document(path, value) -> dict:
    """MODEL's document with the entry at path replaced, as a caller assembling one in memory may."""
    doc = model_to_document(MODEL)
    set_entry(doc, path, value)
    return doc


def _with_isometry(w) -> MeasurementModel:
    """MODEL's fields with the isometry w, as a caller assembling a model may."""
    return MeasurementModel(MODEL.observable, MODEL.pointer, MODEL.instrument_state, w)


def _exactly(message: str) -> str:
    """A pattern matching the whole of message; for messages holding a repr, which varies by numpy version."""
    return "^" + re.escape(message) + "$"


# probe name -> (call, fragment of the expected message)
PROBES = {
    "premeasure-nan": (lambda: premeasure(MODEL, NAN_STATE), "non-finite"),
    "evolve_branch-nan": (lambda: evolve_branch(MODEL, NAN_STATE, 0), "non-finite"),
    "decompose_initial-nan": (lambda: decompose_initial(NAN_STATE, MODEL.observable), "non-finite"),
    "decompose_final-nan": (lambda: decompose_final(MODEL, NAN_STATE), "non-finite"),
    "final_density-nan": (lambda: final_density(MODEL, NAN_STATE), "non-finite"),
    "check_prc-nan": (lambda: check_prc(MODEL, NAN_STATE), "non-finite"),
    "check_prc-unnormalized": (lambda: check_prc(MODEL, UNNORMALIZED), "norm"),
    # verify is a generator: it raises when its first pair is asked for
    "verify-nan": (lambda: list(verify(MODEL, NAN_STATE)), r"^state contains non-finite amplitudes$"),
    "verify-wrong-shape": (
        lambda: list(verify(MODEL, uniform_ket(3))),
        r"^state has shape \(3,\), expected \(2,\)$",
    ),
    "verify-unnormalized": (lambda: list(verify(MODEL, UNNORMALIZED)), r"^state norm 5\.0 is not 1"),
    "verify-nan-eps": (
        lambda: list(verify(MODEL, uniform_ket(2), float("nan"))),
        r"^tolerance must lie in \(0, 1\), got nan$",
    ),
    "expectation_form-nan": (lambda: expectation_form(NAN_STATE, P0), "non-finite"),
    "expectation_form-unnormalized": (lambda: expectation_form(UNNORMALIZED, P0), "norm"),
    "born_form-nan": (lambda: born_form(NAN_STATE, E0), "non-finite"),
    "born_form-unnormalized": (lambda: born_form(UNNORMALIZED, E0), "norm"),
    "born_form-nan-basis": (lambda: born_form(np.array([1.0, 0.0]), [NAN_STATE]), "not orthonormal"),
    "trace_form-nan": (lambda: trace_form(NAN_STATE, P0), "non-finite"),
    "trace_form-unnormalized": (lambda: trace_form(UNNORMALIZED, P0), "norm"),
    "forms_triple-nan": (lambda: forms_triple(NAN_STATE, P0), "non-finite"),
    "forms_triple-unnormalized": (lambda: forms_triple(UNNORMALIZED, P0), "norm"),
    "range_basis-nan": (lambda: range_basis(np.full((2, 2), np.nan)), "non-finite"),
    "range_basis-not-square": (lambda: range_basis(np.zeros((2, 3))), "must be square"),
    "range_basis-empty": (lambda: range_basis(np.zeros((0, 0))), r"^projector must be non-empty$"),
    "range_basis-not-idempotent": (
        lambda: range_basis(0.7 * np.eye(3)),
        r"^projector is not idempotent$",
    ),
    "range_basis-nan-eps": (
        lambda: range_basis(P0, float("nan")),
        r"^tolerance must lie in \(0, 1\), got nan$",
    ),
    "range_basis-negative-eps": (
        lambda: range_basis(P0, -1.0),
        r"^tolerance must lie in \(0, 1\), got -1\.0$",
    ),
    "spectral_decompose-empty": (
        lambda: spectral_decompose(np.zeros((0, 0))),
        r"^observable must be non-empty$",
    ),
    # finite entries whose modulus, or whose difference from the adjoint's, overflows
    "spectral_decompose-overflowing-modulus": (
        lambda: spectral_decompose(np.array([[1.0, 1.7e308 + 1.7e308j], [1.7e308 - 1.7e308j, 1.0]])),
        r"^observable has eigenvalues beyond the float range$",
    ),
    "spectral_decompose-overflowing-hermiticity-defect": (
        lambda: spectral_decompose(np.array([[0.0, 1.7e308], [-1.7e308, 0.0]])),
        r"^observable is not Hermitian \(defect inf\)$",
    ),
    "validate_projector-empty": (
        lambda: validate_projector(np.zeros((0, 0))),
        r"^projector must be non-empty$",
    ),
    "density_eigh-empty": (
        lambda: density_eigh(np.zeros((0, 0))),
        r"^density operator must be non-empty$",
    ),
    "validate_projectors-empty": (
        lambda: projector_stack([np.zeros((0, 0))], dim=0),
        r"^projector 0 must be a non-empty square matrix, got shape \(0, 0\)$",
    ),
    "evolve_branch-float-index": (
        lambda: evolve_branch(MODEL, np.array([1.0, 0.0]), 1.0),
        r"^outcome index 1\.0 out of range$",
    ),
    "refine-bool-index": (
        lambda: refine(MODEL.observable, True, [P0]),
        r"^outcome index True out of range$",
    ),
    "rank-negative-index": (
        lambda: evolve_branch(MODEL, np.array([1.0, 0.0]), -1),
        r"^outcome index -1 out of range$",
    ),
    "from_projectors-zero": (
        lambda: from_projectors([1.0, 0.0], [np.eye(2), np.zeros((2, 2))]),
        r"^projector 1 is zero$",
    ),
    "refine-zero-sub-projector": (
        lambda: refine(MODEL.observable, 0, [np.zeros((2, 2)), P0]),
        r"^sub-projector 0 is zero$",
    ),
    "SpectralForm-non-square-basis": (
        lambda: SpectralForm([1.0], [1], np.zeros((2, 3))),
        r"^basis must be a non-empty square matrix, got shape \(2, 3\)$",
    ),
    "sample-no-weight": (
        lambda: sample(OutcomeDistribution([1e-10, 0.0]), 10, 0),
        r"^distribution has no weight above threshold$",
    ),
    "SampleReport-float-counts": (
        lambda: SampleReport([1.9, 2.2], 0),
        r"^counts must be integers, got dtype float64$",
    ),
    "SampleReport-uint64-beyond-int64": (
        lambda: SampleReport(np.array([2**64 - 1], dtype=np.uint64), 0),
        r"^counts must be below 2\*\*63, got 18446744073709551615$",
    ),
    "SampleReport-float-seed": (
        lambda: SampleReport([1, 2], 0.5),
        r"^seed must be a uint64, got 0\.5$",
    ),
    "SampleReport-negative-seed": (
        lambda: SampleReport([1, 2], -1),
        r"^seed must be a uint64, got -1$",
    ),
    "SampleReport-seed-beyond-uint64": (
        lambda: SampleReport([1, 2], 2**64),
        r"^seed must be a uint64, got 18446744073709551616$",
    ),
    "SampleReport-negative-counts": (
        lambda: SampleReport([5, -2], 0),
        r"^counts must be a vector of nonnegative integers$",
    ),
    "SampleReport-2d-counts": (
        lambda: SampleReport([[1, 2]], 0),
        r"^counts must be a vector of nonnegative integers$",
    ),
    "Purification-vector": (
        lambda: Purification(np.ones(4)),
        r"^psi must be a non-empty matrix, got shape \(4,\)$",
    ),
    "Purification-empty": (
        lambda: Purification(np.zeros((2, 0))),
        r"^psi must be a non-empty matrix, got shape \(2, 0\)$",
    ),
    "CheckReport-zero-tolerance": (
        lambda: CheckReport([0.0], 0.0),
        r"^tolerance must lie in \(0, 1\), got 0\.0$",
    ),
    "replace-CheckReport-passed": (
        lambda: dataclasses.replace(CheckReport([5.0], 1e-9), passed=True),
        r"^field passed is declared with init=False, it cannot be specified with replace\(\)$",
    ),
    "CheckReport-empty": (
        lambda: CheckReport([], 1e-9),
        r"^per_outcome_residuals must be non-empty$",
    ),
    "CheckReport-matrix-residuals": (
        lambda: CheckReport([[0.1, 0.2]], 0.5),
        r"^per_outcome_residuals must be a vector, got ndim 2$",
    ),
    "CheckReport-scalar-residual": (
        lambda: CheckReport(0.1, 0.5),
        r"^per_outcome_residuals must be a vector, got ndim 0$",
    ),
    "rand_projector-rank-zero": (
        lambda: rand_projector(2, 0, np.random.default_rng(0)),
        r"^rank must lie in 1\.\.2, got 0$",
    ),
    "rand_observable-multiplicities": (
        lambda: rand_observable(3, np.random.default_rng(0), [1, 1]),
        r"^multiplicities \[1, 1\] do not partition dim 3$",
    ),
    "with_redundant_pointer-zero": (
        lambda: with_redundant_pointer(MODEL, 0, np.random.default_rng(0)),
        r"^extra_dim must be a positive integer, got 0$",
    ),
    "with_redundant_pointer-bool": (
        lambda: with_redundant_pointer(MODEL, True, np.random.default_rng(0)),
        r"^extra_dim must be a positive integer, got True$",
    ),
    "with_redundant_pointer-float": (
        lambda: with_redundant_pointer(MODEL, 2.0, np.random.default_rng(0)),
        r"^extra_dim must be a positive integer, got 2\.0$",
    ),
    "perturb_model-dim-b-1": (
        lambda: perturb_model(ONE_OUTCOME, np.random.default_rng(0)),
        r"^perturbation needs an instrument of dimension >= 2$",
    ),
    "swap_pointer-one-outcome": (
        lambda: swap_pointer(ONE_OUTCOME),
        r"^pointer swap needs at least two outcomes$",
    ),
    "MeasurementModel-outcome-mismatch": (
        lambda: MeasurementModel(MODEL.observable, THREE.pointer, THREE.instrument_state, np.eye(6)[:, :2]),
        r"^observable has 2 outcomes, pointer has 3$",
    ),
    "replace-outcome-mismatch": (
        lambda: dataclasses.replace(MODEL, pointer=THREE.pointer),
        r"^observable has 2 outcomes, pointer has 3$",
    ),
    "MeasurementModel-one-outcome-pointer": (
        lambda: MeasurementModel(
            MODEL.observable, spectral_decompose(np.eye(2)), [1.0, 0.0], np.eye(4)[:, :2]
        ),
        r"^observable has 2 outcomes, pointer has 1$",
    ),
    "mixed_probability-routes-disagree": (
        lambda: mixed_probability(ALMOST_PSD, np.diag([0.0] + [1.0] * 99)),
        r"^density operator has negative eigenvalues summing to -8\.910e-08$",
    ),
    "model_from_document-numpy-float-in-vector": (
        lambda: model_from_document(_document(("instrument_state", 0), [np.float64(1.0), 0.0])),
        _exactly(f"instrument_state[0]: expected a [re, im] pair, got {[np.float64(1.0), 0.0]!r}"),
    ),
    "model_from_document-numpy-float-in-matrix": (
        lambda: model_from_document(_document(("isometry", 1, 0), [0.0, np.float64(0.0)])),
        _exactly(f"isometry[1][0]: expected a [re, im] pair, got {[0.0, np.float64(0.0)]!r}"),
    ),
    "model_from_document-numpy-float-eigenvalue": (
        lambda: model_from_document(_document(("observable", "eigenvalues", 0), np.float64(1.0))),
        r"^observable\.eigenvalues: expected a non-empty array of real numbers$",
    ),
    "model_from_document-numpy-int-dim": (
        lambda: model_from_document(_document(("dim_a",), np.int64(2))),
        _exactly(f"dim_a: expected a positive integer, got {np.int64(2)!r}"),
    ),
    "uniform_ket-zero": (lambda: uniform_ket(0), r"positive integer, got 0$"),
    "uniform_ket-negative": (lambda: uniform_ket(-1), r"positive integer, got -1$"),
    "uniform_ket-bool": (lambda: uniform_ket(True), r"positive integer, got True$"),
    "uniform_ket-float": (lambda: uniform_ket(2.0), r"positive integer, got 2\.0$"),
    "basis_ket-bool-index": (lambda: basis_ket(2, True), r"^basis index True out of range for dim 2$"),
    "basis_ket-float-index": (lambda: basis_ket(2, 0.5), r"^basis index 0\.5 out of range for dim 2$"),
    "basis_ket-float-dim": (
        lambda: basis_ket(2.0, 0),
        r"^basis_ket dimension must be a positive integer, got 2\.0$",
    ),
    "basis_ket-zero-dim": (
        lambda: basis_ket(0, 0),
        r"^basis_ket dimension must be a positive integer, got 0$",
    ),
    "SpectralForm-matrix-eigenvalues": (
        lambda: SpectralForm([[1.0, -1.0]], [1, 1], np.eye(2)),
        r"^eigenvalues must be a vector, got ndim 2$",
    ),
    "from_projectors-matrix-eigenvalues": (
        lambda: from_projectors([[1.0, -1.0]], [P0, np.diag([0.0, 1.0])]),
        r"^eigenvalues must be a vector, got ndim 2$",
    ),
    "ket-matrix": (lambda: ket([[1.0, 0.0], [0.0, 1.0]]), r"^state must be a vector, got ndim 2$"),
    "born_form-matrix-basis-entry": (
        lambda: born_form(uniform_ket(4), [np.eye(2) / np.sqrt(2)]),
        r"^range basis entry 0 must be a vector, got ndim 2$",
    ),
    "OutcomeDistribution-2d-weights": (
        lambda: OutcomeDistribution([[0.5, 0.5]]),
        r"^weights must be a vector, got ndim 2$",
    ),
    "BranchDecomposition-vector-pieces": (
        lambda: BranchDecomposition([1.0, 0.0]),
        r"^pieces must be a matrix, got ndim 1$",
    ),
    "BranchDecomposition-nan-eps": (
        lambda: BranchDecomposition(np.eye(2), float("nan")),
        r"^tolerance must lie in \(0, 1\), got nan$",
    ),
    "MeasurementModel-isometry-transposed": (
        lambda: _with_isometry(MODEL.isometry.T),
        r"^isometry: shape \(2, 4\), expected \(4, 2\)$",
    ),
    "replace-isometry-transposed": (
        lambda: dataclasses.replace(MODEL, isometry=MODEL.isometry.T),
        r"^isometry: shape \(2, 4\), expected \(4, 2\)$",
    ),
    "MeasurementModel-isometry-flat": (
        lambda: _with_isometry(MODEL.isometry.reshape(-1)),
        r"^isometry: shape \(8,\), expected \(4, 2\)$",
    ),
    "replace-isometry-flat": (
        lambda: dataclasses.replace(MODEL, isometry=MODEL.isometry.reshape(-1)),
        r"^isometry: shape \(8,\), expected \(4, 2\)$",
    ),
    "MeasurementModel-isometry-dim_a-by-dim": (
        lambda: _with_isometry(MODEL.isometry.reshape(2, 4)),
        r"^isometry: shape \(2, 4\), expected \(4, 2\)$",
    ),
    "replace-isometry-dim_a-by-dim": (
        lambda: dataclasses.replace(MODEL, isometry=MODEL.isometry.reshape(2, 4)),
        r"^isometry: shape \(2, 4\), expected \(4, 2\)$",
    ),
    # finite entries whose complex Gram matrix overflows to inf - inf
    "validate-overflowing-complex-isometry": (
        lambda: _with_isometry(np.full((4, 2), 1e200 + 1e200j)).validate(),
        r"^isometry: isometry defect inf exceeds 1e-09$",
    ),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_rejected_with_value_error(probe):
    call, message = PROBES[probe]
    with pytest.raises(ValueError, match=message):
        call()


def test_lifted_pointer_is_the_dense_stack_lift(rng):
    """For every valid index, the tests' lift from the dense stack equals the one built from block k."""
    for model in (MODEL, rand_model(3, rng), with_redundant_pointer(rand_model(2, rng), 2, rng)):
        for k in [*range(model.outcomes), np.int64(model.outcomes - 1)]:
            v = model.pointer.blocks[k]
            from_block = np.kron(np.eye(model.dim_a), v @ v.conj().T)
            assert lifted_pointer(model, k).tobytes() == from_block.tobytes()


def test_records_store_only_what_they_cannot_derive():
    for record, arguments in (
        (CheckReport, ["per_outcome_residuals", "tolerance", "witness"]),
        (SampleReport, ["counts", "seed"]),
        (Purification, ["psi"]),
        (OutcomeDistribution, ["weights"]),
        (BranchDecomposition, ["pieces", "eps"]),
    ):
        assert list(inspect.signature(record).parameters) == arguments
    assert not hasattr(BranchDecomposition(np.eye(2)), "pieces")


def test_linear_maps_accept_unnormalized_states():
    final = premeasure(MODEL, UNNORMALIZED)
    assert np.linalg.norm(final) == pytest.approx(5.0, abs=1e-12)
    assert decompose_final(MODEL, UNNORMALIZED).reconstruct() == pytest.approx(final, abs=1e-12)


def test_numpy_integer_outcome_index_accepted():
    np.testing.assert_array_equal(
        evolve_branch(MODEL, np.array([0.6, 0.8]), np.uint8(1)),
        evolve_branch(MODEL, np.array([0.6, 0.8]), 1),
    )


@pytest.mark.filterwarnings("error")
class TestNanUnitaryWitness:
    """A nan residual fails its check and is named, although nan > eps is False.

    The nan sits in the interaction on the initial subspace, the model's isometry.
    No check warns on the way.
    """

    @pytest.fixture
    def model(self, rng):
        base = rand_model(3, rng)
        w = np.array(base.isometry)
        w[0, 0] = np.nan
        return dataclasses.replace(base, isometry=w)

    def test_calibration(self, model):
        report = check_calibration(model)
        assert not report.passed and report.witness is not None

    def test_dynamical(self, model):
        report = check_dynamical(model)
        assert not report.passed and report.witness is not None

    def test_prc(self, model, rng):
        report = check_prc(model, rand_ket(3, rng))
        assert not report.passed and report.witness is not None


@pytest.mark.filterwarnings("error")
class TestNanProjector:
    """A non-finite object projector never reaches a model: from_projectors names the
    dense one, and a form refuses a non-finite basis entry, without a numpy warning.
    A finite basis that is not unitary fails the checks with a witness."""

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_validate(self, rng, value):
        sf = rand_model(3, rng).observable
        e = np.array(sf.projectors)
        e[1, 0, 2] = value
        with pytest.raises(ValueError, match=r"^projector 1 has non-finite entries$"):
            from_projectors(sf.eigenvalues, e)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_calibration(self, rng, value):
        sf = rand_model(3, rng).observable
        v = np.array(sf.basis)
        v[0, 2] = value
        with pytest.raises(ValueError, match=r"^basis has non-finite entries$"):
            SpectralForm(sf.eigenvalues, sf.ranks, v)

    def test_dynamical(self, rng):
        model = rand_model(3, rng)
        v = np.array(model.observable.basis)
        v[0, 2] = 2.0
        bad = dataclasses.replace(
            model, observable=SpectralForm(model.observable.eigenvalues, model.observable.ranks, v)
        )
        with pytest.raises(ValueError, match=r"^observable: basis: unitarity defect"):
            bad.validate()
        for report in (check_dynamical(bad), check_calibration(bad)):
            assert not report.passed and report.witness is not None
