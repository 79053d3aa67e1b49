"""Every public entry point rejects input it cannot give a meaningful number for.

Linear maps accept any finite vector of the right shape; functions that
return probabilities also require a unit vector. A failing check report
always names a witness, also when its residual is nan.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from unimeas.branches import check_prc, decompose_final, decompose_initial, evolve_branch
from unimeas.collapse import OutcomeDistribution, SampleReport, final_density, sample
from unimeas.linalg import (
    dag,
    density_eigh,
    partial_trace,
    projector_stack,
    tensor,
    uniform_ket,
    validate_projector,
)
from unimeas.measurement import (
    MeasurementModel,
    build_canonical_model,
    check_calibration,
    check_dynamical,
    premeasure,
)
from unimeas.mixed import mixed_probability
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

MODEL = build_canonical_model(spectral_decompose(np.diag([1.0, -1.0])))
ONE_OUTCOME = build_canonical_model(spectral_decompose(np.eye(2)))  # dim_b 1
NAN_STATE = np.array([np.nan, 0.0])
UNNORMALIZED = np.array([3.0, 4.0])
P0 = np.diag([1.0, 0.0])
E0 = [np.array([1.0, 0.0])]

THREE = build_canonical_model(spectral_decompose(np.diag([1.0, 2.0, 3.0])))
# validate_density accepts this rho, every eigenvalue being >= -eps; the purified route drops
# the 99 eigenvalues of -0.9e-9, the trace route counts them
ALMOST_PSD = np.diag([1.0 + 99 * 0.9e-9] + [-0.9e-9] * 99)


def _document(path, value) -> dict:
    """MODEL's document with the entry at path replaced, as a caller assembling one in memory may."""
    doc = model_to_document(MODEL)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# probe name -> (call, fragment of the expected message)
PROBES = {
    "premeasure-nan": (lambda: premeasure(MODEL, NAN_STATE), "non-finite"),
    "evolve_branch-nan": (lambda: evolve_branch(MODEL, NAN_STATE, 0), "non-finite"),
    "decompose_initial-nan": (lambda: decompose_initial(NAN_STATE, MODEL.observable), "non-finite"),
    "decompose_final-nan": (lambda: decompose_final(MODEL, NAN_STATE), "non-finite"),
    "final_density-nan": (lambda: final_density(MODEL, NAN_STATE), "non-finite"),
    "check_prc-nan": (lambda: check_prc(MODEL, NAN_STATE), "non-finite"),
    "check_prc-unnormalized": (lambda: check_prc(MODEL, UNNORMALIZED), "norm"),
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
    "spectral_decompose-empty": (
        lambda: spectral_decompose(np.zeros((0, 0))),
        r"^observable must be non-empty$",
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
    "tensor-nan": (lambda: tensor(NAN_STATE, np.array([1.0, 0.0])), "non-finite"),
    "tensor-nan-operator": (lambda: tensor(np.eye(2), np.full((2, 2), np.nan)), "non-finite"),
    "partial_trace-nan": (lambda: partial_trace(np.full((4, 4), np.nan), (2, 2), 0), "non-finite"),
    "dag-nan": (lambda: dag(np.array([[1.0, np.inf], [0.0, 1.0]])), "non-finite"),
    "apply_pointer-nan": (lambda: MODEL.apply_pointer(0, np.full(4, np.nan)), "non-finite"),
    "apply_pointer-nan-column": (
        lambda: MODEL.apply_pointer(1, np.diag([1.0, np.nan, 0.0, 0.0])[:, :2]),
        "non-finite",
    ),
    "apply_pointer-short": (lambda: MODEL.apply_pointer(0, np.zeros(3)), "expected leading size 4"),
    "apply_pointer-transposed": (
        lambda: MODEL.apply_pointer(0, np.zeros((2, 4))),
        "expected leading size 4",
    ),
    "apply_pointer-scalar": (lambda: MODEL.apply_pointer(0, 1.0), "expected leading size 4"),
    "apply_pointer-negative-index": (
        lambda: MODEL.apply_pointer(-1, np.zeros(4)),
        r"^outcome index -1 out of range$",
    ),
    "apply_pointer-index-n": (
        lambda: MODEL.apply_pointer(2, np.zeros(4)),
        r"^outcome index 2 out of range$",
    ),
    "evolve_branch-float-index": (
        lambda: evolve_branch(MODEL, np.array([1.0, 0.0]), 1.0),
        r"^outcome index 1\.0 out of range$",
    ),
    "refine-bool-index": (
        lambda: refine(MODEL.observable, True, [P0]),
        r"^outcome index True out of range$",
    ),
    "lifted_pointer-negative-index": (
        lambda: MODEL.lifted_pointer(-1),
        r"^outcome index -1 out of range$",
    ),
    "lifted_pointer-bool-index": (
        lambda: MODEL.lifted_pointer(True),
        r"^outcome index True out of range$",
    ),
    "rank-negative-index": (lambda: MODEL.observable.rank(-1), r"^outcome index -1 out of range$"),
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
        lambda: sample(OutcomeDistribution([0, 1], [1e-10, 0.0]), 10, 0),
        r"^distribution has no weight above threshold$",
    ),
    "SampleReport-counts": (lambda: SampleReport([1, 2], 4, 0), r"^counts do not sum to total$"),
    "tensor-too-large": (
        lambda: tensor(np.zeros(1025), np.zeros(1024)),
        r"^tensor product dimension 1049600 exceeds 1048576$",
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
        r"^extra_dim must be positive, got 0$",
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
        r"^purified route 0\.0 disagrees with trace route -8\.91\d*e-08$",
    ),
    "model_from_document-numpy-float-in-vector": (
        lambda: model_from_document(_document(("instrument_state", 0), [np.float64(1.0), 0.0])),
        r"^instrument_state\[0\]: expected a \[re, im\] pair, got \[np\.float64\(1\.0\), 0\.0\]$",
    ),
    "model_from_document-numpy-float-in-matrix": (
        lambda: model_from_document(_document(("isometry", 1, 0), [0.0, np.float64(0.0)])),
        r"^isometry\[1\]\[0\]: expected a \[re, im\] pair, got \[0\.0, np\.float64\(0\.0\)\]$",
    ),
    "model_from_document-numpy-float-eigenvalue": (
        lambda: model_from_document(_document(("observable", "eigenvalues", 0), np.float64(1.0))),
        r"^observable\.eigenvalues: expected a non-empty array of real numbers$",
    ),
    "model_from_document-numpy-int-dim": (
        lambda: model_from_document(_document(("dim_a",), np.int64(2))),
        r"^dim_a: expected a positive integer, got np\.int64\(2\)$",
    ),
    "uniform_ket-zero": (lambda: uniform_ket(0), r"positive integer, got 0$"),
    "uniform_ket-negative": (lambda: uniform_ket(-1), r"positive integer, got -1$"),
    "uniform_ket-bool": (lambda: uniform_ket(True), r"positive integer, got True$"),
    "uniform_ket-float": (lambda: uniform_ket(2.0), r"positive integer, got 2\.0$"),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_rejected_with_value_error(probe):
    call, message = PROBES[probe]
    with pytest.raises(ValueError, match=message):
        call()


def test_lifted_pointer_is_the_dense_stack_lift(rng):
    """For every valid index, the lift built from block k equals the one built from the dense stack."""
    for model in (MODEL, rand_model(3, rng), with_redundant_pointer(rand_model(2, rng), 2, rng)):
        for k in [*range(model.outcomes), np.int64(model.outcomes - 1)]:
            dense = tensor(np.eye(model.dim_a), model.pointer.projectors[k])
            assert model.lifted_pointer(k).tobytes() == dense.tobytes()


def test_linear_maps_accept_unnormalized_states():
    final = premeasure(MODEL, UNNORMALIZED)
    assert np.linalg.norm(final) == pytest.approx(5.0, abs=1e-12)
    assert decompose_final(MODEL, UNNORMALIZED).reconstruct() == pytest.approx(final, abs=1e-12)


def test_numpy_integer_outcome_index_accepted():
    final = premeasure(MODEL, np.array([0.6, 0.8]))
    np.testing.assert_array_equal(MODEL.apply_pointer(np.int64(1), final), MODEL.apply_pointer(1, final))
    np.testing.assert_array_equal(
        evolve_branch(MODEL, np.array([0.6, 0.8]), np.uint8(1)),
        evolve_branch(MODEL, np.array([0.6, 0.8]), 1),
    )
    assert MODEL.observable.rank(np.int32(0)) == 1


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
