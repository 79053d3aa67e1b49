"""Numerical verification of unitary premeasurement models.

The package builds finite-dimensional premeasurement models (object
observable, pointer observable, instrument ready state, and the interaction
unitary, carried as its isometry W = U(I (x) phi_B) on the initial
subspace), checks the calibration and dynamical conditions and probability
reproducibility, decomposes final states into outcome branches, forms the
butchered post-measurement mixture with seeded sampling, purifies mixed
states, and evaluates the three equivalent probability forms.
"""

from __future__ import annotations

from .branches import (
    BranchDecomposition,
    check_prc,
    decompose_final,
    decompose_initial,
    evolve_branch,
)
from .collapse import (
    GENERATOR,
    OutcomeDistribution,
    SampleReport,
    butcher,
    final_density,
    sample,
    weights,
)
from .linalg import (
    DEFAULT_EPS,
    basis_ket,
    dag,
    ket,
    partial_trace,
    tensor,
    uniform_ket,
)
from .measurement import (
    CheckReport,
    MeasurementModel,
    build_canonical_model,
    check_calibration,
    check_dynamical,
    premeasure,
)
from .mixed import Purification, mixed_probability, purified_probability, purify
from .modelio import (
    ModelFormatError,
    load_matrix,
    load_model,
    load_observable,
    load_vector,
    model_from_document,
    model_to_document,
    save_matrix,
    save_model,
    save_vector,
)
from .probability import (
    ProbabilityTriple,
    born_form,
    expectation_form,
    forms_triple,
    trace_form,
)
from .spectral import (
    DEGENERACY_TOL,
    SpectralForm,
    from_projectors,
    range_basis,
    refine,
    spectral_decompose,
)

__all__ = [
    "BranchDecomposition",
    "CheckReport",
    "DEFAULT_EPS",
    "DEGENERACY_TOL",
    "GENERATOR",
    "MeasurementModel",
    "ModelFormatError",
    "OutcomeDistribution",
    "ProbabilityTriple",
    "Purification",
    "SampleReport",
    "SpectralForm",
    "basis_ket",
    "born_form",
    "build_canonical_model",
    "butcher",
    "check_calibration",
    "check_dynamical",
    "check_prc",
    "dag",
    "decompose_final",
    "decompose_initial",
    "evolve_branch",
    "expectation_form",
    "final_density",
    "forms_triple",
    "from_projectors",
    "ket",
    "load_matrix",
    "load_model",
    "load_observable",
    "load_vector",
    "mixed_probability",
    "model_from_document",
    "model_to_document",
    "partial_trace",
    "premeasure",
    "purified_probability",
    "purify",
    "range_basis",
    "refine",
    "sample",
    "save_matrix",
    "save_model",
    "save_vector",
    "spectral_decompose",
    "tensor",
    "trace_form",
    "uniform_ket",
    "weights",
]

__version__ = "0.1.0"
