"""Numerical verification of unitary premeasurement models.

The package builds finite-dimensional premeasurement models (object
observable, pointer observable, instrument ready state, and the interaction
unitary, carried as its isometry W = U(I (x) phi_B) on the initial
subspace), checks the calibration and dynamical conditions and probability
reproducibility, decomposes final states into outcome branches, forms the
butchered post-measurement mixture with seeded sampling, purifies mixed
states, and evaluates the three equivalent probability forms.

Importing the package loads none of its submodules, nor numpy: a submodule is
imported the first time one of its names is read (PEP 562).
"""

# each submodule that is an attribute of the package, with the names it exports
_EXPORTS = {
    "branches": (
        "BranchDecomposition", "check_prc", "check_reconstruction", "decompose_final",
        "decompose_initial", "evolve_branch", "verify",
    ),
    "collapse": (
        "GENERATOR", "OutcomeDistribution", "SampleReport", "butcher", "final_density", "sample",
        "weights",
    ),
    "linalg": ("DEFAULT_EPS", "basis_ket", "ket", "uniform_ket"),
    "measurement": (
        "CheckReport", "MeasurementModel", "build_canonical_model", "check_calibration",
        "check_dynamical", "premeasure",
    ),
    "mixed": ("Purification", "mixed_probability", "purified_probability", "purify"),
    "modelio": (
        "ModelFormatError", "load_matrix", "load_model", "load_observable", "load_vector",
        "model_from_document", "model_to_document", "save_matrix", "save_model", "save_vector",
    ),
    "probability": (
        "ProbabilityTriple", "born_form", "expectation_form", "forms_triple", "trace_form",
    ),
    "spectral": (
        "DEGENERACY_TOL", "SpectralForm", "from_projectors", "range_basis", "refine",
        "spectral_decompose",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule `name`, or the one that exports `name`, and keep the value."""
    from importlib import import_module  # here, so the namespace holds no name but its own

    if name in _EXPORTS:
        value = import_module(f"{__name__}.{name}")
    elif name in _OWNER:
        value = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
