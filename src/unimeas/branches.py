"""Branch structure of states before and after premeasurement.

An object state splits over the observable's eigenprojectors into weighted
orthogonal branches; the premeasured state Phi_f = W phi (premeasure, the one
product of W with a state) splits over the lifted pointer projectors into the
pieces (I (x) F_k) Phi_f, the columns of P, of weights ||(I (x) F_k) Phi_f||^2:
check_prc compares them with <phi|E_k|phi>, `unimeas collapse` samples them,
decompose_final wraps P and collapse.butcher returns P P^dag. Both splits are
SpectralForm.pieces, and outcome k is piece k. A branch evolves on its own onto
its pointer branch. verify is the one list of a model's checks: calibration,
dynamical and prc.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .linalg import DEFAULT_EPS, as_complex, frozen, validate_outcome_index
from .linalg import validate_state, validate_tolerance, validate_unit_state
from .measurement import CheckReport, MeasurementModel, check_calibration, check_dynamical, premeasure
from .spectral import SpectralForm


@dataclass(frozen=True, eq=False)
class BranchDecomposition:
    """Norms (`amplitudes`) and normalized branch states (one per row) of the unnormalized pieces
    P_k ket, one per column, which the record does not keep; outcome k is column k. Outcomes whose
    norm is below eps are `dropped` and carry no branch state; a nan norm is kept, so that a
    non-finite isometry makes a nan reconstruction instead of losing its branch."""

    pieces: InitVar[np.ndarray]
    eps: float = DEFAULT_EPS
    outcomes: np.ndarray = field(init=False)
    amplitudes: np.ndarray = field(init=False)
    branch_states: np.ndarray = field(init=False, repr=False)
    dropped: np.ndarray = field(init=False)

    def __post_init__(self, pieces):
        validate_tolerance(self.eps)
        pieces = as_complex(pieces)
        if pieces.ndim != 2:
            raise ValueError(f"pieces must be a matrix, got ndim {pieces.ndim}")
        amplitudes = np.linalg.norm(pieces, axis=0)
        kept = ~(amplitudes < self.eps)  # a nan norm is kept, as nan < eps is False
        with np.errstate(invalid="ignore"):  # a nan norm makes a nan branch state, silently
            states = (pieces[:, kept] / amplitudes[kept]).T
        object.__setattr__(self, "outcomes", frozen(np.flatnonzero(kept)))
        object.__setattr__(self, "amplitudes", frozen(amplitudes[kept]))
        object.__setattr__(self, "branch_states", frozen(states))
        object.__setattr__(self, "dropped", frozen(np.flatnonzero(~kept)))

    def reconstruct(self) -> np.ndarray:
        """Amplitude-weighted sum of the branch states; the zero vector when no branch is kept."""
        return self.amplitudes @ self.branch_states


def decompose_initial(phi, observable: SpectralForm, eps: float = DEFAULT_EPS) -> BranchDecomposition:
    """Split an object state over the observable's eigenprojectors.

    Amplitude k is ||E_k phi||, equal to <phi|E_k|phi>**(1/2) by projector
    idempotency; branch states keep the phase inherited from E_k phi = V_k V_k^dag phi.
    """
    return BranchDecomposition(observable.pieces(validate_state(phi, observable.dim)), eps)


def _pointer_weights(model: MeasurementModel, phi_a) -> np.ndarray:
    """The pointer weights ||(I (x) F_k) Phi_f||^2 of the premeasured state, one per outcome k."""
    sectors = premeasure(model, phi_a).reshape(model.dim_a, model.dim_b)
    return model.pointer.probabilities(sectors.T).sum(axis=1)


def _pointer_pieces(model: MeasurementModel, phi_a) -> np.ndarray:
    """The pointer pieces (I (x) F_k) Phi_f of the premeasured state, as the columns of P."""
    sectors = premeasure(model, phi_a).reshape(model.dim_a, model.dim_b)
    return model.pointer.pieces(sectors).reshape(model.dim, -1)


def check_prc(model: MeasurementModel, phi_a, eps: float = DEFAULT_EPS) -> CheckReport:
    """Probability reproducibility: pointer statistics reproduce object statistics.

    For each outcome k, compares <Phi_f|F_k|Phi_f> against <phi|E_k|phi>,
    where Phi_f is the premeasured joint state. Assumes the model passes
    the dynamical check.

    Raises:
        ValueError: phi_a is not a finite unit vector of shape (dim_a,).
    """
    validate_tolerance(eps)
    phi_a = validate_unit_state(phi_a, model.dim_a, eps)
    pointer_probs = _pointer_weights(model, phi_a)
    object_probs = model.observable.probabilities(phi_a)
    residuals = np.abs(pointer_probs - object_probs)
    witness = None
    above = np.flatnonzero(~(residuals <= eps))  # nan counts as above
    if above.size:
        k = int(above[0])
        witness = (
            f"outcome {k}: pointer probability {pointer_probs[k]:.12g} "
            f"vs object probability {object_probs[k]:.12g}"
        )
    return CheckReport(residuals, eps, witness)


def decompose_final(model: MeasurementModel, phi_a, eps: float = DEFAULT_EPS) -> BranchDecomposition:
    """Split the premeasured joint state over the lifted pointer projectors.

    For exact models the amplitudes equal <phi|E_k|phi>**(1/2), the same
    weights the initial decomposition assigns.
    """
    return BranchDecomposition(_pointer_pieces(model, phi_a), eps)


def evolve_branch(model: MeasurementModel, phi_a, k: int) -> np.ndarray:
    """Evolve one initial branch on its own: U((E_k phi) (x) phi_B).

    Returns an unnormalized vector; for exact models it equals the pointer
    branch F_k Phi_f of the full final state, and it is the zero vector
    when E_k annihilates phi.
    """
    phi_a = validate_state(phi_a, model.dim_a)
    v = model.observable.blocks[validate_outcome_index(k, model.outcomes)]
    return premeasure(model, v @ (v.conj().T @ phi_a))


def verify(model: MeasurementModel, phi_a, eps: float = DEFAULT_EPS):
    """(name, CheckReport) of each check of a model on one object state, in one fixed order. A
    generator: each check runs when its pair is reached, so a caller can time it alone, and a bad
    eps or a phi_a not a finite unit (dim_a,) vector raises ValueError at the first pair."""
    validate_tolerance(eps)
    phi_a = validate_unit_state(phi_a, model.dim_a, eps)
    yield "calibration", check_calibration(model, eps)
    yield "dynamical", check_dynamical(model, eps)
    yield "prc", check_prc(model, phi_a, eps)
