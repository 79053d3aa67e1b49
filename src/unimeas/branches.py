"""Branch structure of states before and after premeasurement.

An object state splits over the observable's eigenprojectors into weighted
orthogonal branches; the joint final state splits the same way over the
lifted pointer projectors, one (dim, outcomes) array of branches, with
matching weights whenever the model measures exactly (probability
reproducibility); both splits are SpectralForm.pieces. Each branch also
evolves independently: applying the unitary to a single initial branch lands
on the matching pointer branch. verify is the one list of a model's checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import DEFAULT_EPS, _distinct_labels, _integers, as_complex, frozen, validate_outcome_index
from .linalg import validate_state, validate_tolerance, validate_unit_state
from .measurement import CheckReport, MeasurementModel, check_calibration, check_dynamical
from .measurement import premeasure
from .spectral import SpectralForm


@dataclass(frozen=True, eq=False)
class BranchDecomposition:
    """Per-outcome weights and normalized branch states (one per row) of a decomposed ket.

    Outcomes whose amplitude falls below the drop threshold appear in
    `dropped` and carry no branch state. Outcomes, amplitudes and branch states
    must be coindexed, and no amplitude negative; a nan amplitude is kept, so that
    a non-finite isometry fails reconstruction visibly. Kept and dropped outcomes
    together are distinct nonnegative labels.
    """

    outcomes: np.ndarray
    amplitudes: np.ndarray
    branch_states: np.ndarray = field(repr=False)
    dropped: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))

    def __post_init__(self):
        object.__setattr__(self, "outcomes", _integers(self.outcomes, "outcomes"))
        object.__setattr__(self, "amplitudes", frozen(np.asarray(self.amplitudes, dtype=np.float64)))
        object.__setattr__(self, "branch_states", frozen(as_complex(self.branch_states)))
        object.__setattr__(self, "dropped", _integers(self.dropped, "dropped"))
        states = self.branch_states
        if states.ndim != 2 or not self.outcomes.shape == self.amplitudes.shape == states.shape[:1]:
            raise ValueError("outcomes and amplitudes must be vectors coindexed with branch_states rows")
        if (self.amplitudes < 0.0).any():
            raise ValueError("amplitudes must be nonnegative")
        if self.dropped.ndim != 1:
            raise ValueError(f"dropped must be a vector, got ndim {self.dropped.ndim}")
        _distinct_labels(self.outcomes.tolist() + self.dropped.tolist(), "kept and dropped outcomes")

    def reconstruct(self) -> np.ndarray:
        """Amplitude-weighted sum of the branch states; the zero vector when no branch is kept."""
        return self.amplitudes @ self.branch_states


def _decompose(pieces: np.ndarray, eps: float) -> BranchDecomposition:
    """Decomposition from the unnormalized pieces P_k state, one per column; drops norms below eps."""
    amplitudes = np.linalg.norm(pieces, axis=0)
    kept = ~(amplitudes < eps)  # a nan norm is kept, as nan < eps is False
    with np.errstate(invalid="ignore"):  # a nan norm makes a nan branch state, silently
        states = (pieces[:, kept] / amplitudes[kept]).T
    return BranchDecomposition(np.flatnonzero(kept), amplitudes[kept], states, np.flatnonzero(~kept))


def decompose_initial(phi, observable: SpectralForm, eps: float = DEFAULT_EPS) -> BranchDecomposition:
    """Split an object state over the observable's eigenprojectors.

    Amplitude k is ||E_k phi||, equal to <phi|E_k|phi>**(1/2) by projector
    idempotency; branch states keep the phase inherited from E_k phi = V_k V_k^dag phi.
    """
    validate_tolerance(eps)
    return _decompose(observable.pieces(validate_state(phi, observable.dim)), eps)


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
    sectors = (model.isometry @ phi_a).reshape(model.dim_a, model.dim_b)
    pointer_probs = model.pointer.probabilities(sectors.T).sum(axis=1)
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
    validate_tolerance(eps)
    sectors = (model.isometry @ validate_state(phi_a, model.dim_a)).reshape(model.dim_a, model.dim_b)
    return _decompose(model.pointer.pieces(sectors).reshape(model.dim, -1), eps)


def evolve_branch(model: MeasurementModel, phi_a, k: int) -> np.ndarray:
    """Evolve one initial branch on its own: U((E_k phi) (x) phi_B).

    Returns an unnormalized vector; for exact models it equals the pointer
    branch F_k Phi_f of the full final state, and it is the zero vector
    when E_k annihilates phi.
    """
    phi_a = validate_state(phi_a, model.dim_a)
    v = model.observable.blocks[validate_outcome_index(k, model.outcomes)]
    return model.isometry @ (v @ (v.conj().T @ phi_a))


def check_reconstruction(model: MeasurementModel, phi_a, eps: float = DEFAULT_EPS) -> CheckReport:
    """Final-state reconstruction: one residual, ||decompose_final(...).reconstruct() - W phi_a||."""
    final = premeasure(model, phi_a)
    residual = np.linalg.norm(decompose_final(model, phi_a, eps).reconstruct() - final)
    return CheckReport([residual], eps)


def verify(model: MeasurementModel, phi_a, eps: float = DEFAULT_EPS):
    """(name, CheckReport) of each check of a model on one object state, in one fixed order. A
    generator: each check runs when its pair is reached, so a caller can time it alone, and a bad
    eps or a phi_a not a finite unit (dim_a,) vector raises ValueError at the first pair."""
    validate_tolerance(eps)
    phi_a = validate_unit_state(phi_a, model.dim_a, eps)
    yield "calibration", check_calibration(model, eps)
    yield "dynamical", check_dynamical(model, eps)
    yield "prc", check_prc(model, phi_a, eps)
    yield "final-reconstruction", check_reconstruction(model, phi_a, eps)
