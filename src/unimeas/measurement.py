"""Premeasurement models: canonical construction, evolution, condition checks.

A model couples an object observable to an instrument pointer through a
joint unitary U. It carries U only on the initial subspace, as the isometry
W = U(I_A (x) phi_B) of shape (dim, dim_a): every check, branch and collapse
reads U there alone, and any isometry extends to a unitary, so W fixes the
measuring process. The calibration check asks that eigenstates of an object
projector end up as eigenstates of the coindexed pointer projector; the
dynamical check asks that the pointer projector commutes past the unitary
into the object projector on the initial subspace. Both quantify over
basis vectors only, which linearity extends to arbitrary object states.
Both spectral forms hold range bases, E_k = V_k V_k^dag; both checks read W
with its instrument axis in the pointer basis, where F_k keeps outcome k's rows.
A model is a record: its shapes are checked when it is made, its content by
validate. On joint states F_k is applied only by SpectralForm.pieces, never lifted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_EPS,
    as_complex,
    basis_ket,
    frozen,
    orthonormality_defect,
    validate_state,
    validate_tolerance,
    validate_unit_state,
)
from .spectral import SpectralForm


@dataclass(frozen=True, eq=False)
class CheckReport:
    """Outcome of a condition check, from a vector of at least one residual. max_residual and
    passed are derived and cannot be set: passed iff max_residual <= tolerance, so a nan
    residual fails."""

    per_outcome_residuals: np.ndarray
    tolerance: float
    witness: str | None = None
    max_residual: float = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self):
        validate_tolerance(self.tolerance)
        residuals = frozen(np.asarray(self.per_outcome_residuals, dtype=np.float64))
        if not residuals.size:
            raise ValueError("per_outcome_residuals must be non-empty")
        if residuals.ndim != 1:
            raise ValueError(f"per_outcome_residuals must be a vector, got ndim {residuals.ndim}")
        object.__setattr__(self, "per_outcome_residuals", residuals)
        object.__setattr__(self, "max_residual", float(residuals.max()))
        object.__setattr__(self, "passed", bool(self.max_residual <= self.tolerance))


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """Object observable, pointer observable, instrument state, and isometry.

    The isometry W = U(I_A (x) phi_B), shape (dim, dim_a), is the interaction
    on the initial subspace: column i is U(e_i (x) phi_B). dim_a is the observable's
    dimension, dim_b the pointer's. Making a model refuses, in this order, unequal outcome
    counts, an instrument state that is not a finite (dim_b,) vector, and an isometry not
    shaped (dim, dim_a); validate checks the rest.
    """

    observable: SpectralForm
    pointer: SpectralForm
    instrument_state: np.ndarray = field(repr=False)
    isometry: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.observable.outcomes != self.pointer.outcomes:
            raise ValueError(
                f"observable has {self.observable.outcomes} outcomes, "
                f"pointer has {self.pointer.outcomes}"
            )
        state = validate_state(self.instrument_state, self.dim_b, "instrument_state")
        w = as_complex(self.isometry)
        if w.shape != (self.dim, self.dim_a):
            raise ValueError(f"isometry: shape {w.shape}, expected {(self.dim, self.dim_a)}")
        object.__setattr__(self, "instrument_state", frozen(state))
        object.__setattr__(self, "isometry", frozen(w))

    @property
    def dim_a(self) -> int:
        return self.observable.dim

    @property
    def dim_b(self) -> int:
        return self.pointer.dim

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    @property
    def outcomes(self) -> int:
        return self.observable.outcomes

    def validate(self, eps: float = DEFAULT_EPS) -> None:
        """Check both spectral forms, the instrument state, and W^dag W = I in O(dim dim_a^2)."""
        validate_tolerance(eps)
        for name, sf in (("observable", self.observable), ("pointer", self.pointer)):
            try:
                sf.validate(eps)
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from exc
        validate_unit_state(self.instrument_state, self.dim_b, eps, "instrument_state")
        defect = orthonormality_defect(self.isometry)
        if not defect <= eps:  # NaN-aware: a non-finite isometry has defect nan
            raise ValueError(f"isometry: isometry defect {defect:.3e} exceeds {eps}")


def build_canonical_model(observable: SpectralForm) -> MeasurementModel:
    """Minimal model measuring the given observable exactly.

    The instrument gets one dimension per outcome, pointer projectors
    |k><k| with eigenvalues k, and initial state |0>. The interaction is von
    Neumann's controlled shift

        U = sum_k E_k (x) S^k,    S|j> = |j+1 mod n>,

    which is unitary because the E_k are orthogonal and sum to the
    identity, and on the initial subspace keeps each object branch intact
    while moving the pointer to the branch label:

        |psi>|0>  ->  sum_k (E_k |psi>) (x) |k>

    The model stores only that initial-subspace part, W[(a, k), a'] = E_k[a, a'].
    """
    dim_a, dim_b = observable.dim, observable.outcomes
    return MeasurementModel(
        observable=observable,
        pointer=SpectralForm(np.arange(dim_b, dtype=float), np.ones(dim_b, int), np.eye(dim_b)),
        instrument_state=basis_ket(dim_b, 0),
        isometry=observable.projectors.transpose(1, 0, 2).reshape(dim_a * dim_b, dim_a),
    )


def premeasure(model: MeasurementModel, phi_a) -> np.ndarray:
    """Joint final state U (phi_a (x) instrument_state) = W phi_a, for any finite phi_a."""
    return model.isometry @ validate_state(phi_a, model.dim_a)


def _report(residuals: np.ndarray, eps: float, column: str) -> CheckReport:
    """Report from an (outcomes, m) array of per-column residuals, zero-padded on the right.

    An outcome's residual is the largest in its row. The witness names the
    first column above eps, or nan, in (outcome, column) order.
    """
    above = np.argwhere(~(residuals <= eps))
    witness = None
    if above.size:
        k, j = above[0]
        witness = f"outcome {k}, {column} {j}: residual {residuals[k, j]:.3e}"
    return CheckReport(residuals.max(axis=1), eps, witness)


def _pointer_rows(model: MeasurementModel) -> np.ndarray:
    """G = (I_A (x) V_B^dag) W, shape (dim, dim_a): row (a, j) is W's amplitude on e_a (x) pointer
    basis vector j, of outcome pointer.labels[j], so I_A (x) F_k keeps the rows of outcome k."""
    w = model.isometry.reshape(model.dim_a, model.dim_b, model.dim_a)
    return (model.pointer.basis.conj().T @ w).reshape(model.dim, model.dim_a)


def check_calibration(model: MeasurementModel, eps: float = DEFAULT_EPS) -> CheckReport:
    """Eigenstate condition: object eigenstates yield pointer eigenstates.

    For each outcome k and each basis vector v of the range of E_k, verifies
    F_k W v = W v: the residual is the norm of W v on pointer basis vectors of
    other outcomes, the root of the probability leaking off outcome k. The mask
    multiplies the squares, so a nan anywhere in W reaches every residual.
    """
    validate_tolerance(eps)
    obs = model.observable
    finals = (_pointer_rows(model) @ obs.basis).reshape(model.dim_a, model.dim_b, model.dim_a)
    leaks = (abs(finals) ** 2).sum(axis=0) * (model.pointer.labels[:, None] != obs.labels)
    residuals = np.zeros((obs.outcomes, obs.ranks.max()))
    residuals[np.arange(obs.ranks.max()) < obs.ranks[:, None]] = np.sqrt(leaks.sum(axis=0))
    return _report(residuals, eps, "range basis vector")


def check_dynamical(model: MeasurementModel, eps: float = DEFAULT_EPS) -> CheckReport:
    """Operator condition: F_k U equals U E_k on the initial subspace.

    For each outcome k and each canonical basis vector e of the object
    space, verifies F_k U(e (x) phi_B) = U((E_k e) (x) phi_B), i.e. F_k W = W E_k
    column by column: (G V_k) V_k^dag minus G's rows of outcome k, in one array.
    """
    validate_tolerance(eps)
    g = _pointer_rows(model)
    d = np.empty_like(g)  # one (dim, dim_a) array, reused for every outcome
    g_rows, d_rows = (a.reshape(model.dim_a, model.dim_b, -1) for a in (g, d))
    squares = np.empty((model.outcomes, model.dim_a))
    for k, (v, rows) in enumerate(zip(model.observable.blocks, model.pointer.columns)):
        np.matmul(g @ v, v.conj().T, out=d)
        d_rows[:, rows] -= g_rows[:, rows]
        squares[k] = (abs(d) ** 2).sum(axis=0)
    return _report(np.sqrt(squares), eps, "basis vector")
