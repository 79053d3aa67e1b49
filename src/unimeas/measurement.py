"""Premeasurement models: canonical construction, evolution, condition checks.

A model couples an object observable to an instrument pointer through a joint unitary U.
It carries U only on the initial subspace, as the isometry W = U(I_A (x) phi_B) of shape
(dim, dim_a): every check, branch and collapse reads U there alone, and any isometry
extends to a unitary, so W fixes the measuring process. The calibration check asks that
eigenstates of an object projector end up as eigenstates of the coindexed pointer
projector; the dynamical check asks that the pointer projector commutes past the unitary
into the object projector on the initial subspace. Both quantify over basis vectors only,
which linearity extends to arbitrary object states. Both spectral forms hold range bases,
E_k = V_k V_k^dag. premeasure is the one product of W with a state that returns the state;
_pointer_weights reduces W S at once to the pointer weights ||(I (x) F_k) W s||^2, which
calibration reads on the observable's eigenstates and check_prc and collapse on one state.
Dynamical alone reads W in the pointer basis. F_k is never lifted. A model is a record:
its shapes are checked when it is made, its content by validate.
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

    The model stores only that initial-subspace part, W[(a, k), a'] = E_k[a, a'], read off
    the range basis in one product: row (a, k) of (V * mask_k) V^dag is row a of E_k. The
    product stays inside the call, so no local keeps the masked rows alive beside W.
    """
    v, dim_a, dim_b = observable.basis, observable.dim, observable.outcomes
    mask = observable.labels == np.arange(dim_b)[:, None]
    return MeasurementModel(
        observable=observable,
        pointer=SpectralForm(np.arange(dim_b, dtype=float), np.ones(dim_b, int), np.eye(dim_b)),
        instrument_state=basis_ket(dim_b, 0),
        isometry=(v[:, None] * mask).reshape(dim_a * dim_b, dim_a) @ v.conj().T,
    )


def premeasure(model: MeasurementModel, phi_a) -> np.ndarray:
    """Joint final state U (phi_a (x) instrument_state) = W phi_a, for any finite phi_a."""
    return model.isometry @ validate_state(phi_a, model.dim_a)


def _pointer_weights(model: MeasurementModel, states: np.ndarray) -> np.ndarray:
    """Pointer weights ||(I (x) F_k) W s||^2 of a vector s, or of each column of a matrix S. W S
    enters the pointer basis in one expression, so no local holds it, before it is squared."""
    p = model.pointer
    rows = p.basis.conj().T @ (model.isometry @ states).reshape(model.dim_a, model.dim_b, -1)
    weights = np.add.reduceat((abs(rows) ** 2).sum(axis=0), [s.start for s in p.columns])
    return weights.reshape(-1, *np.shape(states)[1:])


def _pointer_pieces(model: MeasurementModel, phi_a) -> np.ndarray:
    """The pointer pieces (I (x) F_k) Phi_f of the premeasured state, as the columns of P."""
    sectors = premeasure(model, phi_a).reshape(model.dim_a, model.dim_b)
    return model.pointer.pieces(sectors).reshape(model.dim, -1)


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


@np.errstate(invalid="ignore")  # a non-finite W makes nan residuals, silently
def check_calibration(model: MeasurementModel, eps: float = DEFAULT_EPS) -> CheckReport:
    """Eigenstate condition: object eigenstates yield pointer eigenstates.

    For each outcome k and each basis vector v of the range of E_k, verifies
    F_k W v = W v: the residual is the root of W v's pointer weight on other outcomes,
    the probability leaking off outcome k. The mask multiplies the weights, so a nan
    anywhere in W reaches every residual.
    """
    validate_tolerance(eps)
    obs = model.observable
    others = np.arange(obs.outcomes)[:, None] != obs.labels
    leaks = (_pointer_weights(model, obs.basis) * others).sum(axis=0)
    residuals = np.zeros((obs.outcomes, obs.ranks.max()))
    residuals[np.arange(obs.ranks.max()) < obs.ranks[:, None]] = np.sqrt(leaks)
    return _report(residuals, eps, "range basis vector")


@np.errstate(invalid="ignore")  # a non-finite W makes nan residuals, silently
def check_dynamical(model: MeasurementModel, eps: float = DEFAULT_EPS) -> CheckReport:
    """Operator condition: F_k U equals U E_k on the initial subspace.

    For each outcome k and each canonical basis vector e of the object
    space, verifies F_k U(e (x) phi_B) = U((E_k e) (x) phi_B), i.e. F_k W = W E_k
    column by column: (G V_k) V_k^dag minus G's rows of outcome k, in one array.
    """
    validate_tolerance(eps)
    w = model.isometry.reshape(model.dim_a, model.dim_b, model.dim_a)
    g = (model.pointer.basis.conj().T @ w).reshape(model.dim, model.dim_a)  # G = (I (x) V_B^dag) W
    d = np.empty_like(g)  # one (dim, dim_a) array, reused for every outcome
    g_rows, d_rows = (a.reshape(model.dim_a, model.dim_b, -1) for a in (g, d))
    squares = np.empty((model.outcomes, model.dim_a))
    for k, (v, rows) in enumerate(zip(model.observable.blocks, model.pointer.columns)):
        np.matmul(g @ v, v.conj().T, out=d)
        d_rows[:, rows] -= g_rows[:, rows]
        squares[k] = (abs(d) ** 2).sum(axis=0)
    return _report(np.sqrt(squares), eps, "basis vector")
