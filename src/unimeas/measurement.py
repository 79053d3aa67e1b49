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
Both spectral forms hold range bases, E_k = V_k V_k^dag: calibration takes the
columns of V_k as object eigenstates, and F_k acts through its basis block.
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
    tensor,
    validate_outcome_index,
    validate_state,
    validate_tolerance,
    validate_unit_state,
)
from .spectral import SpectralForm


@dataclass(frozen=True, eq=False)
class CheckReport:
    """Outcome of a condition check; passed iff max_residual <= tolerance."""

    passed: bool
    per_outcome_residuals: np.ndarray
    max_residual: float
    witness: str | None = None

    def __post_init__(self):
        object.__setattr__(
            self,
            "per_outcome_residuals",
            frozen(np.asarray(self.per_outcome_residuals, dtype=np.float64)),
        )


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """Object observable, pointer observable, instrument state, and isometry.

    The isometry W = U(I_A (x) phi_B), shape (dim, dim_a), is the interaction
    on the initial subspace: column i is U(e_i (x) phi_B). dim_a is the observable's
    dimension, dim_b the pointer's; their outcome counts must agree when a model is made.
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
        object.__setattr__(self, "instrument_state", frozen(as_complex(self.instrument_state)))
        object.__setattr__(self, "isometry", frozen(as_complex(self.isometry)))

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

    def apply_pointer(self, k: int, states) -> np.ndarray:
        """(I_A (x) F_k) applied to a joint vector or to each column of a (dim, m) array.

        F_k acts on the instrument axis of the (dim_a, dim_b, ...) reshape,
        so the dense joint operator is never formed.

        Raises:
            ValueError: k is not an outcome index, or states are not finite
                with leading size dim.
        """
        states = as_complex(states)
        if states.shape[:1] != (self.dim,):
            raise ValueError(f"states have shape {states.shape}, expected leading size {self.dim}")
        if not np.isfinite(states).all():
            raise ValueError("states contain non-finite amplitudes")
        return self._pointer_sector(validate_outcome_index(k, self.outcomes), states)

    def _pointer_sector(self, k: int, states: np.ndarray) -> np.ndarray:
        """apply_pointer on a complex array the caller has checked or computed from W.

        F_k = V_k V_k^dag acts through its basis block, dim_b * rank F_k per column and sector.
        """
        v = self.pointer.blocks[k]
        sectors = states.reshape(len(states) // len(v), len(v), -1)
        return (v @ (v.conj().T @ sectors)).reshape(states.shape)

    def lifted_pointer(self, k: int) -> np.ndarray:
        """Dense I_A (x) F_k for an outcome index k, dim^2 memory per call: apply_pointer's reference."""
        v = self.pointer.blocks[validate_outcome_index(k, self.outcomes)]
        return tensor(np.eye(self.dim_a), v @ v.conj().T)

    def validate(self, eps: float = DEFAULT_EPS) -> None:
        """Check both spectral forms, the instrument state, and W^dag W = I in O(dim dim_a^2)."""
        validate_tolerance(eps)
        for name, sf in (("observable", self.observable), ("pointer", self.pointer)):
            try:
                sf.validate(eps)
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from exc
        validate_unit_state(self.instrument_state, self.dim_b, eps, "instrument_state")
        w = self.isometry
        if w.shape != (self.dim, self.dim_a):
            raise ValueError(f"isometry: shape {w.shape}, expected {(self.dim, self.dim_a)}")
        defect = orthonormality_defect(w)
        if not defect <= eps:  # NaN-aware: a non-finite isometry has defect nan
            raise ValueError(f"isometry: isometry defect {defect:.3e} exceeds {eps}")


def isometry_from_unitary(
    unitary, dim_a: int, dim_b: int, instrument_state, eps: float = DEFAULT_EPS
) -> np.ndarray:
    """W = U(I_A (x) phi_B) of a dense joint unitary, checking U as a whole first.

    The only place a dense U is handled: files that store the full unitary
    load through it. Costs dim^3 for the unitarity check.

    Raises:
        ValueError: a bad tolerance or instrument state, or a unitary that is
            not dim x dim, not finite, or not unitary within eps.
    """
    validate_tolerance(eps)
    phi = validate_unit_state(instrument_state, dim_b, eps, "instrument_state")
    dim = dim_a * dim_b
    u = as_complex(unitary)
    if u.shape != (dim, dim):
        raise ValueError(f"unitary: shape {u.shape}, expected {(dim, dim)}")
    defect = orthonormality_defect(u)
    if not defect <= eps:  # NaN-aware: a non-finite unitary has defect nan
        raise ValueError(f"unitary: unitarity defect {defect:.3e} exceeds {eps}")
    return u.reshape(dim, dim_a, dim_b) @ phi


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
    per_outcome = np.max(residuals, axis=1)
    max_residual = float(np.max(per_outcome))
    return CheckReport(max_residual <= eps, per_outcome, max_residual, witness)


def check_calibration(model: MeasurementModel, eps: float = DEFAULT_EPS) -> CheckReport:
    """Eigenstate condition: object eigenstates yield pointer eigenstates.

    For each outcome k and each orthonormal basis vector e of the range of
    the object projector E_k, verifies F_k U(e (x) phi_B) = U(e (x) phi_B),
    i.e. F_k W V_k = W V_k column by column, V_k being the range basis.
    """
    validate_tolerance(eps)
    blocks = model.observable.blocks
    residuals = np.zeros((len(blocks), max(len(v.T) for v in blocks)))
    for k, v in enumerate(blocks):
        finals = model.isometry @ v  # column i is U(b_i (x) phi_B)
        residuals[k, : len(v.T)] = np.linalg.norm(model._pointer_sector(k, finals) - finals, axis=0)
    return _report(residuals, eps, "range basis vector")


def check_dynamical(model: MeasurementModel, eps: float = DEFAULT_EPS) -> CheckReport:
    """Operator condition: F_k U equals U E_k on the initial subspace.

    For each outcome k and each canonical basis vector e of the object
    space, verifies F_k U(e (x) phi_B) = U((E_k e) (x) phi_B), i.e.
    F_k W = W E_k column by column, with W E_k = (W V_k) V_k^dag.
    """
    validate_tolerance(eps)
    w = model.isometry
    residuals = np.array([
        np.linalg.norm(model._pointer_sector(k, w) - (w @ v) @ v.conj().T, axis=0)
        for k, v in enumerate(model.observable.blocks)
    ])
    return _report(residuals, eps, "basis vector")
