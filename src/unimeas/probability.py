"""Three equivalent expressions of projective outcome probability.

The expectation value <psi|P|psi>, the summed squared overlaps with an
orthonormal basis of the projector's range, and the trace tr(P|psi><psi|)
all compute the same number. Raw values are returned unclamped so that
equivalence tests see the actual arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    DEFAULT_EPS,
    _vector,
    as_complex,
    orthonormality_defect,
    validate_projector,
    validate_tolerance,
    validate_unit_state,
)
from .spectral import _ranges


@dataclass(frozen=True)
class ProbabilityTriple:
    """The three probability expressions evaluated on one (state, projector) pair."""

    expectation_form: float
    born_form: float
    trace_form: float

    @property
    def max_pairwise_diff(self) -> float:
        vals = (self.expectation_form, self.born_form, self.trace_form)
        return max(abs(a - b) for a in vals for b in vals)


def _checked(psi, p, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """The validated (unit state, projector) pair; the state must match the projector."""
    validate_tolerance(eps)
    p = validate_projector(p, eps)
    return validate_unit_state(psi, p.shape[0], eps), p


def _born(psi: np.ndarray, vecs: Sequence[np.ndarray]) -> float:
    return float(sum(abs(np.vdot(psi, v)) ** 2 for v in vecs))


def _trace(psi: np.ndarray, p: np.ndarray) -> float:
    return float((p @ np.outer(psi, psi.conj())).trace().real)


def expectation_form(psi, p, eps: float = DEFAULT_EPS) -> float:
    """Expectation value <psi|P|psi> of a projector, for a unit state psi."""
    psi, p = _checked(psi, p, eps)
    return float(np.vdot(psi, p @ psi).real)


def born_form(psi, basis: Sequence[np.ndarray], eps: float = DEFAULT_EPS) -> float:
    """Summed squared overlaps of a unit state with an orthonormal range basis.

    Raises:
        ValueError: a basis entry is not 1-D, basis vectors are not orthonormal within eps
            (a non-finite basis counts as not orthonormal), or psi is not a matching unit state.
    """
    validate_tolerance(eps)
    vecs = [_vector(v, f"range basis entry {k}") for k, v in enumerate(basis)]
    if not vecs:
        raise ValueError("range basis must contain at least one vector")
    q = np.column_stack(vecs)
    defect = orthonormality_defect(q)
    if not defect <= eps:
        raise ValueError(f"range basis is not orthonormal (defect {defect:.3e})")
    return _born(validate_unit_state(psi, q.shape[0], eps), vecs)


def trace_form(psi, p, eps: float = DEFAULT_EPS) -> float:
    """Trace rule tr(P|psi><psi|) for a unit state psi, evaluated by explicit trace."""
    return _trace(*_checked(psi, p, eps))


def forms_triple(psi, p, eps: float = DEFAULT_EPS) -> ProbabilityTriple:
    """All three forms, each its own code path, on arguments validated once."""
    expectation = expectation_form(psi, p, eps)  # validates both arguments
    psi, p = as_complex(psi), as_complex(p)
    in_range, vecs = _ranges(p[None])  # range_basis's rule, without its second validation
    return ProbabilityTriple(
        expectation_form=expectation,
        born_form=_born(psi, vecs[0].T[in_range[0]]),  # 0.0 for the empty range of P = 0
        trace_form=_trace(psi, p),
    )
