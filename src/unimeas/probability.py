"""Three equivalent expressions of projective outcome probability.

The expectation value <psi|P|psi>, the summed squared overlaps with an
orthonormal basis of the projector's range, and the trace tr(P|psi><psi|)
all compute the same number. Raw values are returned unclamped so that
equivalence tests see the actual arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_EPS, validate_projector, validate_tolerance, validate_unit_state
from .spectral import _range


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


def forms_triple(psi, p, eps: float = DEFAULT_EPS) -> ProbabilityTriple:
    """All three forms, each its own expression, for a unit state psi and a projector p.

    The Born form sums over the basis range_basis gives, read by _range off the projector
    validated here without validating it again; it is 0.0 for the empty range of p = 0.

    Raises:
        ValueError: eps is bad, p is not a projector within eps, or psi is not a unit state
            of p's dimension.
    """
    validate_tolerance(eps)
    p = validate_projector(p, eps)
    psi = validate_unit_state(psi, p.shape[0], eps)
    return ProbabilityTriple(
        expectation_form=float(np.vdot(psi, p @ psi).real),
        born_form=float(sum(abs(np.vdot(psi, v)) ** 2 for v in _range(p).T)),
        trace_form=float((p @ np.outer(psi, psi.conj())).trace().real),
    )
