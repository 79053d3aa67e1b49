"""Mixed initial states: purification and the trace-rule probability.

A mixed state is lifted to a pure state on a doubled system whose partial
trace over the ancilla reproduces it. Measurement probabilities can then
be computed two ways, through the purified expectation value or directly
by the trace rule; the two routes must agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_EPS,
    as_complex,
    density_eigh,
    frozen,
    validate_projector,
    validate_tolerance,
)


@dataclass(frozen=True, eq=False)
class Purification:
    """Pure state on system (x) ancilla as its (dim, ancilla) amplitude matrix psi, which
    must be a non-empty matrix; dims, state and the reduction are derived from it."""

    psi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "psi", frozen(as_complex(self.psi)))
        if self.psi.ndim != 2 or not self.psi.size:
            raise ValueError(f"psi must be a non-empty matrix, got shape {self.psi.shape}")

    @property
    def dims(self) -> tuple[int, int]:
        return self.psi.shape

    @property
    def state(self) -> np.ndarray:
        """The pure state, system index major: psi's rows in order."""
        return self.psi.reshape(-1)

    def reduced(self) -> np.ndarray:
        """psi psi^dag, the purified projector traced over the ancilla, which is never formed."""
        return self.psi @ self.psi.conj().T


def purify(rho, eps: float = DEFAULT_EPS) -> Purification:
    """Purify a density operator over a minimal ancilla.

    Eigendecomposes rho once with density_eigh, which checks it and drops the negligible
    tail of its spectrum, and returns sum_i sqrt(r_i) |i> (x) |i> over the kept pairs
    (r_i, |i>) in their descending order, one canonical ancilla slot each: column i of
    psi is sqrt(r_i) |i>.

    Raises:
        ValueError: rho is not a valid density operator.
    """
    validate_tolerance(eps)
    _, vals, vecs = density_eigh(rho, eps)
    return Purification(vecs * np.sqrt(vals))


def purified_probability(rho, projector, eps: float = DEFAULT_EPS) -> float:
    """Outcome probability via the purified state: <Psi|(E (x) I)|Psi>.

    E acts on the system axis of the (dim, ancilla) amplitude matrix psi, so
    the dense lift E (x) I is never formed.

    Raises:
        ValueError: invalid density operator or projector, or differing shapes.
    """
    pur = purify(rho, eps)
    projector = validate_projector(projector, eps)
    shape = (pur.dims[0], pur.dims[0])
    if projector.shape != shape:
        raise ValueError(f"projector shape {projector.shape} does not match state shape {shape}")
    return float(np.vdot(pur.psi, projector @ pur.psi).real)


def mixed_probability(rho, projector, eps: float = DEFAULT_EPS) -> float:
    """Outcome probability of a projector in a mixed state, tr(rho E).

    Computes both the purified expectation value and the trace rule and
    returns the trace-rule value; the routes agreeing within eps is part
    of the contract.

    Raises:
        ValueError: invalid projector or density operator, or routes
            disagreeing beyond eps.
    """
    via_purification = purified_probability(rho, projector, eps)  # validates both
    via_trace = float(np.trace(as_complex(rho) @ as_complex(projector)).real)
    if abs(via_purification - via_trace) > eps:
        raise ValueError(
            f"purified route {via_purification!r} disagrees with trace route {via_trace!r}"
        )
    return via_trace
