"""Mixed initial states: purification and the trace-rule probability.

A mixed state is lifted to a pure state on a doubled system whose partial
trace over the ancilla reproduces it. Measurement probabilities can then
be computed two ways, through the purified expectation value or directly
by the trace rule; the two routes must agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_EPS,
    _is_int,
    as_complex,
    density_eigh,
    frozen,
    validate_projector,
    validate_tolerance,
)


@dataclass(frozen=True, eq=False)
class Purification:
    """Pure state on system (x) ancilla whose reduction is `source`."""

    state: np.ndarray = field(repr=False)
    dims: tuple[int, int]
    source: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "state", frozen(as_complex(self.state)))
        object.__setattr__(self, "source", frozen(as_complex(self.source)))
        if len(self.dims) != 2 or not all(_is_int(d) and d > 0 for d in self.dims):
            raise ValueError(f"dims must be two positive integers, got {self.dims!r}")
        object.__setattr__(self, "dims", (int(self.dims[0]), int(self.dims[1])))
        if self.dims[0] * self.dims[1] != self.state.size:
            raise ValueError(f"dims {self.dims} do not match state size {self.state.size}")

    def reduced(self) -> np.ndarray:
        """Partial trace of the purified projector over the ancilla, Psi Psi^dag on the
        (dim, ancilla) reshape Psi of the state; the joint projector is never formed."""
        psi = self.state.reshape(self.dims)
        return psi @ psi.conj().T


def purify(rho, eps: float = DEFAULT_EPS) -> Purification:
    """Purify a density operator over a minimal ancilla.

    Eigendecomposes rho once with density_eigh, which checks it and drops the negligible
    tail of its spectrum, and returns sum_i sqrt(r_i) |i> (x) |i> over the kept pairs
    (r_i, |i>) in their descending order, one canonical ancilla slot each; column i of the
    (dim, ancilla) reshape of the state is sqrt(r_i) |i>.

    Raises:
        ValueError: rho is not a valid density operator.
    """
    validate_tolerance(eps)
    rho, vals, vecs = density_eigh(rho, eps)
    columns = vecs * np.sqrt(vals)
    return Purification(state=columns.reshape(-1), dims=columns.shape, source=rho)


def purified_probability(rho, projector, eps: float = DEFAULT_EPS) -> float:
    """Outcome probability via the purified state: <Psi|(E (x) I)|Psi>.

    E acts on the system axis of the (dim, ancilla) reshape of Psi, so the
    dense lift E (x) I is never formed.

    Raises:
        ValueError: invalid density operator or projector, or differing shapes.
    """
    pur = purify(rho, eps)
    projector = validate_projector(projector, eps)
    if projector.shape != pur.source.shape:
        raise ValueError(
            f"projector shape {projector.shape} does not match state shape {pur.source.shape}"
        )
    psi = pur.state.reshape(pur.dims)
    return float(np.vdot(psi, projector @ psi).real)


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
