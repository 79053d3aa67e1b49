"""Mixed initial states: purification and the trace-rule probability.

A mixed state is lifted to a pure state on a doubled system whose partial
trace over the ancilla reproduces it. Measurement probabilities can then
be computed two ways, through the purified expectation value or directly
by the trace rule; the two routes must agree.
"""

from __future__ import annotations

import numpy as np

from .linalg import DEFAULT_EPS, as_complex, density_eigh, validate_projector, validate_tolerance


def purify(rho, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Purify a density operator over a minimal ancilla.

    Eigendecomposes rho once with density_eigh, which checks it and drops the negligible
    tail of its spectrum, and returns sum_i sqrt(r_i) |i> (x) |i> over the kept pairs
    (r_i, |i>) in their descending order, one canonical ancilla slot each, as its complex
    (dim, ancilla) amplitude matrix psi: column i of psi is sqrt(r_i) |i>. The pure state is
    psi.reshape(-1), system index major, and its reduction over the ancilla is psi psi^dag.

    Raises:
        ValueError: rho is not a valid density operator.
    """
    validate_tolerance(eps)
    _, vals, vecs = density_eigh(rho, eps)
    return vecs * np.sqrt(vals)


def purified_probability(rho, projector, eps: float = DEFAULT_EPS) -> float:
    """Outcome probability via the purified state: <Psi|(E (x) I)|Psi>.

    E acts on the system axis of the (dim, ancilla) amplitude matrix psi, so
    the dense lift E (x) I is never formed.

    Raises:
        ValueError: invalid density operator or projector, or differing shapes.
    """
    psi = purify(rho, eps)
    projector = validate_projector(projector, eps)
    shape = (psi.shape[0], psi.shape[0])
    if projector.shape != shape:
        raise ValueError(f"projector shape {projector.shape} does not match state shape {shape}")
    return float(np.vdot(psi, projector @ psi).real)


def mixed_probability(rho, projector, eps: float = DEFAULT_EPS) -> float:
    """Outcome probability of a projector in a mixed state, tr(rho E).

    Computes both the purified expectation value and the trace rule and
    returns the trace-rule value; the routes agreeing within eps, and the
    rounding of their sums, is part of the contract.

    Raises:
        ValueError: invalid projector or density operator, or routes
            disagreeing beyond eps and rounding.
    """
    via_purification = purified_probability(rho, projector, eps)  # validates both
    rho = as_complex(rho)
    via_trace = float((rho @ as_complex(projector)).trace().real)
    # Exactly, the routes differ by the dropped tail, at most eps. Each route also rounds sums
    # of products of numbers near or below 1, by a few units in the last place of 1 per dim.
    if abs(via_purification - via_trace) > eps + 32 * rho.shape[0] * np.finfo(float).eps:
        raise ValueError(
            f"purified route {via_purification!r} disagrees with trace route {via_trace!r}"
        )
    return via_trace
