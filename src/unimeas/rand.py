"""Random states, observables, and measurement models for verification suites.

All generators take an explicit numpy Generator so suites stay reproducible.
Includes the two negative-model constructions: swapping pointer projectors
(breaks coindexing outright) and rotating the unitary's action on the
initial subspace (breaks the measurement conditions for generic models).
"""

from __future__ import annotations

import numpy as np

from .linalg import basis_ket, dag, tensor
from .measurement import MeasurementModel, build_canonical_model
from .spectral import SpectralForm, spectral_decompose


def rand_ket(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random state vector."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def rand_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR with phase correction."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def rand_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (z + dag(z)) / 2.0


def rand_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density operator."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = z @ dag(z)
    return rho / np.trace(rho).real


def rand_projector(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Random rank-`rank` orthogonal projector."""
    if not 0 < rank <= dim:
        raise ValueError(f"rank must lie in 1..{dim}, got {rank}")
    q = rand_unitary(dim, rng)[:, :rank]
    return q @ dag(q)


def rand_observable(
    dim: int,
    rng: np.random.Generator,
    multiplicities: list[int] | None = None,
) -> SpectralForm:
    """Random Hermitian observable in spectral form.

    With `multiplicities` given (summing to dim), eigenvalues repeat
    accordingly, producing degenerate outcomes with higher-rank projectors.
    Distinct eigenvalues are kept at least 0.4 apart so clustering never
    merges separate outcomes.
    """
    if multiplicities is None:
        return spectral_decompose(rand_hermitian(dim, rng))
    if sum(multiplicities) != dim or any(m < 1 for m in multiplicities):
        raise ValueError(f"multiplicities {multiplicities} do not partition dim {dim}")
    k = len(multiplicities)
    vals = np.arange(k) + rng.uniform(-0.3, 0.3, size=k)
    u = rand_unitary(dim, rng)
    diag = np.concatenate([np.full(m, v) for v, m in zip(vals, multiplicities)])
    return spectral_decompose(u @ np.diag(diag) @ dag(u))


def rand_model(
    dim: int,
    rng: np.random.Generator,
    multiplicities: list[int] | None = None,
) -> MeasurementModel:
    """Canonical model measuring a random observable."""
    return build_canonical_model(rand_observable(dim, rng, multiplicities))


def with_redundant_pointer(
    model: MeasurementModel, extra_dim: int, rng: np.random.Generator
) -> MeasurementModel:
    """Enlarge the instrument by an uncoupled factor of dimension extra_dim.

    Pointer projectors become F_k (x) I, so every pointer outcome gains
    rank, while the measurement conditions are inherited unchanged.
    """
    if extra_dim < 1:
        raise ValueError(f"extra_dim must be positive, got {extra_dim}")
    chi = rand_ket(extra_dim, rng)
    eye = np.eye(extra_dim)
    pointer = SpectralForm(
        model.pointer.eigenvalues,
        tuple(tensor(f, eye) for f in model.pointer.projectors),
    )
    return MeasurementModel(
        dim_a=model.dim_a,
        dim_b=model.dim_b * extra_dim,
        observable=model.observable,
        pointer=pointer,
        instrument_state=tensor(model.instrument_state, chi),
        unitary=tensor(model.unitary, eye),
    )


def perturb_model(
    model: MeasurementModel,
    rng: np.random.Generator,
    theta_range: tuple[float, float] = (0.1, 1.0),
) -> MeasurementModel:
    """Rotate the unitary's columns to break the measurement conditions.

    Applies a two-level rotation of angle theta mixing one initial-subspace
    input direction e_a (x) phi_B with the orthogonal direction
    e_a (x) phi_perp, so the model's action on the initial subspace leaks
    into the image of a column outside it. Requires dim_b >= 2.
    """
    if model.dim_b < 2:
        raise ValueError("perturbation needs an instrument of dimension >= 2")
    theta = rng.uniform(*theta_range)
    a = int(rng.integers(model.dim_a))

    phi = model.instrument_state
    # deterministic unit vector orthogonal to the instrument state
    seed = basis_ket(model.dim_b, 0 if abs(phi[0]) < 0.9 else 1)
    perp = seed - np.vdot(phi, seed) * phi
    perp = perp / np.linalg.norm(perp)

    x1 = tensor(basis_ket(model.dim_a, a), phi)
    x2 = tensor(basis_ket(model.dim_a, a), perp)
    rot = (
        np.eye(model.dim, dtype=np.complex128)
        + (np.cos(theta) - 1.0) * (np.outer(x1, x1.conj()) + np.outer(x2, x2.conj()))
        + np.sin(theta) * (np.outer(x2, x1.conj()) - np.outer(x1, x2.conj()))
    )
    return MeasurementModel(
        dim_a=model.dim_a,
        dim_b=model.dim_b,
        observable=model.observable,
        pointer=model.pointer,
        instrument_state=model.instrument_state,
        unitary=model.unitary @ rot,
    )


def swap_pointer(model: MeasurementModel) -> MeasurementModel:
    """Exchange the first two pointer projectors, breaking the coindexing."""
    if model.outcomes < 2:
        raise ValueError("pointer swap needs at least two outcomes")
    projs = list(model.pointer.projectors)
    projs[0], projs[1] = projs[1], projs[0]
    pointer = SpectralForm(model.pointer.eigenvalues, tuple(projs))
    return MeasurementModel(
        dim_a=model.dim_a,
        dim_b=model.dim_b,
        observable=model.observable,
        pointer=pointer,
        instrument_state=model.instrument_state,
        unitary=model.unitary,
    )
