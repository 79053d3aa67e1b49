"""Random states, observables, and measurement models for verification suites.

All generators take an explicit numpy Generator so suites stay reproducible.
Models are built and changed through their isometry W = U(I (x) phi_B) alone,
never through a dense unitary. Includes the two negative-model
constructions: swapping pointer projectors (breaks coindexing outright) and
rotating one column of W out of its range (breaks the measurement conditions
for generic models).
"""

from __future__ import annotations

import numpy as np

from .linalg import basis_ket, tensor
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


def rand_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (z + z.conj().T) / 2.0


def rand_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density operator."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


def rand_projector(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Random rank-`rank` orthogonal projector."""
    if not 0 < rank <= dim:
        raise ValueError(f"rank must lie in 1..{dim}, got {rank}")
    q = rand_unitary(dim, rng)[:, :rank]
    return q @ q.conj().T


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
    return spectral_decompose(u @ np.diag(diag) @ u.conj().T)


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
    rank (the basis becomes V (x) I), while the measurement conditions are
    inherited unchanged. The interaction becomes U (x) I and the instrument
    state phi_B (x) chi, so the isometry becomes W (x) chi.
    """
    if extra_dim < 1:
        raise ValueError(f"extra_dim must be positive, got {extra_dim}")
    chi = rand_ket(extra_dim, rng)
    p = model.pointer
    pointer = SpectralForm(p.eigenvalues, p.ranks * extra_dim, tensor(p.basis, np.eye(extra_dim)))
    return MeasurementModel(
        observable=model.observable,
        pointer=pointer,
        instrument_state=tensor(model.instrument_state, chi),
        isometry=tensor(model.isometry, chi[:, None]),
    )


def perturb_model(model: MeasurementModel, rng: np.random.Generator) -> MeasurementModel:
    """Rotate one column of the isometry out of its range to break the conditions.

    Column a of W becomes cos(theta) W e_a + sin(theta) v, theta uniform in
    [0.1, 1.0) and a uniform over the object basis, with v a
    deterministic unit vector orthogonal to range(W): v = (I - W W^dag) x
    normalised, where x = (I (x) S) W e_a and S|j> = |j+1 mod dim_b> shifts
    the instrument basis. For a canonical model x is U(e_a (x) |1>), already
    orthogonal to range(W), so this is the two-level rotation of e_a (x) |0>
    toward e_a (x) |1> applied to the dense U. Should x lie within 1/2 of
    range(W), the joint basis vector farthest from range(W) takes its place.
    The result is again an isometry, so it extends to a unitary, but the
    model's action on the initial subspace leaks out of it. Costs
    O(dim dim_a). Requires dim_b >= 2.
    """
    if model.dim_b < 2:
        raise ValueError("perturbation needs an instrument of dimension >= 2")
    theta = rng.uniform(0.1, 1.0)
    a = int(rng.integers(model.dim_a))

    w = model.isometry
    x = np.roll(w[:, a].reshape(model.dim_a, model.dim_b), 1, axis=1).reshape(-1)
    v = x - w @ (w.conj().T @ x)
    if np.linalg.norm(v) < 0.5:
        # the basis vectors' squared distances to range(W) average
        # 1 - dim_a/dim >= 1/2, so the farthest lies at least 1/sqrt(2) away
        j = int(np.argmin(np.sum(np.abs(w) ** 2, axis=1)))
        v = basis_ket(model.dim, j) - w @ w[j].conj()
    v = v / np.linalg.norm(v)

    perturbed = np.array(w)
    perturbed[:, a] = np.cos(theta) * w[:, a] + np.sin(theta) * v
    return MeasurementModel(
        observable=model.observable,
        pointer=model.pointer,
        instrument_state=model.instrument_state,
        isometry=perturbed,
    )


def swap_pointer(model: MeasurementModel) -> MeasurementModel:
    """Exchange the first two pointer projectors (basis blocks), breaking the coindexing."""
    if model.outcomes < 2:
        raise ValueError("pointer swap needs at least two outcomes")
    p = model.pointer
    blocks = (p.blocks[1], p.blocks[0], *p.blocks[2:])
    pointer = SpectralForm(p.eigenvalues, [len(v.T) for v in blocks], np.hstack(blocks))
    return MeasurementModel(
        observable=model.observable,
        pointer=pointer,
        instrument_state=model.instrument_state,
        isometry=model.isometry,
    )
