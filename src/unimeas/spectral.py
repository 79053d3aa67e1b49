"""Unique spectral forms of Hermitian observables and projector refinement."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .linalg import (
    DEFAULT_EPS,
    as_complex,
    frozen,
    sum_defect,
    validate_hermitian,
    validate_outcome_index,
    validate_projectors,
    validate_tolerance,
)

# eigenvalues closer than this merge into one degenerate outcome
DEGENERACY_TOL = 1e-7


@dataclass(frozen=True)
class SpectralForm:
    """Pairwise-distinct eigenvalues with coindexed orthogonal projectors."""

    eigenvalues: np.ndarray
    projectors: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=np.float64)
        projs = tuple(frozen(as_complex(p)) for p in self.projectors)
        object.__setattr__(self, "eigenvalues", frozen(vals))
        object.__setattr__(self, "projectors", projs)
        if len(projs) != vals.size:
            raise ValueError(
                f"{vals.size} eigenvalues but {len(projs)} projectors"
            )
        if vals.size == 0:
            raise ValueError("spectral form needs at least one outcome")

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    @property
    def outcomes(self) -> int:
        return len(self.projectors)

    def rank(self, k: int) -> int:
        return int(round(np.trace(self.projectors[validate_outcome_index(k, self.outcomes)]).real))

    def validate(self, eps: float = DEFAULT_EPS) -> None:
        """Check finiteness, idempotency, orthogonality, completeness, and distinctness."""
        validate_tolerance(eps)
        if not np.all(np.isfinite(self.eigenvalues)):
            raise ValueError("eigenvalues must be finite")
        validate_projectors(self.projectors, self.dim, eps)
        ok, residual = verify_completeness(self, eps)
        if not ok:
            raise ValueError(f"projectors do not sum to identity (residual {residual:.3e})")
        vals = self.eigenvalues
        for k in range(vals.size):
            for kp in range(k + 1, vals.size):
                if vals[k] == vals[kp]:
                    raise ValueError(f"eigenvalues {k} and {kp} are equal ({vals[k]})")

    def reconstruct(self) -> np.ndarray:
        """Sum of eigenvalue-weighted projectors."""
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for val, p in zip(self.eigenvalues, self.projectors):
            out = out + val * p
        return out


def spectral_decompose(h, eps: float = DEFAULT_EPS) -> SpectralForm:
    """Unique spectral form of a Hermitian operator.

    Eigenvalues closer than DEGENERACY_TOL are merged into one outcome whose
    projector spans the joint eigenspace. Outcomes are sorted by descending
    eigenvalue so indexing is deterministic.

    Raises:
        ValueError: input is non-finite or not Hermitian within eps.
    """
    validate_tolerance(eps)
    h = validate_hermitian(h, eps, "observable")
    vals, vecs = np.linalg.eigh((h + h.conj().T) / 2.0)

    # group ascending eigenvalues whenever the gap to the previous one is small
    clusters: list[list[int]] = [[0]]
    for i in range(1, vals.size):
        if vals[i] - vals[i - 1] <= DEGENERACY_TOL:
            clusters[-1].append(i)
        else:
            clusters.append([i])

    eigenvalues = []
    projectors = []
    for idx in reversed(clusters):
        block = vecs[:, idx]
        eigenvalues.append(float(np.mean(vals[idx])))
        projectors.append(block @ block.conj().T)
    return SpectralForm(np.array(eigenvalues), tuple(projectors))


def verify_completeness(sf: SpectralForm, eps: float = DEFAULT_EPS) -> tuple[bool, float]:
    """Whether the projectors sum to the identity; returns (ok, max residual)."""
    validate_tolerance(eps)
    residual = sum_defect(sf.projectors, np.eye(sf.dim))
    return residual <= eps, residual


def refine(
    sf: SpectralForm,
    k: int,
    sub_projectors: Sequence[np.ndarray],
    eps: float = DEFAULT_EPS,
) -> SpectralForm:
    """Split outcome k into finer orthogonal sub-outcomes (overmeasurement).

    The sub-projectors must be orthogonal idempotents summing to the
    outcome's projector. Fresh eigenvalue labels are assigned below the
    original one, inside the gap to the next smaller eigenvalue; they are
    labels only and carry no numeric meaning.

    Raises:
        ValueError: k is not an outcome index, or the sub-projectors are
            invalid or do not sum to projector k.
    """
    validate_tolerance(eps)
    k = validate_outcome_index(k, sf.outcomes)
    subs = [as_complex(p) for p in sub_projectors]
    if not subs:
        raise ValueError("at least one sub-projector is required")
    validate_projectors(subs, sf.dim, eps, "sub-projector")
    defect = sum_defect(subs, sf.projectors[k])
    if not defect <= eps:
        raise ValueError(
            f"sub-projectors do not sum to projector {k} (defect {defect:.3e})"
        )

    vals = sf.eigenvalues
    below = vals[vals < vals[k]]
    gap = float(vals[k] - np.max(below)) if below.size else 1.0
    m = len(subs)
    labels = [float(vals[k]) - j * (gap / m) for j in range(m)]

    new_vals = []
    new_projs = []
    for i in range(sf.outcomes):
        if i == k:
            new_vals.extend(labels)
            new_projs.extend(subs)
        else:
            new_vals.append(float(vals[i]))
            new_projs.append(sf.projectors[i])
    return SpectralForm(np.array(new_vals), tuple(new_projs))


def range_basis(projector, eps: float = DEFAULT_EPS) -> list[np.ndarray]:
    """Deterministic orthonormal basis of a projector's range.

    Raises:
        ValueError: projector is non-finite, not square, or not Hermitian within eps.
    """
    return _range_vectors(validate_hermitian(projector, eps, "projector"))


def _range_vectors(p: np.ndarray) -> list[np.ndarray]:
    """range_basis of a matrix the caller has already validated."""
    vals, vecs = np.linalg.eigh((p + p.conj().T) / 2.0)
    return [vecs[:, i] for i in range(vals.size) if vals[i] > 0.5]
