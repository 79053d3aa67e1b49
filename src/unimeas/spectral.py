"""Unique spectral forms of Hermitian observables and projector refinement."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .linalg import (
    DEFAULT_EPS,
    frozen,
    projector_stack,
    sum_defect,
    validate_hermitian,
    validate_outcome_index,
    validate_projector_stack,
    validate_tolerance,
)

# eigenvalues closer than this merge into one degenerate outcome
DEGENERACY_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class SpectralForm:
    """Pairwise-distinct eigenvalues with coindexed orthogonal projectors.

    `projectors` is one read-only complex (outcomes, dim, dim) array; a
    sequence of matrices given to the constructor is stacked into it by
    linalg.projector_stack. Records compare and hash by identity.
    """

    eigenvalues: np.ndarray
    projectors: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=np.float64)
        if len(self.projectors) != vals.size:
            raise ValueError(f"{vals.size} eigenvalues but {len(self.projectors)} projectors")
        if vals.size == 0:
            raise ValueError("spectral form needs at least one outcome")
        object.__setattr__(self, "eigenvalues", frozen(vals))
        stack = projector_stack(self.projectors)
        stack.setflags(write=False)
        object.__setattr__(self, "projectors", stack)

    @property
    def dim(self) -> int:
        return self.projectors.shape[1]

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
        validate_projector_stack(self.projectors, eps)
        ok, residual = verify_completeness(self, eps)
        if not ok:
            raise ValueError(f"projectors do not sum to identity (residual {residual:.3e})")
        vals = self.eigenvalues.reshape(-1)
        equal = vals[:, None] == vals
        if equal.sum() > vals.size:  # more than the diagonal
            k, kp = np.argwhere(np.triu(equal, 1))[0]  # the first pair in (k, k') order
            raise ValueError(f"eigenvalues {k} and {kp} are equal ({vals[k]})")

    def reconstruct(self) -> np.ndarray:
        """Sum of eigenvalue-weighted projectors."""
        return np.tensordot(self.eigenvalues, self.projectors, axes=1)


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

    # a new outcome starts wherever the gap to the previous eigenvalue is large;
    # outcome j is the ascending eigenvalues cuts[j + 1]:cuts[j]
    cuts = [vals.size, *(np.flatnonzero(np.diff(vals) > DEGENERACY_TOL) + 1).tolist()[::-1], 0]
    projectors = np.empty((len(cuts) - 1, vals.size, vals.size), dtype=np.complex128)
    for j in range(len(cuts) - 1):
        block = vecs[:, cuts[j + 1] : cuts[j]]
        np.matmul(block, block.conj().T, out=projectors[j])
    eigenvalues = [vals[cuts[j + 1] : cuts[j]].mean() for j in range(len(cuts) - 1)]
    return SpectralForm(np.array(eigenvalues), projectors)


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
    subs = projector_stack(sub_projectors, "sub-projector", sf.dim)
    validate_projector_stack(subs, eps, "sub-projector")
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
    return SpectralForm(
        np.concatenate([vals[:k], labels, vals[k + 1 :]]),
        np.concatenate([sf.projectors[:k], subs, sf.projectors[k + 1 :]]),
    )


def range_basis(projector, eps: float = DEFAULT_EPS) -> list[np.ndarray]:
    """Deterministic orthonormal basis of a projector's range.

    Raises:
        ValueError: projector is non-finite, not square, or not Hermitian within eps.
    """
    return _range_vectors(validate_hermitian(projector, eps, "projector"))


def _range_vectors(p: np.ndarray) -> list[np.ndarray]:
    """range_basis of a matrix the caller has already validated."""
    in_range, vecs = _ranges(p[None])
    return [vecs[0][:, i] for i in np.flatnonzero(in_range[0])]


def _ranges(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(in_range, vecs) for a complex (n, d, d) stack, from one batched eigh of its Hermitian parts.

    vecs[k][:, i] is an eigenvector of matrix k, and in_range[k, i] (eigenvalue
    above 1/2) says it belongs to the range basis. The one range rule behind
    range_basis and check_calibration.
    """
    vals, vecs = np.linalg.eigh((stack + stack.conj().transpose(0, 2, 1)) / 2.0)
    return vals > 0.5, vecs
